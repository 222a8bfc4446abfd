#include "wafer/die_cost.h"

#include "util/error.h"
#include "util/json.h"
#include "wafer/die_per_wafer.h"

namespace chiplet::wafer {

DieCostModel::DieCostModel(WaferSpec spec, double defects_per_cm2,
                           std::unique_ptr<yield::YieldModel> model)
    : spec_(spec), defects_per_cm2_(defects_per_cm2), model_(std::move(model)) {
    spec_.validate();
    CHIPLET_EXPECTS(defects_per_cm2_ >= 0.0, "defect density must be non-negative");
    CHIPLET_EXPECTS(model_ != nullptr, "yield model must not be null");
}

DieCostModel::DieCostModel(const DieCostModel& other)
    : spec_(other.spec_),
      defects_per_cm2_(other.defects_per_cm2_),
      model_(other.model_->clone()) {}

DieCostModel& DieCostModel::operator=(const DieCostModel& other) {
    if (this != &other) {
        spec_ = other.spec_;
        defects_per_cm2_ = other.defects_per_cm2_;
        model_ = other.model_->clone();
    }
    return *this;
}

double DieCostModel::die_yield(double die_area_mm2) const {
    return model_->yield(defects_per_cm2_, die_area_mm2);
}

DieCostBreakdown DieCostModel::evaluate(double die_area_mm2) const {
    CHIPLET_EXPECTS(die_area_mm2 > 0.0, "die area must be positive");
    DieCostBreakdown out;
    out.dies_per_wafer = dpw_classical(spec_, die_area_mm2);
    if (out.dies_per_wafer <= 0.0) {
        throw ParameterError("die of " + exact_number_string(die_area_mm2) +
                             " mm^2 does not fit on the wafer");
    }
    out.yield = die_yield(die_area_mm2);
    out.raw_cost_usd = spec_.price_usd / out.dies_per_wafer;
    out.good_cost_usd = out.raw_cost_usd / out.yield;
    out.defect_cost_usd = out.good_cost_usd - out.raw_cost_usd;
    out.normalized_cost_per_area =
        (out.good_cost_usd / die_area_mm2) / spec_.price_per_mm2();
    return out;
}

}  // namespace chiplet::wafer
