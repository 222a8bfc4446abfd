#include "kernels/die_batch.h"

#include <bit>

#include "tech/process_node.h"
#include "wafer/wafer_spec.h"
#include "yield/models.h"

namespace chiplet::kernels {

namespace {

std::uint64_t area_bits(double die_area_mm2) {
    return std::bit_cast<std::uint64_t>(die_area_mm2);
}

}  // namespace

DieBatch::DieBatch(std::string yield_model_name)
    : yield_model_name_(std::move(yield_model_name)) {}

DieBatch::PerNode& DieBatch::node_group(const tech::ProcessNode& node) {
    for (PerNode& group : groups_) {
        if (group.node == &node) return group;
    }
    PerNode& group = groups_.emplace_back();
    group.node = &node;
    ++tech_setups_;
    try {
        // The once-per-(node, batch) setup price_die repeats per call:
        // wafer-spec validation, yield-model construction (which checks
        // the clustering parameter and the model name), defect-density
        // domain check.  Any failure defers this node to the scalar
        // path, which raises the canonical error at the right site.
        const wafer::WaferSpec spec = node.wafer_spec();
        spec.validate();
        const auto model =
            yield::make_yield_model(yield_model_name_, node.cluster_param);
        (void)model->yield(node.defect_density_cm2, 0.0);  // domain check
        group.usable_radius_mm = spec.usable_radius_mm();
        group.scribe_width_mm = spec.scribe_width_mm;
        group.wafer_price_usd = spec.price_usd;
        group.extra_per_mm2 = node.bump_cost_per_mm2 + node.test_cost_per_mm2;
        group.defects_per_cm2 = node.defect_density_cm2;
        group.yield_param = node.cluster_param;
        group.kind = yield_kind_from_name(yield_model_name_);
        group.setup_ok = true;
    } catch (...) {
        group.setup_ok = false;
    }
    return group;
}

const DieBatch::PerNode* DieBatch::find_group(
    const tech::ProcessNode& node) const {
    for (const PerNode& group : groups_) {
        if (group.node == &node) return &group;
    }
    return nullptr;
}

void DieBatch::add(const tech::ProcessNode& node, double die_area_mm2) {
    PerNode& group = node_group(node);
    if (!group.setup_ok) return;
    const std::uint64_t key = area_bits(die_area_mm2);
    if (group.slot_by_area_bits.contains(key)) return;
    group.slot_by_area_bits.emplace(
        key, static_cast<std::uint32_t>(group.area.size()));
    group.area.push_back(die_area_mm2);
}

void DieBatch::evaluate() {
    for (PerNode& group : groups_) {
        if (!group.setup_ok) continue;
        const std::size_t n = group.area.size();
        group.dpw.resize(n);
        group.defects.resize(n);
        group.yield.resize(n);
        group.raw.resize(n);
        group.usable.resize(n);
        dpw_classical(group.usable_radius_mm, group.scribe_width_mm,
                      group.area.data(), group.dpw.data(), n);
        expected_defects(group.defects_per_cm2, group.area.data(),
                         group.defects.data(), n);
        yield_from_defects(group.kind, group.yield_param,
                           group.defects.data(), group.yield.data(), n);
        die_raw_cost(group.wafer_price_usd, group.extra_per_mm2,
                     group.area.data(), group.dpw.data(), group.raw.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
            // Non-positive or NaN areas and dies that do not fit are
            // scalar-path territory (it throws); their kernel outputs
            // are never served.
            group.usable[i] =
                group.area[i] > 0.0 && group.dpw[i] > 0.0 ? 1 : 0;
        }
    }
    evaluated_ = true;
}

std::optional<DieBatch::Priced> DieBatch::find(const tech::ProcessNode& node,
                                               double die_area_mm2) const {
    if (evaluated_) {
        if (const PerNode* group = find_group(node);
            group && group->setup_ok) {
            const auto it = group->slot_by_area_bits.find(area_bits(die_area_mm2));
            if (it != group->slot_by_area_bits.end() &&
                group->usable[it->second]) {
                hits_.fetch_add(1, std::memory_order_relaxed);
                return Priced{group->raw[it->second], group->yield[it->second]};
            }
        }
    }
    fallbacks_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
}

DieBatch::Stats DieBatch::stats() const {
    Stats out;
    out.tech_setups = tech_setups_;
    for (const PerNode& group : groups_) {
        out.unique_queries += group.area.size();
    }
    out.hits = hits_.load(std::memory_order_relaxed);
    out.fallbacks = fallbacks_.load(std::memory_order_relaxed);
    return out;
}

}  // namespace chiplet::kernels
