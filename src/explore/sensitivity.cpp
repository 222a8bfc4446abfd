#include "explore/sensitivity.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"
#include "util/thread_pool.h"

namespace chiplet::explore {

std::vector<ParameterHandle> default_parameters(const std::string& node,
                                                const std::string& packaging) {
    std::vector<ParameterHandle> out;
    out.push_back(
        {node + ".defect_density",
         [node](const tech::TechLibrary& lib) {
             return lib.node(node).defect_density_cm2;
         },
         [node](tech::TechLibrary& lib, double v) {
             lib.set_defect_density(node, v);
         }});
    out.push_back(
        {node + ".wafer_price",
         [node](const tech::TechLibrary& lib) {
             return lib.node(node).wafer_price_usd;
         },
         [node](tech::TechLibrary& lib, double v) { lib.set_wafer_price(node, v); }});
    // Yields saturate at 1.0: the setter clamps so a relative upward
    // perturbation of an already-high yield stays in the valid domain
    // (the elasticity then reflects the one-sided slope).
    out.push_back(
        {packaging + ".chip_bond_yield",
         [packaging](const tech::TechLibrary& lib) {
             return lib.packaging(packaging).chip_bond_yield;
         },
         [packaging](tech::TechLibrary& lib, double v) {
             tech::PackagingTech t = lib.packaging(packaging);
             t.chip_bond_yield = std::min(v, 1.0);
             lib.add_packaging(t);
         }});
    out.push_back(
        {packaging + ".substrate_bond_yield",
         [packaging](const tech::TechLibrary& lib) {
             return lib.packaging(packaging).substrate_bond_yield;
         },
         [packaging](tech::TechLibrary& lib, double v) {
             tech::PackagingTech t = lib.packaging(packaging);
             t.substrate_bond_yield = std::min(v, 1.0);
             lib.add_packaging(t);
         }});
    out.push_back(
        {packaging + ".substrate_cost",
         [packaging](const tech::TechLibrary& lib) {
             return lib.packaging(packaging).substrate_cost_per_mm2;
         },
         [packaging](tech::TechLibrary& lib, double v) {
             tech::PackagingTech t = lib.packaging(packaging);
             t.substrate_cost_per_mm2 = v;
             lib.add_packaging(t);
         }});
    return out;
}

namespace {

/// Per-unit total cost of `system` on a copy of the library with
/// parameter `p` set to `value`.
double cost_with(const core::ChipletActuary& actuary,
                 const design::System& system, const ParameterHandle& p,
                 double value) {
    core::ChipletActuary perturbed(actuary.library(), actuary.assumptions());
    p.set(perturbed.library(), value);
    return perturbed.evaluate(system).total_per_unit();
}

}  // namespace

double TornadoEntry::swing() const { return std::fabs(cost_high - cost_low); }

std::vector<TornadoEntry> tornado_analysis(
    const core::ChipletActuary& actuary, const design::System& system,
    const std::vector<ParameterHandle>& parameters, double rel_range) {
    CHIPLET_EXPECTS(rel_range > 0.0 && rel_range < 1.0,
                    "relative range must lie in (0, 1)");
    // Each parameter perturbs its own copy of the library, so the bars
    // evaluate independently on the pool.
    std::vector<TornadoEntry> out =
        util::ThreadPool::global().parallel_map<TornadoEntry>(
            parameters.size(), [&](std::size_t i) {
                const ParameterHandle& p = parameters[i];
                TornadoEntry entry;
                entry.parameter = p.name;
                entry.base_value = p.get(actuary.library());
                entry.cost_low = cost_with(actuary, system, p,
                                           entry.base_value * (1.0 - rel_range));
                entry.cost_high = cost_with(actuary, system, p,
                                            entry.base_value * (1.0 + rel_range));
                return entry;
            });
    std::stable_sort(out.begin(), out.end(),
                     [](const TornadoEntry& a, const TornadoEntry& b) {
                         return a.swing() > b.swing();
                     });
    return out;
}

std::vector<SensitivityEntry> sensitivity_analysis(
    const core::ChipletActuary& actuary, const design::System& system,
    const std::vector<ParameterHandle>& parameters, double rel_step) {
    CHIPLET_EXPECTS(rel_step > 0.0 && rel_step < 1.0,
                    "relative step must lie in (0, 1)");
    const double base_cost = actuary.evaluate(system).total_per_unit();

    return util::ThreadPool::global().parallel_map<SensitivityEntry>(
        parameters.size(), [&](std::size_t i) {
            const ParameterHandle& p = parameters[i];
            SensitivityEntry entry;
            entry.parameter = p.name;
            entry.base_value = p.get(actuary.library());
            entry.base_cost = base_cost;
            if (entry.base_value == 0.0) {
                return entry;  // elasticity undefined at exactly zero
            }
            const double up =
                cost_with(actuary, system, p, entry.base_value * (1.0 + rel_step));
            const double down =
                cost_with(actuary, system, p, entry.base_value * (1.0 - rel_step));
            entry.perturbed_cost = up;
            entry.elasticity = ((up - down) / base_cost) / (2.0 * rel_step);
            return entry;
        });
}

std::vector<SensitivityEntry> run_sensitivity(
    const core::ChipletActuary& actuary, const SensitivityStudyConfig& config) {
    const design::System system =
        config.scenario.build(actuary.library(), "sensitivity");
    return sensitivity_analysis(
        actuary, system,
        default_parameters(config.scenario.node, config.scenario.packaging),
        config.rel_step);
}

std::vector<TornadoEntry> run_tornado(const core::ChipletActuary& actuary,
                                      const TornadoStudyConfig& config) {
    const design::System system =
        config.scenario.build(actuary.library(), "tornado");
    return tornado_analysis(
        actuary, system,
        default_parameters(config.scenario.node, config.scenario.packaging),
        config.rel_range);
}

}  // namespace chiplet::explore
