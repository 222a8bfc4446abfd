#include "explore/sweep.h"

#include "core/scenarios.h"
#include "util/error.h"

namespace chiplet::explore {

design::System sweep_cell_system(const core::ChipletActuary& actuary,
                                 const std::string& node,
                                 const std::string& packaging,
                                 double module_area_mm2, unsigned chiplets,
                                 double d2d_fraction, double quantity) {
    const bool is_soc = actuary.library().packaging(packaging).type ==
                        tech::IntegrationType::soc;
    return is_soc ? core::monolithic_soc("soc", node, module_area_mm2, quantity)
                  : core::split_system("split", node, packaging,
                                       module_area_mm2, chiplets, d2d_fraction,
                                       quantity);
}

std::vector<ReSweepPoint> sweep_re_grid(const core::ChipletActuary& actuary,
                                        const ReSweepConfig& config) {
    CHIPLET_EXPECTS(!config.nodes.empty() && !config.areas_mm2.empty(),
                    "sweep axes must not be empty");

    // One batch: the per-node normalisation baselines (one SoC each)
    // first, so a failing baseline is still the lowest-index error,
    // then the grid cells in the serial loop order
    // (node > area > packaging > chiplets).  The baseline system is
    // named "soc" — the same name sweep_cell_system gives grid SoC
    // cells — so a grid that includes the normalisation area shares the
    // baseline's cost cell under the study compiler
    // (explore/study_graph.h).  Only re.total() is read, so the name is
    // unobservable in the payload.
    const std::size_t n_nodes = config.nodes.size();
    std::vector<design::System> systems;
    for (const std::string& node : config.nodes) {
        systems.push_back(core::monolithic_soc(
            "soc", node, config.normalization_area_mm2, 1e6));
    }
    std::vector<std::size_t> node_indices;
    std::vector<ReSweepPoint> out;
    for (std::size_t ni = 0; ni < n_nodes; ++ni) {
        const std::string& node = config.nodes[ni];
        for (double area : config.areas_mm2) {
            for (const std::string& packaging : config.packagings) {
                const bool is_soc =
                    actuary.library().packaging(packaging).type ==
                    tech::IntegrationType::soc;
                const std::vector<unsigned> counts =
                    is_soc ? std::vector<unsigned>{1} : config.chiplet_counts;
                for (unsigned k : counts) {
                    ReSweepPoint point;
                    point.node = node;
                    point.packaging = packaging;
                    point.chiplets = k;
                    point.area_mm2 = area;
                    systems.push_back(sweep_cell_system(
                        actuary, node, packaging, area, k,
                        config.d2d_fraction, 1e6));
                    node_indices.push_back(ni);
                    out.push_back(std::move(point));
                }
            }
        }
    }

    const std::vector<core::SystemCost> costs =
        actuary.evaluate_re_only_batch(systems);
    for (std::size_t i = 0; i < out.size(); ++i) {
        out[i].re = costs[n_nodes + i].re;
        out[i].normalized =
            out[i].re.total() / costs[node_indices[i]].re.total();
    }
    return out;
}

std::vector<QuantitySweepPoint> sweep_total_vs_quantity(
    const core::ChipletActuary& actuary, const QuantitySweepConfig& config) {
    CHIPLET_EXPECTS(!config.packagings.empty() && !config.quantities.empty(),
                    "sweep axes must not be empty");
    std::vector<design::System> systems;
    std::vector<QuantitySweepPoint> out;
    for (double quantity : config.quantities) {
        for (const std::string& packaging : config.packagings) {
            systems.push_back(sweep_cell_system(
                actuary, config.node, packaging, config.module_area_mm2,
                config.chiplets, config.d2d_fraction, quantity));
            QuantitySweepPoint point;
            point.packaging = packaging;
            point.quantity = quantity;
            out.push_back(std::move(point));
        }
    }
    std::vector<core::SystemCost> costs = actuary.evaluate_batch(systems);
    for (std::size_t i = 0; i < out.size(); ++i) out[i].cost = std::move(costs[i]);
    return out;
}

std::vector<QuantitySweepPoint> sweep_total_vs_quantity(
    const core::ChipletActuary& actuary, const std::string& node,
    double module_area_mm2, unsigned chiplets, double d2d_fraction,
    const std::vector<std::string>& packagings,
    const std::vector<double>& quantities) {
    QuantitySweepConfig config;
    config.node = node;
    config.module_area_mm2 = module_area_mm2;
    config.chiplets = chiplets;
    config.d2d_fraction = d2d_fraction;
    config.packagings = packagings;
    config.quantities = quantities;
    return sweep_total_vs_quantity(actuary, config);
}

}  // namespace chiplet::explore
