// The per-technology batch-setup hoist: a batch evaluation performs ONE
// die-pricing setup per distinct process technology — wafer validation,
// yield-model construction, rate folding — no matter how many candidate
// systems share it (the tentpole's "hoist per-technology setup out of
// the per-candidate loop").  Also pins the DieBatch accelerator contract:
// kernel-priced dies are bit-identical to the scalar price_die path and
// never silently take it over (fallbacks stay visible in the stats).
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/actuary.h"
#include "core/scenarios.h"
#include "kernels/die_batch.h"
#include "kernels/kernels.h"
#include "tech/tech_library.h"
#include "wafer/die_cost.h"
#include "wafer/die_cost_cache.h"
#include "yield/models.h"

namespace chiplet {
namespace {

/// The distinct process technologies a batch of systems prices dies on:
/// every placement's node plus the interposer node of any interposer
/// packaging (the DieBatch registers exactly these).
std::set<std::string> distinct_pricing_nodes(
    const std::vector<design::System>& systems, const tech::TechLibrary& lib) {
    std::set<std::string> nodes;
    for (const design::System& system : systems) {
        for (const design::ChipPlacement& p : system.placements()) {
            nodes.insert(p.chip.node());
        }
        const tech::PackagingTech& pkg = lib.packaging(system.packaging());
        if (pkg.has_interposer()) nodes.insert(pkg.interposer_node);
    }
    return nodes;
}

TEST(DieBatchHoisting, OneTechSetupPerTechnologyPerBatch) {
    const core::ChipletActuary actuary;
    // 120 candidates over two logic nodes: the per-candidate loop must
    // not multiply setup work.
    std::vector<design::System> systems;
    for (int i = 0; i < 60; ++i) {
        systems.push_back(core::split_system("a" + std::to_string(i), "7nm",
                                             "MCM", 500.0 + i, 2, 0.10, 1e6));
        systems.push_back(core::split_system("b" + std::to_string(i), "12nm",
                                             "MCM", 400.0 + i, 3, 0.10, 1e6));
    }
    const std::size_t distinct =
        distinct_pricing_nodes(systems, actuary.library()).size();
    ASSERT_EQ(distinct, 2u);

    core::ChipletActuary::BatchStats stats;
    const auto costs = actuary.evaluate_batch(systems, stats);
    ASSERT_EQ(costs.size(), systems.size());
    EXPECT_EQ(stats.tech_setups, distinct)
        << "batch setup must scale with technologies, not candidates";
    EXPECT_EQ(stats.scalar_fallbacks, 0u)
        << "well-formed dies must be priced by the kernel batch";
    EXPECT_GT(stats.kernel_hits, 0u);
    // Each (node, area) pair occupies one deduped slot; 120 systems with
    // per-system unique areas keep the query count well under the die
    // count but far above the tech count.
    EXPECT_GE(stats.unique_die_queries, 120u);

    // A second batch is a fresh per-batch context: one setup per tech
    // again (not zero — the hoist is per batch, not a process-wide cache).
    core::ChipletActuary::BatchStats again;
    (void)actuary.evaluate_batch(systems, again);
    EXPECT_EQ(again.tech_setups, distinct);
}

TEST(DieBatchHoisting, InterposerNodeCountsAsOneMoreTechnology) {
    const core::ChipletActuary actuary;
    std::vector<design::System> systems;
    for (int i = 0; i < 40; ++i) {
        systems.push_back(core::split_system("c" + std::to_string(i), "7nm",
                                             "2.5D", 450.0 + i, 4, 0.10, 1e6));
    }
    const std::size_t distinct =
        distinct_pricing_nodes(systems, actuary.library()).size();
    ASSERT_EQ(distinct, 2u) << "7nm plus the 2.5D interposer node";

    core::ChipletActuary::BatchStats stats;
    (void)actuary.evaluate_batch(systems, stats);
    EXPECT_EQ(stats.tech_setups, distinct);
    EXPECT_EQ(stats.scalar_fallbacks, 0u);
}

TEST(DieBatchHoisting, BatchPathLeavesScalarModelSetupsUntouched) {
    const core::ChipletActuary actuary;
    std::vector<design::System> systems;
    for (int i = 0; i < 50; ++i) {
        systems.push_back(core::split_system("d" + std::to_string(i), "7nm",
                                             "MCM", 300.0 + i, 2, 0.10, 1e6));
    }
    // Batch-served dies never reach the scalar DieCostCache compute
    // path, so its model-construction counter must not move with the
    // candidate count.
    const std::uint64_t before =
        wafer::DieCostCache::global().stats().model_setups;
    core::ChipletActuary::BatchStats stats;
    (void)actuary.evaluate_batch(systems, stats);
    const std::uint64_t after =
        wafer::DieCostCache::global().stats().model_setups;
    EXPECT_EQ(stats.scalar_fallbacks, 0u);
    EXPECT_EQ(after, before)
        << "batch evaluation leaked die pricing into the scalar cache path";
}

TEST(DieBatch, FindIsBitIdenticalToScalarPriceDie) {
    const core::ChipletActuary actuary;
    const tech::TechLibrary& lib = actuary.library();
    const tech::ProcessNode& node = lib.node("7nm");
    const std::string yield_model = actuary.assumptions().yield_model;

    kernels::DieBatch batch(yield_model);
    const double areas[] = {12.5, 100.0, 300.0, 599.25, 820.0};
    for (double area : areas) batch.add(node, area);
    batch.add(node, areas[0]);  // duplicate dedups to the same slot
    batch.evaluate();

    const kernels::DieBatch::Stats stats = batch.stats();
    EXPECT_EQ(stats.tech_setups, 1u);
    EXPECT_EQ(stats.unique_queries, std::size(areas));

    const wafer::DieCostModel model(
        node.wafer_spec(), node.defect_density_cm2,
        yield::make_yield_model(yield_model, node.cluster_param));
    for (double area : areas) {
        const auto priced = batch.find(node, area);
        ASSERT_TRUE(priced.has_value()) << "area " << area;
        const wafer::DieCostBreakdown oracle = model.evaluate(area);
        const double oracle_raw =
            oracle.raw_cost_usd +
            (node.bump_cost_per_mm2 + node.test_cost_per_mm2) * area;
        EXPECT_EQ(priced->raw_usd, oracle_raw) << "area " << area;
        EXPECT_EQ(priced->yield, oracle.yield) << "area " << area;
    }
}

TEST(DieBatch, NonFittingAndUnknownQueriesFallBack) {
    const core::ChipletActuary actuary;
    const tech::ProcessNode& node = actuary.library().node("7nm");
    kernels::DieBatch batch(actuary.assumptions().yield_model);
    batch.add(node, 1.0e6);  // cannot fit any wafer
    batch.evaluate();
    EXPECT_FALSE(batch.find(node, 1.0e6).has_value())
        << "non-fitting dies defer to the scalar path's diagnostic";
    EXPECT_FALSE(batch.find(node, 123.0).has_value())
        << "unregistered queries are misses, not recomputations";
    EXPECT_GE(batch.stats().fallbacks, 2u);
}

}  // namespace
}  // namespace chiplet
