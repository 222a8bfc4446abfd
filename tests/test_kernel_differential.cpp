// Scalar-oracle harness for the batch kernels (src/kernels/): every
// kernel must reproduce the engine's own scalar code BIT FOR BIT — that
// is the policy (kernels/kernels.h) that makes kernel results
// interchangeable with core's scalar engine.  Two layers of oracle:
//
//   1. each kernel against the scalar function it transcribes
//      (wafer::dpw_classical, yield::YieldModel, DieCostModel) over ~10k
//      seeded randomized cases, with denormal-area, zero-defect-density
//      and non-fitting-die edges injected;
//   2. the whole batch path (ChipletActuary::evaluate_batch) against the
//      single-system scalar evaluate.
//
// scale_add and re_fold run only inside the design_space SoA pass; the
// DesignSpaceKernelPath tests (tests/test_design_space.cpp) check them
// against core::ReModel through explore_design_space_reference.
// Seed comes from CHIPLET_FUZZ_SEED when set, so a CI failure replays
// locally.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "core/actuary.h"
#include "core/scenarios.h"
#include "kernels/kernels.h"
#include "wafer/die_cost.h"
#include "wafer/die_per_wafer.h"
#include "wafer/wafer_spec.h"
#include "yield/models.h"

namespace chiplet::kernels {
namespace {

std::uint64_t fuzz_seed() {
    if (const char* env = std::getenv("CHIPLET_FUZZ_SEED")) {
        return std::strtoull(env, nullptr, 10);
    }
    return 0x44414332'30323236ull;  // stable default
}

std::string bits_of(double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%a", v);
    return std::string(buf) + " (0x" +
           [](std::uint64_t u) {
               char hex[17];
               std::snprintf(hex, sizeof hex, "%016llx",
                             static_cast<unsigned long long>(u));
               return std::string(hex);
           }(std::bit_cast<std::uint64_t>(v)) +
           ")";
}

bool same_bits(double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Die-area generator: log-uniform over the realistic range with the
/// edge cases the policy calls out spliced in at fixed slots.
std::vector<double> make_areas(std::mt19937_64& rng, std::size_t n) {
    std::uniform_real_distribution<double> log_area(-3.0, 3.5);
    std::vector<double> areas(n);
    for (std::size_t i = 0; i < n; ++i) {
        areas[i] = std::pow(10.0, log_area(rng));
    }
    // Edges: denormal, smallest normal, tiny, reticle-scale, dies that
    // cannot fit any wafer, and exact single-die-ish sizes.
    const double edges[] = {5e-324,  1e-310, 2.2250738585072014e-308,
                            1e-6,    858.0,  1e5,
                            1e6,     400.0,  0.015625};
    for (std::size_t i = 0; i < std::size(edges) && i < n; ++i) {
        areas[i * (n / std::size(edges))] = edges[i];
    }
    return areas;
}

constexpr std::size_t kCases = 10'000;

// ---- layer 1: each kernel vs the engine's scalar code -----------------------

TEST(KernelScalarOracle, DpwMatchesWaferDpwClassical) {
    std::mt19937_64 rng(fuzz_seed());
    std::uniform_real_distribution<double> diameter(100.0, 450.0);
    std::uniform_real_distribution<double> scribe(0.01, 0.5);
    for (int spec_case = 0; spec_case < 8; ++spec_case) {
        wafer::WaferSpec spec;
        spec.diameter_mm = diameter(rng);
        spec.scribe_width_mm = scribe(rng);
        const std::vector<double> areas = make_areas(rng, kCases / 8);
        std::vector<double> dpw(areas.size());
        dpw_classical(spec.usable_radius_mm(), spec.scribe_width_mm,
                             areas.data(), dpw.data(), areas.size());
        for (std::size_t i = 0; i < areas.size(); ++i) {
            const double oracle = wafer::dpw_classical(spec, areas[i]);
            ASSERT_TRUE(same_bits(oracle, dpw[i]))
                << "dpw_classical kernel vs wafer::dpw_classical, area="
                << bits_of(areas[i]) << " oracle=" << bits_of(oracle)
                << " kernel=" << bits_of(dpw[i]);
        }
    }
}

TEST(KernelScalarOracle, YieldPipelineMatchesYieldModels) {
    std::mt19937_64 rng(fuzz_seed() + 1);
    const struct {
        const char* name;
        YieldKind kind;
    } kinds[] = {{"poisson", YieldKind::poisson},
                 {"seeds_negative_binomial", YieldKind::seeds_negative_binomial},
                 {"murphy", YieldKind::murphy},
                 {"seeds_exponential", YieldKind::seeds_exponential},
                 {"bose_einstein", YieldKind::bose_einstein}};
    std::uniform_real_distribution<double> density(0.0, 1.0);
    std::uniform_real_distribution<double> cluster(0.5, 20.0);
    for (const auto& k : kinds) {
        ASSERT_EQ(yield_kind_from_name(k.name), k.kind);
        for (int rep = 0; rep < 4; ++rep) {
            // Zero defect density in half the reps: yield must be exactly 1.
            const double d = rep % 2 == 0 ? density(rng) : 0.0;
            const double param = cluster(rng);
            const auto model = yield::make_yield_model(k.name, param);
            const std::vector<double> areas = make_areas(rng, kCases / 20);
            std::vector<double> defects(areas.size());
            std::vector<double> yields(areas.size());
            expected_defects(d, areas.data(), defects.data(),
                                    areas.size());
            yield_from_defects(k.kind, param, defects.data(),
                                      yields.data(), areas.size());
            for (std::size_t i = 0; i < areas.size(); ++i) {
                const double oracle = model->yield(d, areas[i]);
                ASSERT_TRUE(same_bits(oracle, yields[i]))
                    << k.name << " yield, D=" << bits_of(d)
                    << " area=" << bits_of(areas[i])
                    << " oracle=" << bits_of(oracle)
                    << " kernel=" << bits_of(yields[i]);
                if (d == 0.0) {
                    ASSERT_TRUE(same_bits(yields[i], 1.0))
                        << k.name << " must yield exactly 1.0 at D=0";
                }
            }
        }
    }
}

TEST(KernelScalarOracle, DieRawCostMatchesDieCostModel) {
    std::mt19937_64 rng(fuzz_seed() + 2);
    wafer::WaferSpec spec;  // default 300mm geometry
    spec.price_usd = 9'000.0;
    const double defect_density = 0.09;
    const double cluster_param = 10.0;
    const double bump = 25.0e-3;
    const double test = 15.0e-3;
    const wafer::DieCostModel model(
        spec, defect_density,
        yield::make_yield_model("seeds_negative_binomial", cluster_param));

    const std::vector<double> areas = make_areas(rng, kCases);
    const std::size_t n = areas.size();
    std::vector<double> dpw(n), raw(n);
    dpw_classical(spec.usable_radius_mm(), spec.scribe_width_mm,
                         areas.data(), dpw.data(), n);
    die_raw_cost(spec.price_usd, bump + test, areas.data(), dpw.data(),
                        raw.data(), n);

    std::size_t priced = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (!(dpw[i] > 0.0)) continue;  // non-fitting die: scalar path throws
        ++priced;
        const wafer::DieCostBreakdown oracle = model.evaluate(areas[i]);
        const double oracle_raw =
            oracle.raw_cost_usd + (bump + test) * areas[i];
        ASSERT_TRUE(same_bits(oracle_raw, raw[i]))
            << "die_raw_cost, area=" << bits_of(areas[i])
            << " oracle=" << bits_of(oracle_raw) << " kernel=" << bits_of(raw[i]);
    }
    ASSERT_GT(priced, n / 2) << "generator degenerated: most dies do not fit";
}

// ---- layer 2: the whole batch path vs single-system evaluate ------------------

TEST(KernelScalarOracle, EvaluateBatchMatchesScalarEvaluate) {
    const core::ChipletActuary actuary;
    std::vector<design::System> systems;
    for (const char* packaging : {"MCM", "InFO", "2.5D"}) {
        for (unsigned k : {1u, 2u, 3u, 5u}) {
            systems.push_back(core::split_system(
                std::string(packaging) + std::to_string(k), "7nm", packaging,
                600.0, k, 0.10, 5e5));
        }
    }
    systems.push_back(core::monolithic_soc("soc", "7nm", 600.0, 5e5));
    systems.push_back(core::monolithic_soc("soc5", "5nm", 150.0, 2e6));

    // Scalar oracle: the single-system entry point (never touches a
    // DieBatch or a kernel-priced die).
    std::vector<core::SystemCost> oracle;
    oracle.reserve(systems.size());
    for (const design::System& s : systems) oracle.push_back(actuary.evaluate(s));

    const std::vector<core::SystemCost> batch = actuary.evaluate_batch(systems);
    ASSERT_EQ(batch.size(), oracle.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const auto check = [&](const char* field, double want, double got) {
            EXPECT_TRUE(same_bits(want, got))
                << systems[i].name() << " ." << field << ": scalar "
                << bits_of(want) << " vs batch " << bits_of(got);
        };
        check("re.raw_chips", oracle[i].re.raw_chips, batch[i].re.raw_chips);
        check("re.chip_defects", oracle[i].re.chip_defects,
              batch[i].re.chip_defects);
        check("re.raw_package", oracle[i].re.raw_package,
              batch[i].re.raw_package);
        check("re.package_defects", oracle[i].re.package_defects,
              batch[i].re.package_defects);
        check("re.wasted_kgd", oracle[i].re.wasted_kgd, batch[i].re.wasted_kgd);
        check("nre.total", oracle[i].nre.total(), batch[i].nre.total());
        check("package_design_area", oracle[i].package_design_area_mm2,
              batch[i].package_design_area_mm2);
        check("interposer_area", oracle[i].interposer_area_mm2,
              batch[i].interposer_area_mm2);
    }
}

}  // namespace
}  // namespace chiplet::kernels
