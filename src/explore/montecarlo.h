// Monte-Carlo propagation of parameter uncertainty through the cost
// model.  Calibration inputs (defect densities, wafer prices, bonding
// yields) are estimates; this answers "how robust is the winner?"
// rather than "what is the point cost".
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "core/actuary.h"
#include "explore/rng.h"
#include "explore/scenario_spec.h"

namespace chiplet::explore {

/// Mutates a copy of the technology library for one Monte-Carlo draw.
/// Draws run concurrently on the global thread pool, so a sampler must
/// be re-entrant: it may only touch the library and RNG it is handed
/// (the default sampler qualifies).
using LibrarySampler = std::function<void(tech::TechLibrary&, Rng&)>;

/// Summary statistics over per-unit total cost samples.
struct McResult {
    std::vector<double> samples;
    double mean = 0.0;
    double stddev = 0.0;
    double p05 = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
};

/// The default uncertainty model for one node + packaging: triangular
/// defect density (+/- `spread` relative), triangular wafer price
/// (+/- spread/2), bond yields jittered within [1 - (1-y)*2, 1] (i.e.
/// the *loss* halves or doubles).
[[nodiscard]] LibrarySampler default_sampler(const std::string& node,
                                             const std::string& packaging,
                                             double spread = 0.3);

/// Runs `n` draws evaluating the per-unit total cost of `system` on the
/// global thread pool.  Draw i uses RNG stream (seed, i), so the sample
/// vector is bit-identical for any pool size, including serial.
[[nodiscard]] McResult monte_carlo(const core::ChipletActuary& actuary,
                                   const design::System& system,
                                   const LibrarySampler& sampler, unsigned n,
                                   std::uint64_t seed = 42);

/// Fraction of draws in which `a` is strictly cheaper than `b`
/// (both evaluated under the same draw).  0.5 means a coin flip.
[[nodiscard]] double win_rate(const core::ChipletActuary& actuary,
                              const design::System& a, const design::System& b,
                              const LibrarySampler& sampler, unsigned n,
                              std::uint64_t seed = 42);

/// Declarative Monte-Carlo request: uncertainty of one scenario under
/// the default sampler, optionally racing a second scenario (win rate).
struct McStudyConfig {
    ScenarioSpec scenario;
    std::optional<ScenarioSpec> compare;  ///< win_rate vs this when set
    double spread = 0.3;                  ///< default_sampler spread
    unsigned draws = 1000;
    std::uint64_t seed = 42;
};

struct McStudyOutcome {
    McResult mc;              ///< statistics of `scenario`
    bool has_compare = false;
    double win_rate = 0.0;    ///< P(scenario cheaper than compare)
};

/// Runs the declarative form: builds both systems against the actuary's
/// library, samples with default_sampler(scenario.node,
/// scenario.packaging, spread).  With `compare` set, one pass prices
/// both systems under each draw, and the samples and the win rate come
/// from the same draws.  Bit-identical to the typed calls with the same
/// inputs.
[[nodiscard]] McStudyOutcome run_monte_carlo(const core::ChipletActuary& actuary,
                                             const McStudyConfig& config);

}  // namespace chiplet::explore
