#include "explore/montecarlo.h"

#include <algorithm>

#include "util/error.h"
#include "util/math.h"
#include "util/thread_pool.h"

namespace chiplet::explore {

LibrarySampler default_sampler(const std::string& node,
                               const std::string& packaging, double spread) {
    CHIPLET_EXPECTS(spread > 0.0 && spread < 1.0, "spread must lie in (0, 1)");
    return [node, packaging, spread](tech::TechLibrary& lib, Rng& rng) {
        const tech::ProcessNode& n = lib.node(node);
        lib.set_defect_density(
            node, rng.triangular(n.defect_density_cm2 * (1.0 - spread),
                                 n.defect_density_cm2,
                                 n.defect_density_cm2 * (1.0 + spread)));
        lib.set_wafer_price(
            node, rng.triangular(n.wafer_price_usd * (1.0 - spread / 2.0),
                                 n.wafer_price_usd,
                                 n.wafer_price_usd * (1.0 + spread / 2.0)));
        tech::PackagingTech t = lib.packaging(packaging);
        const auto jitter_yield = [&rng](double y) {
            const double loss = 1.0 - y;
            return 1.0 - rng.triangular(loss * 0.5, loss, std::min(loss * 2.0, 0.9));
        };
        t.chip_bond_yield = jitter_yield(t.chip_bond_yield);
        if (t.substrate_bond_yield < 1.0) {
            t.substrate_bond_yield = jitter_yield(t.substrate_bond_yield);
        }
        lib.add_packaging(t);
    };
}

namespace {

/// The one per-draw loop.  Draw i takes RNG stream (seed, i) split off
/// the master seed, copies the library once, calls the sampler once and
/// prices `system` and, when given, `rival` under that draw.  Slot i
/// belongs to draw i, so the result is the same whatever the pool size.
McStudyOutcome price_draws(const core::ChipletActuary& actuary,
                           const design::System& system,
                           const design::System* rival,
                           const LibrarySampler& sampler, unsigned n,
                           std::uint64_t seed) {
    CHIPLET_EXPECTS(n > 0, "need at least one draw");
    std::vector<char> won(rival != nullptr ? n : 0);
    McStudyOutcome out;
    McResult& mc = out.mc;
    mc.samples = util::ThreadPool::global().parallel_map<double>(
        n, [&](std::size_t i) {
            Rng rng = Rng::stream(seed, i);
            core::ChipletActuary draw(actuary.library(), actuary.assumptions());
            sampler(draw.library(), rng);
            const double cost = draw.evaluate(system).total_per_unit();
            if (rival != nullptr) {
                won[i] = cost < draw.evaluate(*rival).total_per_unit();
            }
            return cost;
        });
    mc.mean = mean(mc.samples);
    mc.stddev = stddev(mc.samples);
    mc.p05 = percentile(mc.samples, 5.0);
    mc.p50 = percentile(mc.samples, 50.0);
    mc.p95 = percentile(mc.samples, 95.0);
    if (rival != nullptr) {
        out.has_compare = true;
        out.win_rate = static_cast<double>(std::count(won.begin(), won.end(), 1)) /
                       static_cast<double>(n);
    }
    return out;
}

}  // namespace

McResult monte_carlo(const core::ChipletActuary& actuary,
                     const design::System& system, const LibrarySampler& sampler,
                     unsigned n, std::uint64_t seed) {
    return price_draws(actuary, system, nullptr, sampler, n, seed).mc;
}

double win_rate(const core::ChipletActuary& actuary, const design::System& a,
                const design::System& b, const LibrarySampler& sampler,
                unsigned n, std::uint64_t seed) {
    return price_draws(actuary, a, &b, sampler, n, seed).win_rate;
}

McStudyOutcome run_monte_carlo(const core::ChipletActuary& actuary,
                               const McStudyConfig& config) {
    const LibrarySampler sampler = default_sampler(
        config.scenario.node, config.scenario.packaging, config.spread);
    const design::System system =
        config.scenario.build(actuary.library(), "mc");
    std::optional<design::System> rival;
    if (config.compare) {
        rival = config.compare->build(actuary.library(), "mc_compare");
    }
    // One pass: the samples and the win rate come from the same draws.
    return price_draws(actuary, system, rival ? &*rival : nullptr, sampler,
                       config.draws, config.seed);
}

}  // namespace chiplet::explore
