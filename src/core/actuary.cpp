#include "core/actuary.h"

#include <iterator>
#include <utility>

#include "kernels/die_batch.h"
#include "kernels/kernels.h"
#include "util/thread_pool.h"

namespace chiplet::core {

ChipletActuary::ChipletActuary()
    : ChipletActuary(tech::TechLibrary::builtin()) {}

ChipletActuary::ChipletActuary(tech::TechLibrary lib, Assumptions assumptions)
    : lib_(std::move(lib)), assumptions_(std::move(assumptions)) {}

SystemCost ChipletActuary::evaluate(const design::System& system) const {
    if (memo_ != nullptr) {
        SystemCost memoised;
        if (memo_->lookup(system, /*re_only=*/false, memoised)) return memoised;
    }
    design::SystemFamily family;
    family.add(system);
    return evaluate(family).systems.front();
}

SystemCost ChipletActuary::evaluate_re_only(const design::System& system) const {
    if (memo_ != nullptr) {
        SystemCost memoised;
        if (memo_->lookup(system, /*re_only=*/true, memoised)) return memoised;
    }
    const ReModel re(lib_, assumptions_);
    return re.evaluate(system);
}

SystemCost ChipletActuary::explain(const design::System& system) const {
    design::SystemFamily family;
    family.add(system);
    return explain(family).systems.front();
}

FamilyCost ChipletActuary::explain(const design::SystemFamily& family) const {
    return evaluate_family(family, /*with_ledger=*/true);
}

SystemCost ChipletActuary::explain_re_only(const design::System& system) const {
    const ReModel re(lib_, assumptions_);
    return re.evaluate(system, 0.0, /*with_ledger=*/true);
}

std::vector<SystemCost> ChipletActuary::evaluate_batch(
    std::span<const design::System> systems) const {
    return evaluate_batch_impl(systems, /*re_only=*/false, nullptr);
}

std::vector<SystemCost> ChipletActuary::evaluate_batch(
    std::span<const design::System> systems, BatchStats& stats) const {
    return evaluate_batch_impl(systems, /*re_only=*/false, &stats);
}

std::vector<SystemCost> ChipletActuary::evaluate_re_only_batch(
    std::span<const design::System> systems) const {
    return evaluate_batch_impl(systems, /*re_only=*/true, nullptr);
}

std::vector<SystemCost> ChipletActuary::evaluate_re_only_batch(
    std::span<const design::System> systems, BatchStats& stats) const {
    return evaluate_batch_impl(systems, /*re_only=*/true, &stats);
}

void ChipletActuary::register_system_dies(const design::System& system,
                                          kernels::DieBatch& batch) const {
    for (const design::ChipPlacement& placement : system.placements()) {
        const tech::ProcessNode& node = lib_.node(placement.chip.node());
        batch.add(node, placement.chip.area(lib_));
    }
    const tech::PackagingTech& pkg = lib_.packaging(system.packaging());
    if (pkg.has_interposer()) {
        const tech::ProcessNode& inode = lib_.node(pkg.interposer_node);
        // The exact interposer area ReModel::evaluate computes for a
        // one-member family: the package is sized for this very system.
        batch.add(inode, pkg.interposer_area_factor *
                             package_sizing_area(system, lib_));
    }
}

std::vector<SystemCost> ChipletActuary::evaluate_batch_impl(
    std::span<const design::System> systems, bool re_only,
    BatchStats* stats) const {
    const std::size_t n = systems.size();

    // Memo pre-pass: exactly one lookup per system, like the scalar
    // entry points perform.
    std::vector<SystemCost> memoised;
    std::vector<char> has_memo;
    if (memo_ != nullptr) {
        memoised.resize(n);
        has_memo.assign(n, 0);
        for (std::size_t i = 0; i < n; ++i) {
            if (memo_->lookup(systems[i], re_only, memoised[i])) {
                has_memo[i] = 1;
            }
        }
    }

    // Lowering pre-pass: collect every die the batch will price.  A
    // malformed system (unknown node, bad packaging) is skipped here —
    // the assembly pass below raises the canonical error from the
    // scalar path, at the same call site a serial loop would.
    kernels::DieBatch batch(assumptions_.yield_model);
    for (std::size_t i = 0; i < n; ++i) {
        if (!has_memo.empty() && has_memo[i]) continue;
        try {
            register_system_dies(systems[i], batch);
        } catch (...) {
        }
    }
    batch.evaluate();

    // Assembly: per-system SystemCost construction, consuming the
    // pre-priced dies.  Slot i belongs to input i; parallel_map
    // rethrows the lowest-index exception, matching a serial loop.
    auto out = util::ThreadPool::global().parallel_map<SystemCost>(
        n, [&](std::size_t i) {
            if (!has_memo.empty() && has_memo[i]) {
                return std::move(memoised[i]);
            }
            if (re_only) {
                const ReModel re(lib_, assumptions_, &batch);
                return re.evaluate(systems[i]);
            }
            design::SystemFamily family;
            family.add(systems[i]);
            return evaluate_family(family, /*with_ledger=*/false, &batch)
                .systems.front();
        });

    if (stats != nullptr) {
        const kernels::DieBatch::Stats s = batch.stats();
        stats->tech_setups = s.tech_setups;
        stats->unique_die_queries = s.unique_queries;
        stats->kernel_hits = s.hits;
        stats->scalar_fallbacks = s.fallbacks;
    }
    return out;
}

void ChipletActuary::evaluate_batch_isolated(
    std::span<const design::System> systems, bool re_only,
    std::vector<SystemCost>& costs, std::vector<char>& filled) const {
    const std::size_t n = systems.size();
    costs.resize(n);
    filled.assign(n, 0);

    kernels::DieBatch batch(assumptions_.yield_model);
    for (const design::System& system : systems) {
        try {
            register_system_dies(system, batch);
        } catch (...) {
        }
    }
    batch.evaluate();

    util::ThreadPool::global().parallel_for(n, [&](std::size_t i) {
        try {
            if (memo_ != nullptr &&
                memo_->lookup(systems[i], re_only, costs[i])) {
                filled[i] = 1;
                return;
            }
            if (re_only) {
                const ReModel re(lib_, assumptions_, &batch);
                costs[i] = re.evaluate(systems[i]);
            } else {
                design::SystemFamily family;
                family.add(systems[i]);
                costs[i] = evaluate_family(family, /*with_ledger=*/false, &batch)
                               .systems.front();
            }
            filled[i] = 1;
        } catch (...) {
            // leave unfilled; the owner re-evaluates and surfaces the
            // engine's own error
        }
    });
}

FamilyCost ChipletActuary::evaluate(const design::SystemFamily& family) const {
    return evaluate_family(family, /*with_ledger=*/false);
}

FamilyCost ChipletActuary::evaluate_family(
    const design::SystemFamily& family, bool with_ledger,
    const kernels::DieBatch* die_batch) const {
    const ReModel re(lib_, assumptions_, die_batch);
    const NreModel nre(lib_, assumptions_);

    NreResult nre_result = nre.evaluate(family, with_ledger);

    FamilyCost out;
    out.nre_modules_total = nre_result.modules_total;
    out.nre_chips_total = nre_result.chips_total;
    out.nre_packages_total = nre_result.packages_total;
    out.nre_d2d_total = nre_result.d2d_total;

    const auto& systems = family.systems();
    // Package sizing: shared package designs are sized by their largest
    // member, which needs the string-keyed map.  The one-member family —
    // the shape batch exploration evaluates hundreds of thousands of
    // times — sizes its own package, so the map (two allocations plus
    // string hashing per evaluation) is skipped entirely.
    std::map<std::string, double> design_areas;
    if (systems.size() > 1) {
        design_areas = resolve_package_design_areas(family, lib_);
    }
    out.systems.reserve(systems.size());
    for (std::size_t i = 0; i < systems.size(); ++i) {
        const double design_area =
            systems.size() == 1
                ? package_sizing_area(systems[i], lib_)
                : design_areas.at(systems[i].package_design());
        SystemCost cost = re.evaluate(systems[i], design_area, with_ledger);
        cost.nre = nre_result.per_system[i];
        if (with_ledger) {
            // RE terms first (pricing order), then the amortised NRE
            // share of this system's designs.
            CostLedger& nre_ledger = nre_result.per_system_ledgers[i];
            cost.ledger.terms.insert(
                cost.ledger.terms.end(),
                std::make_move_iterator(nre_ledger.terms.begin()),
                std::make_move_iterator(nre_ledger.terms.end()));
        }
        out.systems.push_back(std::move(cost));
    }
    return out;
}

}  // namespace chiplet::core
