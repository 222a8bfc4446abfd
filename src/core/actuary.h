// ChipletActuary — the library facade.  Owns a technology library and a
// set of model assumptions; evaluates systems and system families into
// full RE + amortised-NRE cost pictures.
//
//   using namespace chiplet;
//   core::ChipletActuary actuary;                  // built-in catalogue
//   auto soc = core::monolithic_soc("big", "5nm", 800.0, 500'000);
//   core::SystemCost cost = actuary.evaluate(soc);
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/cost_result.h"
#include "core/nre_model.h"
#include "core/re_model.h"
#include "design/system.h"
#include "tech/tech_library.h"

namespace chiplet::kernels {
class DieBatch;
}  // namespace chiplet::kernels

namespace chiplet::core {

/// Read-only memo of single-system evaluations, consulted by the
/// evaluate entry points before pricing.  A memo entry must hold the
/// exact SystemCost that evaluating `system` on this actuary would
/// produce (the study-graph compiler fills it through these very entry
/// points), so a hit is bit-identical to a fresh evaluation.  The
/// explain paths never consult it: memoised results carry no ledger.
class EvalMemo {
public:
    virtual ~EvalMemo() = default;

    /// Returns true and fills `out` when (system, re_only) is memoised.
    [[nodiscard]] virtual bool lookup(const design::System& system,
                                      bool re_only,
                                      SystemCost& out) const = 0;
};

/// Facade tying the tech library, RE engine and NRE engine together.
class ChipletActuary {
public:
    /// Uses the built-in technology catalogue and default assumptions.
    ChipletActuary();
    explicit ChipletActuary(tech::TechLibrary lib, Assumptions assumptions = {});

    /// Mutable access for calibration (defect densities, D2D fractions,
    /// packaging flow, yield model...).
    [[nodiscard]] tech::TechLibrary& library() { return lib_; }
    [[nodiscard]] const tech::TechLibrary& library() const { return lib_; }
    [[nodiscard]] Assumptions& assumptions() { return assumptions_; }
    [[nodiscard]] const Assumptions& assumptions() const { return assumptions_; }

    /// Evaluates a single system as its own one-member family (no reuse).
    [[nodiscard]] SystemCost evaluate(const design::System& system) const;

    /// Evaluates a family: NRE is shared by design identity, package RE
    /// is sized by the largest member of each shared package design.
    [[nodiscard]] FamilyCost evaluate(const design::SystemFamily& family) const;

    /// Per-unit RE cost only (no NRE), convenient for Fig. 4-style
    /// manufacturing studies.
    [[nodiscard]] SystemCost evaluate_re_only(const design::System& system) const;

    /// Explain entry points: identical numbers to the evaluate()
    /// overloads, but every SystemCost additionally carries the itemised
    /// CostLedger (core/cost_ledger.h) whose folds reproduce the
    /// breakdowns bit for bit.  Ledger emission is kept off the
    /// evaluate() hot paths, so batch exploration pays nothing for it.
    [[nodiscard]] SystemCost explain(const design::System& system) const;
    [[nodiscard]] FamilyCost explain(const design::SystemFamily& family) const;
    [[nodiscard]] SystemCost explain_re_only(const design::System& system) const;

    /// Counters of one batch evaluation's die-pricing pre-pass; the
    /// hoisting regression test pins tech_setups to the number of
    /// distinct process technologies, not candidates.
    struct BatchStats {
        std::uint64_t tech_setups = 0;        ///< per-(tech, batch) setups
        std::uint64_t unique_die_queries = 0; ///< deduped (node, area) pairs
        std::uint64_t kernel_hits = 0;        ///< die prices served by kernels
        std::uint64_t scalar_fallbacks = 0;   ///< die prices left to the scalar path
    };

    /// Batch entry points: evaluate many independent systems on the
    /// process-wide thread pool (util::ThreadPool::global()).  Each
    /// system is its own one-member family, exactly like the scalar
    /// overloads; result slot i belongs to input i, so the output is
    /// bit-identical to a serial loop regardless of scheduling.
    ///
    /// Implementation: a lowering pre-pass collects every (process node,
    /// die area) the batch will price into a kernels::DieBatch — one
    /// model setup per technology — prices it with the batch kernels
    /// (src/kernels/), then assembles the SystemCosts
    /// consuming the pre-priced dies.  Kernel results are bit-identical
    /// to the scalar engine by policy, so this is purely a speedup.
    [[nodiscard]] std::vector<SystemCost> evaluate_batch(
        std::span<const design::System> systems) const;
    [[nodiscard]] std::vector<SystemCost> evaluate_batch(
        std::span<const design::System> systems, BatchStats& stats) const;
    [[nodiscard]] std::vector<SystemCost> evaluate_re_only_batch(
        std::span<const design::System> systems) const;
    [[nodiscard]] std::vector<SystemCost> evaluate_re_only_batch(
        std::span<const design::System> systems, BatchStats& stats) const;

    /// Fault-isolated batch: like the overloads above, but a system
    /// whose evaluation throws leaves filled[i] == 0 instead of
    /// aborting the batch (the cell table's tolerance contract).
    /// `costs` and `filled` are resized to systems.size().
    void evaluate_batch_isolated(std::span<const design::System> systems,
                                 bool re_only, std::vector<SystemCost>& costs,
                                 std::vector<char>& filled) const;

    /// Attaches (or, with nullptr, detaches) a non-owning evaluation
    /// memo.  Single-system evaluate/evaluate_re_only calls — and
    /// therefore the batch entry points, which go through them — return
    /// memoised results when the memo holds the cell; misses evaluate
    /// as usual.  The caller keeps `memo` alive while attached.
    void set_eval_memo(const EvalMemo* memo) { memo_ = memo; }

private:
    [[nodiscard]] FamilyCost evaluate_family(
        const design::SystemFamily& family, bool with_ledger,
        const kernels::DieBatch* die_batch = nullptr) const;

    /// Registers every die the RE evaluation of `system` will price
    /// (placements, plus the interposer die where the packaging has
    /// one) with bit-identical areas.
    void register_system_dies(const design::System& system,
                              kernels::DieBatch& batch) const;

    [[nodiscard]] std::vector<SystemCost> evaluate_batch_impl(
        std::span<const design::System> systems, bool re_only,
        BatchStats* stats) const;

    tech::TechLibrary lib_;
    Assumptions assumptions_;
    const EvalMemo* memo_ = nullptr;  ///< non-owning; see set_eval_memo
};

}  // namespace chiplet::core
