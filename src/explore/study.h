// The unified Study API: one declarative request/response pair over the
// whole exploration layer.  A StudySpec is a tagged union carrying one
// of the ten per-study configs plus a shared header (name, optional
// tech-library overrides); a StudyResult is an envelope holding the
// typed result, run metadata, and a uniform tabular view any renderer
// can consume.  JSON round-trip lives in explore/study_json.h; this
// header is the in-memory surface:
//
//   explore::StudySpec spec;
//   spec.name = "decide_400mm2";
//   spec.config = explore::DecisionQuery{.node = "7nm"};
//   explore::StudyResult result = explore::run_study(actuary, spec);
//   std::cout << result.table.columns.size() << " columns, "
//             << result.table.rows.size() << " rows\n";
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "core/actuary.h"
#include "explore/breakeven.h"
#include "explore/design_space.h"
#include "explore/montecarlo.h"
#include "explore/optimizer.h"
#include "explore/pareto.h"
#include "explore/sensitivity.h"
#include "explore/sweep.h"
#include "explore/timeline.h"
#include "util/json.h"

namespace chiplet::explore {

/// One tag per exploration engine; names match the JSON "kind" strings.
enum class StudyKind {
    re_sweep,
    quantity_sweep,
    monte_carlo,
    sensitivity,
    tornado,
    breakeven,
    pareto,
    recommend,
    timeline,
    design_space,
};

[[nodiscard]] std::string to_string(StudyKind kind);

/// Throws ParseError for unknown kind strings.
[[nodiscard]] StudyKind study_kind_from_string(const std::string& s);

/// Tagged union of the per-study configs.  Alternative order matches
/// StudyKind, so kind() is the variant index.
using StudyConfig =
    std::variant<ReSweepConfig,          // re_sweep
                 QuantitySweepConfig,    // quantity_sweep
                 McStudyConfig,          // monte_carlo
                 SensitivityStudyConfig, // sensitivity
                 TornadoStudyConfig,     // tornado
                 BreakevenQuery,         // breakeven
                 ParetoConfig,           // pareto
                 DecisionQuery,          // recommend
                 TimelineStudyConfig,    // timeline
                 DesignSpaceConfig>;     // design_space

/// Declarative study request: header + per-kind config.
struct StudySpec {
    std::string name;          ///< label carried into results and reports
    JsonValue tech_overrides;  ///< partial tech document ({"nodes": [...],
                               ///< "packaging": [...]}) merged onto the
                               ///< actuary's library before the run;
                               ///< null = none
    /// Attach itemised cost ledgers (core/cost_ledger.h) to the result:
    /// the study's representative systems are re-evaluated through the
    /// explain entry points and StudyResult::ledgers is filled.  Off by
    /// default — the flag is serialised only when set, so the canonical
    /// spec JSON (and therefore spec_hash) of existing studies is
    /// byte-identical to before the ledger existed.
    bool explain = false;
    StudyConfig config;

    [[nodiscard]] StudyKind kind() const {
        return static_cast<StudyKind>(config.index());
    }
};

/// Tagged union of the typed results; alternative order matches StudyKind.
using StudyPayload =
    std::variant<std::vector<ReSweepPoint>,        // re_sweep
                 std::vector<QuantitySweepPoint>,  // quantity_sweep
                 McStudyOutcome,                   // monte_carlo
                 std::vector<SensitivityEntry>,    // sensitivity
                 std::vector<TornadoEntry>,        // tornado
                 Breakeven,                        // breakeven
                 std::vector<ParetoPoint>,         // pareto
                 Recommendation,                   // recommend
                 TimelineOutcome,                  // timeline
                 DesignSpaceResult>;               // design_space

/// Run metadata.  Wall time and the counters below are measurement,
/// not model output: they vary run to run and are excluded from the
/// bit-identical guarantee (and from golden-file comparisons).
struct StudyRunInfo {
    double wall_seconds = 0.0;
    unsigned threads = 0;  ///< global pool size during the run
    /// True when the whole result was served from a StudyCache
    /// (explore/study_cache.h) instead of being evaluated; the payload
    /// and table are still bit-identical to a fresh run_study.
    bool from_cache = false;
    /// True when this result carries itemised cost ledgers
    /// (StudySpec::explain was set and the kind produced at least one).
    bool with_ledgers = false;
    /// Batch cell-memo counters (explore/study_graph.h): single-system
    /// evaluations this study's engine asked for that were served from
    /// the compiled batch's shared cell store (`cell_hits`) versus
    /// priced by the engine itself (`cell_misses`).  Both stay zero for
    /// studies run outside a compiled batch or whose kind the compiler
    /// does not enumerate.
    std::uint64_t cell_hits = 0;
    std::uint64_t cell_misses = 0;
    /// True when this result was copied from a byte-identical spec
    /// earlier in the same batch instead of being evaluated again.
    bool from_batch_dedup = false;
};

/// Uniform tabular view: every study kind flattens into columns + rows
/// of formatted cells, so one renderer handles all of them.
struct StudyTable {
    std::vector<std::string> columns;
    std::vector<std::vector<std::string>> rows;
};

/// One labelled cost ledger attached to a study result — the itemised
/// provenance of a representative system the study evaluated (the base
/// scenario, the break-even pair, the winning candidate, ...).
struct StudyLedger {
    std::string label;
    core::CostLedger ledger;
};

/// Response envelope: typed payload + metadata + tabular view.
struct StudyResult {
    std::string name;
    StudyKind kind = StudyKind::re_sweep;
    StudyPayload payload;
    StudyRunInfo run;
    StudyTable table;
    /// Itemised cost-term provenance; empty unless the spec set
    /// `explain`.  Which systems are itemised is kind-specific — see
    /// docs/studies.md#explain.
    std::vector<StudyLedger> ledgers;
};

/// Runs one study: applies the spec's tech overrides to a copy of the
/// actuary's library when present, dispatches to the engine for the
/// spec's kind, and assembles the envelope.  The typed payload is
/// bit-identical to calling the engine directly with the same inputs.
[[nodiscard]] StudyResult run_study(const core::ChipletActuary& actuary,
                                    const StudySpec& spec);

/// run_study with the spec's tech overrides *already applied*:
/// `effective` must be the actuary the spec should be priced on.  This
/// is the reduction step of the study compiler (explore/study_graph.h),
/// which patches one actuary per tech-override group and runs every
/// member study on it; calling it with an unpatched actuary while the
/// spec carries overrides silently prices the wrong library.
[[nodiscard]] StudyResult run_study_on(const core::ChipletActuary& effective,
                                       const StudySpec& spec);

/// Runs a batch; result slot i belongs to spec i, and every payload is
/// bit-identical to a serial run_study loop regardless of pool size.
/// Batches with at least as many studies as pool workers fan out across
/// studies; smaller batches run studies in sequence so the engines'
/// inner loops keep the pool busy instead.
[[nodiscard]] std::vector<StudyResult> run_studies(
    const core::ChipletActuary& actuary, std::span<const StudySpec> specs);

class StudyCache;  // explore/study_cache.h
class CellStore;   // explore/cell_store.h

/// One study that could not be loaded or evaluated.  `index` is the
/// position in whatever batch the caller submitted (callers that
/// filtered a document before running remap it to the document index).
struct StudyFailure {
    std::size_t index = 0;
    std::string name;     ///< study name when known, else a JSON path
    std::string stage;    ///< "parse" (malformed spec/tech) or "model"
    std::string message;
};

/// Whole-batch accounting of the study compiler
/// (explore/study_graph.h): how much evaluation work the compiled
/// execution graph shared across the batch's studies.
struct StudyGraphStats {
    std::size_t studies = 0;      ///< specs submitted to the compiler
    std::size_t spec_dedups = 0;  ///< byte-identical specs served as copies
    std::size_t tech_groups = 0;  ///< distinct tech-override documents
    std::uint64_t cell_refs = 0;     ///< cell references enumerated
    std::uint64_t unique_cells = 0;  ///< distinct cells after interning
    std::uint64_t deduped_cells = 0; ///< cell_refs - unique_cells
    /// Cross-study memoisation (explore/cell_store.h): of the batch's
    /// unique cells, how many an earlier batch had already priced
    /// (store_hits) versus evaluated here (store_misses).  Both stay
    /// zero when no CellStore is attached.
    std::uint64_t store_hits = 0;
    std::uint64_t store_misses = 0;

    /// Fraction of enumerated cell references that another study (or an
    /// earlier reference in the same study) had already interned.
    [[nodiscard]] double dedup_ratio() const {
        return cell_refs > 0 ? static_cast<double>(deduped_cells) /
                                   static_cast<double>(cell_refs)
                             : 0.0;
    }

    /// Fraction of this batch's unique cells served by the cross-study
    /// store instead of evaluation.
    [[nodiscard]] double store_hit_rate() const {
        const double total = static_cast<double>(store_hits) +
                             static_cast<double>(store_misses);
        return total > 0.0 ? static_cast<double>(store_hits) / total : 0.0;
    }
};

/// Batch outcome when failures are collected instead of thrown.
/// `results[i]` holds the study at spec index `indices[i]`; failures are
/// ordered by index, so every spec appears in exactly one of the two.
struct StudyBatchOutcome {
    std::vector<StudyResult> results;
    std::vector<std::size_t> indices;
    std::vector<StudyFailure> failures;
    /// Compiler accounting for the batch (explore/study_graph.h).
    StudyGraphStats graph;
};

/// run_studies that records per-study errors instead of rethrowing the
/// first one: a batch with bad studies still evaluates every good one.
/// ParseError (bad tech override) reports stage "parse"; every other
/// chiplet::Error reports stage "model".  With a cache, hits skip
/// evaluation and are flagged via StudyRunInfo::from_cache; with a
/// cell store, cells priced by earlier batches prefill the compiled
/// graph (StudyGraphStats::store_hits).  Payloads stay bit-identical
/// to a serial cacheless run either way.
[[nodiscard]] StudyBatchOutcome run_studies_collecting(
    const core::ChipletActuary& actuary, std::span<const StudySpec> specs,
    StudyCache* cache = nullptr, CellStore* cell_store = nullptr);

/// Combines loader-stage and run-stage failures into one document-order
/// report: every run failure's batch index is remapped through
/// `kept_indices` (the loader's batch-position → document-position map)
/// and the merged list is sorted by index.  Shared by actuary_cli and
/// the serving layer so both surfaces report identically.
[[nodiscard]] std::vector<StudyFailure> merge_failures(
    std::vector<StudyFailure> parse_failures,
    std::vector<StudyFailure> run_failures,
    std::span<const std::size_t> kept_indices);

}  // namespace chiplet::explore
