// Per-batch die-pricing context: hoists the per-technology setup that
// core::ReModel::price_die would otherwise repeat per candidate —
// wafer-spec validation, yield-model construction, bump/test rate
// folding — into one setup per (process node, batch), then prices every
// registered (node, area) pair with the SoA kernels in one sweep.
//
// The batch is a pure accelerator over the scalar path: a find() hit
// returns the bit-identical raw cost and yield price_die computes, and
// every case the scalar path diagnoses (die does not fit the wafer,
// invalid node parameters, unknown yield model) is left to it — find()
// just returns nothing and the caller falls back, so error messages
// come from exactly one place.
//
// Thread compatibility matches the phases: add()/evaluate() are
// single-threaded (build once, before fan-out); find() is const and
// safe to call from many threads concurrently.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "kernels/kernels.h"

namespace chiplet::tech {
struct ProcessNode;
}  // namespace chiplet::tech

namespace chiplet::kernels {

/// SoA die-pricing table for one evaluation batch.
class DieBatch {
public:
    /// `yield_model_name` is Assumptions::yield_model; nodes register
    /// lazily on first add().
    explicit DieBatch(std::string yield_model_name);

    DieBatch(const DieBatch&) = delete;
    DieBatch& operator=(const DieBatch&) = delete;

    /// Registers a (node, die area) query; duplicates dedup to one slot.
    /// Never throws: a node whose setup fails records a fallback group
    /// instead (the scalar path owns the diagnostics).
    void add(const tech::ProcessNode& node, double die_area_mm2);

    /// Prices every registered query with the SoA kernels.  Call once,
    /// after the last add().
    void evaluate();

    /// What price_die returns on the scalar path: raw die cost including
    /// the bump + sort-test adders, and die yield.
    struct Priced {
        double raw_usd = 0.0;
        double yield = 1.0;
    };

    /// The batch result for a query, or nullopt when the query is
    /// unknown, its node's setup fell back, the die does not fit, or
    /// evaluate() has not run — the caller must then take the scalar
    /// path (which also raises the canonical errors).
    [[nodiscard]] std::optional<Priced> find(const tech::ProcessNode& node,
                                             double die_area_mm2) const;

    /// Hoisting counters for the batch-setup regression test: setups
    /// must equal distinct technologies, not candidates.
    struct Stats {
        std::uint64_t tech_setups = 0;    ///< per-node setup passes performed
        std::uint64_t unique_queries = 0; ///< deduped (node, area) slots
        std::uint64_t hits = 0;           ///< find() served from the batch
        std::uint64_t fallbacks = 0;      ///< find() deferred to the scalar path
    };
    [[nodiscard]] Stats stats() const;

private:
    struct PerNode {
        const tech::ProcessNode* node = nullptr;
        bool setup_ok = false;  ///< false: every query of this node falls back
        // Hoisted scalar-path inputs (valid when setup_ok).
        double usable_radius_mm = 0.0;
        double scribe_width_mm = 0.0;
        double wafer_price_usd = 0.0;
        double extra_per_mm2 = 0.0;  ///< bump + sort-test rate
        double defects_per_cm2 = 0.0;
        double yield_param = 0.0;
        YieldKind kind = YieldKind::poisson;
        // SoA query slots.
        std::vector<double> area;
        std::vector<double> dpw;
        std::vector<double> defects;
        std::vector<double> yield;
        std::vector<double> raw;
        std::vector<std::uint8_t> usable;  ///< area > 0 and die fits
        std::unordered_map<std::uint64_t, std::uint32_t> slot_by_area_bits;
    };

    PerNode& node_group(const tech::ProcessNode& node);
    [[nodiscard]] const PerNode* find_group(const tech::ProcessNode& node) const;

    std::string yield_model_name_;
    std::vector<PerNode> groups_;  ///< few nodes: linear scan by pointer
    bool evaluated_ = false;
    std::uint64_t tech_setups_ = 0;
    mutable std::atomic<std::uint64_t> hits_{0};
    mutable std::atomic<std::uint64_t> fallbacks_{0};
};

}  // namespace chiplet::kernels
