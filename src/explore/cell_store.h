// Process-lifetime cross-study cell memoisation.  The study compiler's
// CellTable (explore/cell.h) shares priced cost cells *within* one
// compiled batch and dies with it; this store promotes those cells to
// the process lifetime, so re_sweep and quantity_sweep studies
// arriving in *different* batches — different requests, different
// connections — reuse each other's evaluations.
//
// Keying follows the cell layer's exactness discipline: the slot key
// combines the tech-group hash (FNV of the group's canonical
// tech-override document) with cell_hash(eval, system), and every probe
// verifies the full stored design::System by equality — an FNV
// collision degrades to a miss, never to a wrong cost.  Tech identity
// rides in the tech hash rather than the cell hash because the
// in-batch CellTable deliberately excludes it; one store therefore
// serves one base actuary (the server's), which docs/studies.md spells
// out.
//
// Bounded and thread-safe exactly like StudyCache: sharded, one mutex
// and one LRU list per shard, byte-estimated entries evicted from the
// cold end until the shard is back under max_bytes / shards.
#pragma once

#include <cstdint>
#include <memory>

#include "core/cost_result.h"
#include "design/system.h"
#include "explore/cell.h"

namespace chiplet::explore {

class CellStore {
public:
    struct Config {
        std::size_t max_bytes = 16ull << 20;  ///< total across all shards
        unsigned shards = 8;                  ///< clamped to >= 1
    };

    CellStore();  ///< default Config
    explicit CellStore(Config config);
    ~CellStore();

    CellStore(const CellStore&) = delete;
    CellStore& operator=(const CellStore&) = delete;

    /// Returns true and fills `out` with the stored cost when the cell
    /// is present under `tech_hash` and the stored system equals
    /// `system` (collision-proof).  Counts a hit or miss and refreshes
    /// the entry's LRU position.  `hash` must be cell_hash(eval, system).
    /// Costs are immutable and shared: a hit hands out a reference to
    /// the stored object, never a deep copy, so a warm cell costs a
    /// probe plus a pointer — eviction can't invalidate what was handed
    /// out.
    [[nodiscard]] bool lookup(std::uint64_t tech_hash, CellEval eval,
                              std::uint64_t hash,
                              const design::System& system,
                              std::shared_ptr<const core::SystemCost>& out);

    /// Like lookup but counts nothing and touches no LRU state — the
    /// planning surface (`actuary_cli study --plan`) peeks without
    /// perturbing what it reports on.
    [[nodiscard]] bool peek(std::uint64_t tech_hash, CellEval eval,
                            std::uint64_t hash,
                            const design::System& system) const;

    /// Stores (or refreshes) the priced cell.  Entries larger than a
    /// whole shard's budget are rejected rather than cycling the shard
    /// empty; a slot collision overwrites (newest wins), matching the
    /// study cache.  The shared cost must never be mutated after
    /// insertion — every hit aliases it.
    void insert(std::uint64_t tech_hash, CellEval eval, std::uint64_t hash,
                const design::System& system,
                std::shared_ptr<const core::SystemCost> cost);

    /// Convenience for callers holding a plain value: wraps `cost` into
    /// a shared immutable object and inserts it.
    void insert(std::uint64_t tech_hash, CellEval eval, std::uint64_t hash,
                const design::System& system, core::SystemCost cost);

    struct Stats {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;      ///< includes collisions
        std::uint64_t collisions = 0;  ///< slot matched, system differed
        std::uint64_t insertions = 0;
        std::uint64_t evictions = 0;
        std::uint64_t rejected = 0;
        std::size_t entries = 0;
        std::size_t bytes = 0;

        /// Lifetime cross-study hit rate: the fraction of probed cells
        /// another batch had already priced.
        [[nodiscard]] double hit_rate() const {
            const double total =
                static_cast<double>(hits) + static_cast<double>(misses);
            return total > 0.0 ? static_cast<double>(hits) / total : 0.0;
        }
    };
    [[nodiscard]] Stats stats() const;

    /// Drops every entry (counters keep running).
    void clear();

    [[nodiscard]] std::size_t max_bytes() const;

private:
    struct Impl;
    Impl* impl_;
};

}  // namespace chiplet::explore
