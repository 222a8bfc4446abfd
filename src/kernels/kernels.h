// Structure-of-arrays batch kernels for the hot cost path: dies per
// wafer, the yield integrand (paper Eq. 1), die cost, and the RE fold
// of Eq. 3-5 over contiguous candidate arrays.  The speed comes from
// the layout and from hoisting per-technology setup out of the loops
// (kernels/die_batch.h, the design_space SoA pass), not from
// instruction-set tuning: there is one portable build of each kernel.
//
// Bit-identity policy — every kernel equals its scalar oracle:
//
//   * Each element step is a literal transcription of the scalar
//     engine's expression (wafer::dpw_classical, yield::YieldModel,
//     wafer::DieCostModel, core::ReModel::evaluate): same operations,
//     same association order, the same libm calls.
//   * FMA contraction is off for the whole build (-ffp-contract=off),
//     so a*b+c rounds twice here exactly as it does in the oracle.
//   * Accumulation orders are never reassociated — the RE fold keeps
//     the scalar engine's left-to-right term order, which is what makes
//     kernel results interchangeable with core::ReModel's.
//
// tests/test_kernel_differential.cpp checks each kernel bit for bit
// against its oracle; the design_space kernel-vs-reference tests and
// the batch-vs-evaluate test check the assembled path.
//
// Adding a kernel: declare it here with the oracle it reproduces,
// implement it in kernels.cpp by the rules above, and add an oracle
// case to tests/test_kernel_differential.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace chiplet::kernels {

/// Yield-model dispatch for the batch path; mirrors the registry in
/// yield/models.cpp (yield::make_yield_model) formula for formula.
enum class YieldKind : std::uint8_t {
    poisson,
    seeds_negative_binomial,
    murphy,
    seeds_exponential,
    bose_einstein,
};

/// Maps a yield-model factory name to its kind; unknown names throw the
/// same LookupError yield::make_yield_model raises.
[[nodiscard]] YieldKind yield_kind_from_name(const std::string& name);

/// SoA inputs/outputs of the RE package fold (paper Eq. 3-5) for one
/// group of candidates sharing a packaging technology, die count and
/// assembly flow.  Per-candidate arrays have length n; everything a
/// candidate cannot change is hoisted into group scalars, precomputed
/// with exactly the arithmetic core::ReModel::evaluate performs.
struct ReFoldTerms {
    // ---- per-candidate inputs -------------------------------------------
    const double* raw_chips = nullptr;     ///< sum of econ.raw * count, pricing order
    const double* chip_defects = nullptr;  ///< sum of (kgd - raw) * count
    const double* kgd_total = nullptr;     ///< sum of kgd * count
    const double* design_area = nullptr;   ///< package sizing area (mm^2)
    /// Interposer cost/yield per candidate; both null when the group's
    /// packaging has no interposer (folded as 0.0 / 1.0, exactly like
    /// the scalar engine's defaults).
    const double* interposer_raw = nullptr;
    const double* interposer_yield = nullptr;

    // ---- hoisted group scalars ------------------------------------------
    double package_area_factor = 0.0;
    double substrate_cost_per_mm2 = 0.0;
    double substrate_layer_factor = 0.0;
    double bond_and_test = 0.0;  ///< bond*dies + package test + base
    double y2n = 0.0;            ///< repeated_yield(chip bond yield, bond steps)
    double y3 = 0.0;             ///< substrate bond yield
    /// scrap_factor(y2n*y3), hoisted: the package-defect factor of
    /// direct-attach schemes and the chip-last KGD factor.
    double scrap_y2n_y3 = 0.0;
    double inv_y3_minus_1 = 0.0;  ///< 1/y3 - 1, hoisted substrate scrap factor
    bool has_interposer = false;
    bool chip_first = false;  ///< KGD factor includes y1 (paper Eq. 5)

    // ---- outputs ---------------------------------------------------------
    double* re_total = nullptr;  ///< ReBreakdown::total() per candidate
};

// All arrays below are caller-allocated, may be unaligned, and must not
// alias between inputs and outputs.

/// Classical dies-per-wafer estimator over die areas (mm^2), exact
/// image of wafer::dpw_classical with the wafer geometry hoisted.
void dpw_classical(double usable_radius_mm, double scribe_width_mm,
                   const double* die_area_mm2, double* dpw, std::size_t n);

/// Expected defects per die: D * S / 100 (paper Eq. 1 integrand),
/// exact image of yield::YieldModel::expected_defects.
void expected_defects(double defects_per_cm2, const double* die_area_mm2,
                      double* defects, std::size_t n);

/// Die yield from expected defects, per model kind.  `param` is the
/// clustering parameter (negative binomial) or critical layer count
/// (Bose-Einstein); ignored otherwise.
void yield_from_defects(YieldKind kind, double param, const double* defects,
                        double* yield, std::size_t n);

/// Raw die cost: wafer_price / dpw + extra_per_mm2 * area, where
/// extra_per_mm2 is the hoisted bump + sort-test rate — the exact
/// arithmetic of DieCostModel::evaluate plus core's price_die.
/// Entries with dpw <= 0 (die does not fit) produce unusable values
/// the caller must mask out before use.
void die_raw_cost(double wafer_price_usd, double extra_per_mm2,
                  const double* die_area_mm2, const double* dpw,
                  double* raw_usd, std::size_t n);

/// out = b + scale * a (multiply before add, never contracted) —
/// the second interposer bump side and the TSV cost adjustment.
void scale_add(double scale, const double* a, const double* b, double* out,
               std::size_t n);

/// The RE package fold, Eq. 3-5; see ReFoldTerms.
void re_fold(const ReFoldTerms& terms, std::size_t n);

}  // namespace chiplet::kernels
