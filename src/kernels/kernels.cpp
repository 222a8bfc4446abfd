// The batch kernels: plain loops over per-element steps, each a literal
// transcription of the scalar engine's expression (see the policy in
// kernels.h).
#include "kernels/kernels.h"

#include <cmath>
#include <numbers>

#include "util/error.h"
#include "yield/models.h"

namespace chiplet::kernels {

namespace {

/// wafer::dpw_classical with the geometry constants hoisted:
/// c_area = (pi * r) * r and c_edge = (pi * 2.0) * r, the exact partial
/// products of the reference expression.
double dpw_classical_step(double c_area, double c_edge, double scribe_width_mm,
                          double die_area_mm2) {
    const double side = std::sqrt(die_area_mm2);
    const double grown = side + scribe_width_mm;
    const double footprint = grown * grown;
    const double area_term = c_area / footprint;
    const double edge_term = c_edge / std::sqrt(2.0 * footprint);
    const double diff = area_term - edge_term;
    // std::max(0.0, diff): +0.0 for NaN or non-positive diff.
    return 0.0 < diff ? diff : 0.0;
}

/// The five yield formulas of yield/models.cpp, from expected defects.
double yield_step(YieldKind kind, double param, double defects) {
    switch (kind) {
        case YieldKind::poisson:
            return std::exp(-defects);
        case YieldKind::seeds_negative_binomial:
            return std::pow(1.0 + defects / param, -param);
        case YieldKind::murphy: {
            if (defects == 0.0) return 1.0;
            const double factor = (1.0 - std::exp(-defects)) / defects;
            return factor * factor;
        }
        case YieldKind::seeds_exponential:
            return 1.0 / (1.0 + defects);
        case YieldKind::bose_einstein:
            return std::pow(1.0 + defects, -param);
    }
    return 1.0;  // unreachable; kinds are exhaustive
}

/// Eq. 3-5 package fold for one candidate; see ReFoldTerms.
double re_fold_step(const ReFoldTerms& t, std::size_t i) {
    // ReModel::evaluate: package_design_area = paf * design_area, then
    // substrate = package_design_area * substrate_cost * layer_factor.
    const double package_area = t.package_area_factor * t.design_area[i];
    const double substrate =
        package_area * t.substrate_cost_per_mm2 * t.substrate_layer_factor;
    const double iraw = t.has_interposer ? t.interposer_raw[i] : 0.0;
    const double raw_package = substrate + iraw + t.bond_and_test;

    double package_defects;
    double kgd_factor;
    if (t.has_interposer) {
        const double y1 = t.interposer_yield[i];
        const double interposer_scrap =
            iraw * (1.0 / (y1 * t.y2n * t.y3) - 1.0);
        const double substrate_scrap = substrate * t.inv_y3_minus_1;
        const double bond_scrap = t.bond_and_test * t.scrap_y2n_y3;
        package_defects = interposer_scrap + substrate_scrap + bond_scrap;
        // Chip-first scraps KGDs on interposer loss too (Eq. 5); with
        // chip-last, y1 drops out and the hoisted factor applies.
        kgd_factor = t.chip_first ? 1.0 / (y1 * t.y2n * t.y3) - 1.0
                                  : t.scrap_y2n_y3;
    } else {
        package_defects = (substrate + t.bond_and_test) * t.scrap_y2n_y3;
        // Without an interposer y1 == 1.0 and 1.0 * y2n is exact, so
        // both flows reduce to the hoisted factor bit for bit.
        kgd_factor = t.scrap_y2n_y3;
    }
    const double wasted_kgd = t.kgd_total[i] * kgd_factor;
    // ReBreakdown::total(): left-to-right term order.
    return t.raw_chips[i] + t.chip_defects[i] + raw_package + package_defects +
           wasted_kgd;
}

}  // namespace

YieldKind yield_kind_from_name(const std::string& name) {
    if (name == "poisson") return YieldKind::poisson;
    if (name == "seeds_negative_binomial")
        return YieldKind::seeds_negative_binomial;
    if (name == "murphy") return YieldKind::murphy;
    if (name == "seeds_exponential") return YieldKind::seeds_exponential;
    if (name == "bose_einstein") return YieldKind::bose_einstein;
    // Unknown name: raise the canonical factory error so batch and
    // scalar paths diagnose identically.
    (void)yield::make_yield_model(name, 1.0);
    throw LookupError("unknown yield model: '" + name + "'");  // unreachable
}

void dpw_classical(double usable_radius_mm, double scribe_width_mm,
                   const double* die_area_mm2, double* dpw, std::size_t n) {
    // Hoisted partial products of wafer::dpw_classical's expression:
    // pi * r * r and pi * 2.0 * r associate left to right.
    const double r = usable_radius_mm;
    const double c_area = std::numbers::pi * r * r;
    const double c_edge = std::numbers::pi * 2.0 * r;
    for (std::size_t i = 0; i < n; ++i) {
        dpw[i] = dpw_classical_step(c_area, c_edge, scribe_width_mm,
                                    die_area_mm2[i]);
    }
}

void expected_defects(double defects_per_cm2, const double* die_area_mm2,
                      double* defects, std::size_t n) {
    constexpr double mm2_per_cm2 = 100.0;
    for (std::size_t i = 0; i < n; ++i) {
        defects[i] = defects_per_cm2 * die_area_mm2[i] / mm2_per_cm2;
    }
}

void yield_from_defects(YieldKind kind, double param, const double* defects,
                        double* yield, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
        yield[i] = yield_step(kind, param, defects[i]);
    }
}

void die_raw_cost(double wafer_price_usd, double extra_per_mm2,
                  const double* die_area_mm2, const double* dpw,
                  double* raw_usd, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
        raw_usd[i] = wafer_price_usd / dpw[i] + extra_per_mm2 * die_area_mm2[i];
    }
}

void scale_add(double scale, const double* a, const double* b, double* out,
               std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
        out[i] = b[i] + scale * a[i];
    }
}

void re_fold(const ReFoldTerms& terms, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
        terms.re_total[i] = re_fold_step(terms, i);
    }
}

}  // namespace chiplet::kernels
