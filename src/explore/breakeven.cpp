#include "explore/breakeven.h"

#include <cmath>
#include <utility>

#include "core/scenarios.h"
#include "util/error.h"

namespace chiplet::explore {

double solve_bisection(const std::function<double(double)>& f, double lo,
                       double hi, double tolerance, unsigned max_iterations) {
    CHIPLET_EXPECTS(lo < hi, "bisection needs lo < hi");
    double flo = f(lo);
    const double fhi = f(hi);
    CHIPLET_EXPECTS(flo == 0.0 || fhi == 0.0 || (flo < 0.0) != (fhi < 0.0),
                    "bisection needs a sign change on [lo, hi]");
    if (flo == 0.0) return lo;
    if (fhi == 0.0) return hi;
    for (unsigned i = 0; i < max_iterations && (hi - lo) > tolerance; ++i) {
        const double mid = 0.5 * (lo + hi);
        const double fmid = f(mid);
        if (fmid == 0.0) return mid;
        if ((fmid < 0.0) == (flo < 0.0)) {
            lo = mid;
            flo = fmid;
        } else {
            hi = mid;
        }
    }
    return 0.5 * (lo + hi);
}

namespace {

double total_cost(const core::ChipletActuary& actuary, const std::string& node,
                  double module_area_mm2, unsigned chiplets,
                  const std::string& packaging, double d2d_fraction,
                  double quantity) {
    return actuary
        .evaluate(breakeven_candidate_system(node, packaging, module_area_mm2,
                                             chiplets, d2d_fraction, quantity))
        .total_per_unit();
}

}  // namespace

Breakeven breakeven_quantity(const core::ChipletActuary& actuary,
                             const std::string& node, double module_area_mm2,
                             unsigned chiplets, const std::string& packaging,
                             double d2d_fraction, double qty_lo, double qty_hi) {
    CHIPLET_EXPECTS(qty_lo > 0.0 && qty_lo < qty_hi, "invalid quantity range");
    const auto costs_at = [&](double q) {
        const double soc =
            total_cost(actuary, node, module_area_mm2, 1, "SoC", d2d_fraction, q);
        return std::pair{soc, total_cost(actuary, node, module_area_mm2, chiplets,
                                         packaging, d2d_fraction, q)};
    };
    const auto diff = [&](double log_q) {
        const auto [soc, alt] = costs_at(std::exp(log_q));
        return alt - soc;
    };
    Breakeven out;
    const double lo = std::log(qty_lo);
    const double hi = std::log(qty_hi);
    const double dlo = diff(lo);
    const double dhi = diff(hi);
    if (dlo == 0.0 || dhi == 0.0 || (dlo < 0.0) != (dhi < 0.0)) {
        // Search in log space: amortised NRE is monotone in quantity, so
        // at most one crossover exists in the range.
        const double log_q = solve_bisection(diff, lo, hi, 1e-9);
        out.found = true;
        out.value = std::exp(log_q);
        const auto [soc, alt] = costs_at(out.value);
        out.soc_cost = soc;
        out.alt_cost = alt;
    }
    return out;
}

design::System breakeven_candidate_system(const std::string& node,
                                          const std::string& packaging,
                                          double module_area_mm2,
                                          unsigned chiplets,
                                          double d2d_fraction,
                                          double quantity) {
    return chiplets == 1 && packaging == "SoC"
               ? core::monolithic_soc("soc", node, module_area_mm2, quantity)
               : core::split_system("alt", node, packaging, module_area_mm2,
                                    chiplets, d2d_fraction, quantity);
}

Breakeven breakeven_search(const core::ChipletActuary& actuary,
                           const BreakevenQuery& query) {
    if (query.axis == BreakevenQuery::Axis::quantity) {
        const double lo = query.lo > 0.0 ? query.lo : 1e4;
        const double hi = query.hi > 0.0 ? query.hi : 1e9;
        return breakeven_quantity(actuary, query.node, query.module_area_mm2,
                                  query.chiplets, query.packaging,
                                  query.d2d_fraction, lo, hi);
    }
    const double lo = query.lo > 0.0 ? query.lo : 50.0;
    const double hi = query.hi > 0.0 ? query.hi : 900.0;
    return breakeven_area(actuary, query.node, query.chiplets, query.packaging,
                          query.d2d_fraction, lo, hi);
}

Breakeven breakeven_area(const core::ChipletActuary& actuary,
                         const std::string& node, unsigned chiplets,
                         const std::string& packaging, double d2d_fraction,
                         double area_lo, double area_hi) {
    CHIPLET_EXPECTS(area_lo > 0.0 && area_lo < area_hi, "invalid area range");
    const auto re_total = [&](const design::System& system) {
        return actuary.evaluate_re_only(system).re.total();
    };
    const auto costs_at = [&](double area) {
        const double soc = re_total(core::monolithic_soc("soc", node, area, 1e6));
        return std::pair{soc, re_total(core::split_system("alt", node, packaging,
                                                          area, chiplets,
                                                          d2d_fraction, 1e6))};
    };
    const auto diff = [&](double area) {
        const auto [soc, alt] = costs_at(area);
        return alt - soc;
    };
    Breakeven out;
    const double dlo = diff(area_lo);
    const double dhi = diff(area_hi);
    if (dlo == 0.0 || dhi == 0.0 || (dlo < 0.0) != (dhi < 0.0)) {
        out.found = true;
        out.value = solve_bisection(diff, area_lo, area_hi, 1e-3);
        const auto [soc, alt] = costs_at(out.value);
        out.soc_cost = soc;
        out.alt_cost = alt;
    }
    return out;
}

}  // namespace chiplet::explore
