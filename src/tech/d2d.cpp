#include "tech/d2d.h"

#include <cmath>

#include "util/error.h"
#include "util/json.h"

namespace chiplet::tech {

namespace {
void check_inputs(const PackagingTech& tech, double die_area_mm2,
                  double bandwidth_gbps) {
    CHIPLET_EXPECTS(die_area_mm2 > 0.0, "die area must be positive");
    CHIPLET_EXPECTS(bandwidth_gbps >= 0.0, "bandwidth must be non-negative");
    CHIPLET_EXPECTS(tech.d2d_edge_gbps_per_mm > 0.0,
                    "technology '" + tech.name +
                        "' has no D2D edge density (single-die package?)");
}
}  // namespace

double max_escape_bandwidth_gbps(const PackagingTech& tech, double die_area_mm2) {
    check_inputs(tech, die_area_mm2, 0.0);
    const double perimeter = 4.0 * std::sqrt(die_area_mm2);
    return perimeter * tech.d2d_edge_gbps_per_mm;
}

D2dSizing size_d2d(const PackagingTech& tech, double die_area_mm2,
                   double bandwidth_gbps) {
    check_inputs(tech, die_area_mm2, bandwidth_gbps);
    D2dSizing out;
    out.max_bandwidth_gbps = max_escape_bandwidth_gbps(tech, die_area_mm2);
    out.edge_mm = bandwidth_gbps / tech.d2d_edge_gbps_per_mm;
    out.area_mm2 = out.edge_mm * tech.d2d_phy_depth_mm;
    out.area_fraction = out.area_mm2 / die_area_mm2;
    // Feasible when the beachfront fits the perimeter and the PHY leaves
    // room for actual logic (fraction < 1).
    out.feasible =
        bandwidth_gbps <= out.max_bandwidth_gbps && out.area_fraction < 1.0;
    return out;
}

double d2d_fraction_for_bandwidth(const PackagingTech& tech, double die_area_mm2,
                                  double bandwidth_gbps) {
    const D2dSizing sizing = size_d2d(tech, die_area_mm2, bandwidth_gbps);
    if (!sizing.feasible) {
        throw ParameterError(
            "technology '" + tech.name + "' cannot escape " +
            exact_number_string(bandwidth_gbps) + " Gbps from a " +
            exact_number_string(die_area_mm2) + " mm^2 die (limit " +
            exact_number_string(sizing.max_bandwidth_gbps) + " Gbps)");
    }
    return sizing.area_fraction;
}

}  // namespace chiplet::tech
