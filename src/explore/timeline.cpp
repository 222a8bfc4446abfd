#include "explore/timeline.h"

#include "util/error.h"

namespace chiplet::explore {

std::vector<TimelinePoint> cost_trajectory(const core::ChipletActuary& actuary,
                                           const design::System& system,
                                           const std::string& node,
                                           const yield::DefectLearningCurve& curve,
                                           double months, double step_months) {
    CHIPLET_EXPECTS(months >= 0.0, "horizon must be non-negative");
    CHIPLET_EXPECTS(step_months > 0.0, "step must be positive");
    std::vector<TimelinePoint> out;
    for (double t = 0.0; t <= months + 1e-9; t += step_months) {
        core::ChipletActuary snapshot(actuary.library(), actuary.assumptions());
        const double d = curve.defect_density(t);
        snapshot.library().set_defect_density(node, d);
        TimelinePoint point;
        point.month = t;
        point.defect_density = d;
        point.unit_cost = snapshot.evaluate(system).total_per_unit();
        out.push_back(point);
    }
    return out;
}

namespace {

/// First sampled month at which trajectory `a` is at most `b`.
double first_crossover(const std::vector<TimelinePoint>& a,
                       const std::vector<TimelinePoint>& b) {
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].unit_cost <= b[i].unit_cost) return a[i].month;
    }
    return -1.0;
}

}  // namespace

double crossover_month(const core::ChipletActuary& actuary,
                       const design::System& a, const design::System& b,
                       const std::string& node,
                       const yield::DefectLearningCurve& curve, double months,
                       double step_months) {
    const auto traj_a =
        cost_trajectory(actuary, a, node, curve, months, step_months);
    return first_crossover(
        traj_a, cost_trajectory(actuary, b, node, curve, months, step_months));
}

TimelineOutcome run_timeline(const core::ChipletActuary& actuary,
                             const TimelineStudyConfig& config) {
    const yield::DefectLearningCurve curve(config.initial_defects_per_cm2,
                                           config.mature_defects_per_cm2,
                                           config.tau_months);
    const design::System system =
        config.scenario.build(actuary.library(), "timeline");
    TimelineOutcome out;
    out.trajectory = cost_trajectory(actuary, system, config.scenario.node,
                                     curve, config.months, config.step_months);
    if (config.compare) {
        const design::System rival =
            config.compare->build(actuary.library(), "timeline_compare");
        out.has_compare = true;
        out.crossover_month = first_crossover(
            out.trajectory,
            cost_trajectory(actuary, rival, config.scenario.node, curve,
                            config.months, config.step_months));
    }
    return out;
}

}  // namespace chiplet::explore
