// The unified Study API: JSON round-trip for every study kind,
// bit-for-bit equivalence between run_study and the legacy typed entry
// points, slot-ordered batch execution, and loader error reporting.
#include <gtest/gtest.h>

#include <string>
#include <variant>
#include <vector>

#include "core/actuary.h"
#include "core/scenarios.h"
#include "explore/breakeven.h"
#include "explore/montecarlo.h"
#include "explore/optimizer.h"
#include "explore/pareto.h"
#include "explore/sensitivity.h"
#include "explore/study.h"
#include "explore/study_json.h"
#include "explore/sweep.h"
#include "explore/timeline.h"
#include "util/error.h"
#include "util/math.h"
#include "util/thread_pool.h"

namespace chiplet::explore {
namespace {

ScenarioSpec mcm_scenario() {
    ScenarioSpec s;
    s.node = "5nm";
    s.packaging = "MCM";
    s.module_area_mm2 = 800.0;
    s.chiplets = 2;
    s.d2d_fraction = 0.10;
    s.quantity = 2e6;
    return s;
}

ScenarioSpec soc_scenario() {
    ScenarioSpec s;
    s.node = "5nm";
    s.packaging = "SoC";
    s.module_area_mm2 = 800.0;
    s.quantity = 2e6;
    return s;
}

ReSweepConfig small_grid() {
    ReSweepConfig c;
    c.nodes = {"7nm", "5nm"};
    c.packagings = {"SoC", "MCM"};
    c.chiplet_counts = {2, 3};
    c.areas_mm2 = {200.0, 500.0, 800.0};
    return c;
}

/// Builds one representative spec for every kind; `all_optionals` adds
/// the compare scenarios and tech overrides.
std::vector<StudySpec> one_spec_per_kind(bool all_optionals) {
    std::vector<StudySpec> specs;

    StudySpec re;
    re.name = "re";
    re.config = small_grid();
    if (all_optionals) {
        re.tech_overrides = JsonValue::parse(
            R"({"nodes":[{"name":"7nm","defect_density_cm2":0.05}]})");
    }
    specs.push_back(re);

    StudySpec qty;
    qty.name = "qty";
    QuantitySweepConfig qc;
    qc.quantities = {5e5, 2e6};
    qty.config = qc;
    specs.push_back(qty);

    StudySpec mc;
    mc.name = "mc";
    McStudyConfig mcc;
    mcc.scenario = mcm_scenario();
    if (all_optionals) mcc.compare = soc_scenario();
    mcc.draws = 64;
    mcc.seed = 7;
    mc.config = mcc;
    specs.push_back(mc);

    StudySpec sens;
    sens.name = "sens";
    SensitivityStudyConfig sc;
    sc.scenario = mcm_scenario();
    sc.rel_step = 0.02;
    sens.config = sc;
    specs.push_back(sens);

    StudySpec tor;
    tor.name = "tor";
    TornadoStudyConfig tc;
    tc.scenario = mcm_scenario();
    tc.rel_range = 0.15;
    tor.config = tc;
    specs.push_back(tor);

    StudySpec brk;
    brk.name = "brk";
    BreakevenQuery bq;
    bq.axis = all_optionals ? BreakevenQuery::Axis::area
                            : BreakevenQuery::Axis::quantity;
    brk.config = bq;
    specs.push_back(brk);

    StudySpec par;
    par.name = "par";
    ParetoConfig pc;
    pc.points = {{1, 3, 0}, {2, 2, 1}, {3, 4, 2}};
    pc.x_label = "designs";
    pc.y_label = "cost";
    par.config = pc;
    specs.push_back(par);

    StudySpec rec;
    rec.name = "rec";
    DecisionQuery dq;
    dq.max_chiplets = 3;
    rec.config = dq;
    specs.push_back(rec);

    StudySpec tl;
    tl.name = "tl";
    TimelineStudyConfig tlc;
    tlc.scenario = mcm_scenario();
    if (all_optionals) tlc.compare = soc_scenario();
    tlc.months = 12.0;
    tlc.step_months = 3.0;
    tl.config = tlc;
    specs.push_back(tl);

    StudySpec ds;
    ds.name = "ds";
    DesignSpaceConfig dsc;
    dsc.module_area_mm2 = 600.0;
    dsc.nodes = {"7nm", "12nm"};
    dsc.chiplet_counts = {1, 2, 3};
    dsc.packagings = {"SoC", "MCM"};
    dsc.quantities = {1e6};
    dsc.top_k = 4;
    if (all_optionals) {
        dsc.modules = {design::Module{"cores", 300.0, "7nm", true},
                       design::Module{"phy", 80.0, "12nm", false}};
        dsc.uniform_nodes = true;
        dsc.max_die_area_mm2 = 700.0;
    }
    ds.config = dsc;
    specs.push_back(ds);

    return specs;
}

TEST(StudyKindStrings, RoundTrip) {
    for (int i = 0; i <= static_cast<int>(StudyKind::design_space); ++i) {
        const StudyKind kind = static_cast<StudyKind>(i);
        EXPECT_EQ(study_kind_from_string(to_string(kind)), kind);
    }
    EXPECT_THROW((void)study_kind_from_string("warp_drive"), ParseError);
}

TEST(StudyKindStrings, UnknownKindNamesTokenAndChoices) {
    try {
        (void)study_kind_from_string("warp_drive");
        FAIL() << "expected ParseError";
    } catch (const ParseError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("'warp_drive'"), std::string::npos) << what;
        // The message enumerates every valid choice.
        for (int i = 0; i <= static_cast<int>(StudyKind::design_space); ++i) {
            EXPECT_NE(what.find(to_string(static_cast<StudyKind>(i))),
                      std::string::npos)
                << what;
        }
    }
}

TEST(StudyJson, SpecRoundTripEveryKind) {
    for (const bool optionals : {false, true}) {
        for (const StudySpec& spec : one_spec_per_kind(optionals)) {
            const JsonValue doc = to_json(spec);
            const StudySpec restored = study_spec_from_json(doc);
            EXPECT_EQ(restored.kind(), spec.kind()) << spec.name;
            EXPECT_EQ(restored.name, spec.name);
            // Canonical form is a fixed point: spec -> json -> spec -> json.
            EXPECT_EQ(to_json(restored).dump(), doc.dump()) << spec.name;
        }
    }
}

TEST(StudyJson, HugeSeedsRoundTripLosslessly) {
    // Seeds above 2^53 cannot live in a JSON double; they serialise as
    // decimal strings and must come back exactly.
    StudySpec spec;
    spec.name = "seed";
    McStudyConfig config;
    config.scenario = mcm_scenario();
    config.draws = 2;
    config.seed = 18446744073709551615ull;  // UINT64_MAX
    spec.config = config;
    const StudySpec restored =
        study_spec_from_json(JsonValue::parse(to_json(spec).dump()));
    EXPECT_EQ(std::get<McStudyConfig>(restored.config).seed,
              18446744073709551615ull);
    EXPECT_EQ(to_json(restored).dump(), to_json(spec).dump());
}

TEST(StudyJson, DocumentRoundTrip) {
    const std::vector<StudySpec> specs = one_spec_per_kind(true);
    const JsonValue doc = studies_to_json(specs);
    const std::vector<StudySpec> restored =
        studies_from_json(JsonValue::parse(doc.dump()));
    ASSERT_EQ(restored.size(), specs.size());
    EXPECT_EQ(studies_to_json(restored).dump(), doc.dump());
}

TEST(StudyJson, DefaultsFillMissingConfig) {
    const StudySpec spec = study_spec_from_json(
        JsonValue::parse(R"({"name":"d","kind":"recommend"})"));
    const auto& query = std::get<DecisionQuery>(spec.config);
    EXPECT_EQ(query.node, DecisionQuery{}.node);
    EXPECT_EQ(query.max_chiplets, DecisionQuery{}.max_chiplets);
}

TEST(StudyJson, LoaderErrorsNameKeyAndContext) {
    try {
        (void)study_spec_from_json(JsonValue::parse(R"({"kind":"recommend"})"),
                                   "studies.json: studies[0]");
        FAIL() << "expected ParseError";
    } catch (const ParseError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("'name'"), std::string::npos) << what;
        EXPECT_NE(what.find("studies.json"), std::string::npos) << what;
    }
    EXPECT_THROW((void)study_spec_from_json(
                     JsonValue::parse(R"({"name":"x","kind":"nope"})")),
                 ParseError);
    // pareto is the one kind with a required config field.
    EXPECT_THROW((void)study_spec_from_json(JsonValue::parse(
                     R"({"name":"x","kind":"pareto","config":{}})")),
                 ParseError);
    // Scenario-based kinds default their scenario like everything else.
    EXPECT_EQ(study_spec_from_json(
                  JsonValue::parse(R"({"name":"x","kind":"monte_carlo"})"))
                  .kind(),
              StudyKind::monte_carlo);
    // Mistyped optional field.
    EXPECT_THROW((void)study_spec_from_json(JsonValue::parse(
                     R"({"name":"x","kind":"recommend","config":{"node":3}})")),
                 ParseError);
}

// ---- equivalence with the legacy typed entry points -------------------------

class StudyEquivalence : public ::testing::Test {
protected:
    core::ChipletActuary actuary_;
};

TEST_F(StudyEquivalence, ReSweep) {
    StudySpec spec;
    spec.name = "re";
    spec.config = small_grid();
    const StudyResult result = run_study(actuary_, spec);
    const auto& points = std::get<std::vector<ReSweepPoint>>(result.payload);
    const std::vector<ReSweepPoint> legacy = sweep_re_grid(actuary_, small_grid());
    ASSERT_EQ(points.size(), legacy.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(points[i].re.total(), legacy[i].re.total());
        EXPECT_EQ(points[i].normalized, legacy[i].normalized);
    }
}

TEST_F(StudyEquivalence, QuantitySweep) {
    QuantitySweepConfig config;
    StudySpec spec;
    spec.name = "qty";
    spec.config = config;
    const StudyResult result = run_study(actuary_, spec);
    const auto& points =
        std::get<std::vector<QuantitySweepPoint>>(result.payload);
    const auto legacy = sweep_total_vs_quantity(
        actuary_, config.node, config.module_area_mm2, config.chiplets,
        config.d2d_fraction, config.packagings, config.quantities);
    ASSERT_EQ(points.size(), legacy.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(points[i].cost.total_per_unit(), legacy[i].cost.total_per_unit());
    }
}

/// Test-local oracle for the monte_carlo study: a plain per-draw loop
/// (RNG stream, library copy, default_sampler, evaluate both systems)
/// that shares nothing with explore/montecarlo.cpp but the sampler.
struct McOracle {
    std::vector<double> samples;
    double win_rate = 0.0;
};

McOracle mc_oracle(const core::ChipletActuary& actuary,
                   const McStudyConfig& config) {
    const design::System system = config.scenario.build(actuary.library(), "mc");
    const design::System rival =
        config.compare->build(actuary.library(), "mc_compare");
    const LibrarySampler sampler = default_sampler(
        config.scenario.node, config.scenario.packaging, config.spread);
    McOracle out;
    unsigned wins = 0;
    for (unsigned i = 0; i < config.draws; ++i) {
        Rng rng = Rng::stream(config.seed, i);
        tech::TechLibrary lib = actuary.library();
        sampler(lib, rng);
        const core::ChipletActuary draw(std::move(lib), actuary.assumptions());
        const double cost = draw.evaluate(system).total_per_unit();
        if (cost < draw.evaluate(rival).total_per_unit()) ++wins;
        out.samples.push_back(cost);
    }
    out.win_rate = static_cast<double>(wins) / static_cast<double>(config.draws);
    return out;
}

TEST_F(StudyEquivalence, MonteCarloMatchesPerDrawOracle) {
    // Two rivals per scenario: the SoC, whose win rate lies inside (0, 1)
    // for some configs, and a near twin with a larger D2D share, which
    // loses every draw priced under the scenario's own draw but about
    // half of them under any other draw.
    const unsigned restore = util::ThreadPool::global().size();
    for (const unsigned threads : {1u, 4u}) {
        util::ThreadPool::set_global_threads(threads);
        for (const char* packaging : {"MCM", "InFO", "2.5D"}) {
            for (const char* model :
                 {"poisson", "murphy", "seeds_exponential",
                  "seeds_negative_binomial", "bose_einstein"}) {
                core::Assumptions assumptions;
                assumptions.yield_model = model;
                const core::ChipletActuary actuary(actuary_.library(),
                                                   assumptions);
                McStudyConfig config;
                config.scenario = mcm_scenario();
                config.scenario.packaging = packaging;
                config.scenario.module_area_mm2 = 600.0;
                ScenarioSpec soc = config.scenario;
                soc.packaging = "SoC";
                ScenarioSpec twin = config.scenario;
                twin.d2d_fraction = 0.11;
                for (const bool near_twin : {false, true}) {
                    config.compare = near_twin ? twin : soc;
                    for (const unsigned draws : {1u, 7u, 1024u}) {
                        SCOPED_TRACE(std::string(packaging) + " " + model +
                                     (near_twin ? " vs twin" : " vs SoC") +
                                     " draws " +
                                     std::to_string(draws) + " threads " +
                                     std::to_string(threads));
                        config.draws = draws;
                        config.seed = 7 + draws;
                        StudySpec spec;
                        spec.name = "mc";
                        spec.config = config;
                        const auto outcome = std::get<McStudyOutcome>(
                            run_study(actuary, spec).payload);
                        const McOracle expect = mc_oracle(actuary, config);

                        EXPECT_EQ(outcome.mc.samples, expect.samples);
                        EXPECT_EQ(outcome.mc.mean, mean(expect.samples));
                        EXPECT_EQ(outcome.mc.stddev, stddev(expect.samples));
                        EXPECT_EQ(outcome.mc.p05, percentile(expect.samples, 5.0));
                        EXPECT_EQ(outcome.mc.p50, percentile(expect.samples, 50.0));
                        EXPECT_EQ(outcome.mc.p95, percentile(expect.samples, 95.0));
                        EXPECT_TRUE(outcome.has_compare);
                        EXPECT_EQ(outcome.win_rate, expect.win_rate);
                        if (near_twin) {
                            EXPECT_EQ(outcome.win_rate, 1.0);
                        }
                    }
                }
            }
        }
    }
    util::ThreadPool::set_global_threads(restore);
}

TEST_F(StudyEquivalence, SensitivityAndTornado) {
    SensitivityStudyConfig sens;
    sens.scenario = mcm_scenario();
    StudySpec spec;
    spec.name = "sens";
    spec.config = sens;
    const StudyResult sens_result = run_study(actuary_, spec);
    const auto& entries =
        std::get<std::vector<SensitivityEntry>>(sens_result.payload);

    const design::System system =
        core::split_system("sensitivity", "5nm", "MCM", 800.0, 2, 0.10, 2e6);
    const auto legacy = sensitivity_analysis(
        actuary_, system, default_parameters("5nm", "MCM"), 0.01);
    ASSERT_EQ(entries.size(), legacy.size());
    for (std::size_t i = 0; i < entries.size(); ++i) {
        EXPECT_EQ(entries[i].parameter, legacy[i].parameter);
        EXPECT_EQ(entries[i].elasticity, legacy[i].elasticity);
    }

    TornadoStudyConfig tor;
    tor.scenario = mcm_scenario();
    spec.config = tor;
    const StudyResult tor_result = run_study(actuary_, spec);
    const auto& bars = std::get<std::vector<TornadoEntry>>(tor_result.payload);
    const auto legacy_bars = tornado_analysis(
        actuary_, core::split_system("tornado", "5nm", "MCM", 800.0, 2, 0.10, 2e6),
        default_parameters("5nm", "MCM"), 0.20);
    ASSERT_EQ(bars.size(), legacy_bars.size());
    for (std::size_t i = 0; i < bars.size(); ++i) {
        EXPECT_EQ(bars[i].swing(), legacy_bars[i].swing());
    }
}

TEST_F(StudyEquivalence, BreakevenBothAxes) {
    BreakevenQuery query;  // quantity axis defaults
    StudySpec spec;
    spec.name = "brk";
    spec.config = query;
    const StudyResult qty_result = run_study(actuary_, spec);
    const auto& b = std::get<Breakeven>(qty_result.payload);
    const Breakeven legacy =
        breakeven_quantity(actuary_, "5nm", 800.0, 2, "MCM", 0.10);
    EXPECT_EQ(b.found, legacy.found);
    EXPECT_EQ(b.value, legacy.value);
    EXPECT_EQ(b.soc_cost, legacy.soc_cost);

    query.axis = BreakevenQuery::Axis::area;
    query.node = "7nm";
    spec.config = query;
    const StudyResult area_result = run_study(actuary_, spec);
    const auto& area = std::get<Breakeven>(area_result.payload);
    const Breakeven legacy_area =
        breakeven_area(actuary_, "7nm", 2, "MCM", 0.10);
    EXPECT_EQ(area.found, legacy_area.found);
    EXPECT_EQ(area.value, legacy_area.value);
}

TEST_F(StudyEquivalence, ParetoAndRecommend) {
    ParetoConfig pareto;
    pareto.points = {{1, 3, 0}, {2, 2, 1}, {3, 4, 2}, {2, 2, 3}};
    StudySpec spec;
    spec.name = "par";
    spec.config = pareto;
    const StudyResult par_result = run_study(actuary_, spec);
    const auto& front = std::get<std::vector<ParetoPoint>>(par_result.payload);
    const auto legacy = pareto_front(pareto.points);
    ASSERT_EQ(front.size(), legacy.size());
    for (std::size_t i = 0; i < front.size(); ++i) {
        EXPECT_EQ(front[i].index, legacy[i].index);
    }

    DecisionQuery query;
    spec.config = query;
    const StudyResult rec_result = run_study(actuary_, spec);
    const auto& rec = std::get<Recommendation>(rec_result.payload);
    const Recommendation legacy_rec = recommend(actuary_, query);
    ASSERT_EQ(rec.options.size(), legacy_rec.options.size());
    EXPECT_EQ(rec.best().packaging, legacy_rec.best().packaging);
    EXPECT_EQ(rec.best().total_per_unit(), legacy_rec.best().total_per_unit());
}

TEST_F(StudyEquivalence, Timeline) {
    TimelineStudyConfig config;
    config.scenario = mcm_scenario();
    config.scenario.node = "7nm";
    config.compare = soc_scenario();
    config.compare->node = "7nm";
    config.months = 12.0;
    config.step_months = 3.0;
    StudySpec spec;
    spec.name = "tl";
    spec.config = config;
    const StudyResult result = run_study(actuary_, spec);
    const auto& outcome = std::get<TimelineOutcome>(result.payload);

    const yield::DefectLearningCurve curve(0.2, 0.05, 12.0);
    const design::System mcm =
        core::split_system("timeline", "7nm", "MCM", 800.0, 2, 0.10, 2e6);
    const design::System soc =
        core::monolithic_soc("timeline_compare", "7nm", 800.0, 2e6);
    const auto legacy = cost_trajectory(actuary_, mcm, "7nm", curve, 12.0, 3.0);
    ASSERT_EQ(outcome.trajectory.size(), legacy.size());
    for (std::size_t i = 0; i < legacy.size(); ++i) {
        EXPECT_EQ(outcome.trajectory[i].unit_cost, legacy[i].unit_cost);
    }
    EXPECT_EQ(outcome.crossover_month,
              crossover_month(actuary_, mcm, soc, "7nm", curve, 12.0, 3.0));
}

// ---- envelope, batching, overrides ------------------------------------------

TEST(StudyRun, TableMatchesPayloadShape) {
    const core::ChipletActuary actuary;
    for (const StudySpec& spec : one_spec_per_kind(true)) {
        const StudyResult result = run_study(actuary, spec);
        EXPECT_FALSE(result.table.columns.empty()) << spec.name;
        EXPECT_FALSE(result.table.rows.empty()) << spec.name;
        for (const auto& row : result.table.rows) {
            EXPECT_EQ(row.size(), result.table.columns.size()) << spec.name;
        }
        EXPECT_EQ(result.name, spec.name);
        EXPECT_EQ(result.kind, spec.kind());
        EXPECT_GT(result.run.threads, 0u);
    }
}

TEST(StudyRun, BatchIsSlotOrderedAndBitIdenticalToSerial) {
    const core::ChipletActuary actuary;
    const std::vector<StudySpec> specs = one_spec_per_kind(true);
    const std::vector<StudyResult> batch = run_studies(actuary, specs);
    ASSERT_EQ(batch.size(), specs.size());
    JsonDiffOptions exact;
    exact.tolerance = 0.0;
    exact.ignore_keys = {"meta"};
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(batch[i].name, specs[i].name);
        const StudyResult serial = run_study(actuary, specs[i]);
        EXPECT_EQ(json_diff(to_json(batch[i]), to_json(serial), exact), "")
            << specs[i].name;
    }
}

TEST(StudyRun, TechOverridesPatchACopy) {
    const core::ChipletActuary actuary;
    StudySpec spec;
    spec.name = "override";
    ReSweepConfig config = ReSweepConfig{};
    config.nodes = {"7nm"};
    config.packagings = {"SoC"};
    config.areas_mm2 = {500.0};
    spec.config = config;
    spec.tech_overrides =
        JsonValue::parse(R"({"nodes":[{"name":"7nm","defect_density_cm2":0.05}]})");
    const StudyResult override_result = run_study(actuary, spec);
    const auto& overridden =
        std::get<std::vector<ReSweepPoint>>(override_result.payload);

    core::ChipletActuary patched(actuary.library(), actuary.assumptions());
    patched.library().set_defect_density("7nm", 0.05);
    const auto legacy = sweep_re_grid(patched, config);
    ASSERT_EQ(overridden.size(), legacy.size());
    EXPECT_EQ(overridden[0].re.total(), legacy[0].re.total());
    // Other fields of the node survive the merge.
    EXPECT_EQ(actuary.library().node("7nm").wafer_price_usd,
              patched.library().node("7nm").wafer_price_usd);

    // The caller's actuary is untouched.
    spec.tech_overrides = JsonValue();
    const StudyResult baseline_result = run_study(actuary, spec);
    const auto& baseline =
        std::get<std::vector<ReSweepPoint>>(baseline_result.payload);
    EXPECT_NE(baseline[0].re.total(), overridden[0].re.total());
}

TEST(StudyRun, UnknownScenarioNamesThrowLookupError) {
    const core::ChipletActuary actuary;
    StudySpec spec;
    spec.name = "bad";
    McStudyConfig config;
    config.scenario = mcm_scenario();
    config.scenario.packaging = "vapor_phase";
    config.draws = 2;
    spec.config = config;
    EXPECT_THROW((void)run_study(actuary, spec), LookupError);
}

TEST(StudyRun, ResultJsonCarriesEnvelope) {
    const core::ChipletActuary actuary;
    StudySpec spec;
    spec.name = "env";
    BreakevenQuery query;
    spec.config = query;
    const JsonValue v = to_json(run_study(actuary, spec));
    EXPECT_EQ(v.at("name").as_string(), "env");
    EXPECT_EQ(v.at("kind").as_string(), "breakeven");
    EXPECT_TRUE(v.contains("meta"));
    EXPECT_TRUE(v.at("table").contains("columns"));
    EXPECT_TRUE(v.at("result").contains("found"));
}

// ---- multi-failure batches (regression: first error used to win) ------------

TEST(StudyFailures, CollectingLoaderReportsEveryBadStudy) {
    // Three broken entries and two good ones in one document; before
    // the collecting loader the first parse error aborted the batch and
    // the remaining failures were silently dropped.
    const JsonValue doc = JsonValue::parse(R"({"studies":[
        {"name":"good_a","kind":"breakeven","config":{}},
        {"name":"bad_kind","kind":"wat","config":{}},
        {"kind":"pareto","config":{"points":[]}},
        {"name":"bad_type","kind":"monte_carlo","config":{"draws":"many"}},
        {"name":"good_b","kind":"pareto","config":{"points":[{"x":1,"y":2}]}}
    ]})");
    std::vector<StudyFailure> failures;
    std::vector<std::size_t> kept;
    const std::vector<StudySpec> specs =
        studies_from_json_collecting(doc, "doc", failures, &kept);

    ASSERT_EQ(specs.size(), 2u);
    EXPECT_EQ(specs[0].name, "good_a");
    EXPECT_EQ(specs[1].name, "good_b");
    EXPECT_EQ(kept, (std::vector<std::size_t>{0, 4}));

    ASSERT_EQ(failures.size(), 3u);
    EXPECT_EQ(failures[0].index, 1u);
    EXPECT_EQ(failures[0].name, "bad_kind");
    EXPECT_EQ(failures[0].stage, "parse");
    EXPECT_NE(failures[0].message.find("wat"), std::string::npos);
    // The nameless entry is reported by its document path instead.
    EXPECT_EQ(failures[1].index, 2u);
    EXPECT_EQ(failures[1].name, "doc.studies[2]");
    EXPECT_EQ(failures[2].index, 3u);
    EXPECT_EQ(failures[2].name, "bad_type");
}

TEST(StudyFailures, DocumentLevelProblemsStillThrow) {
    std::vector<StudyFailure> failures;
    EXPECT_THROW((void)studies_from_json_collecting(
                     JsonValue::parse("[1,2]"), "doc", failures),
                 ParseError);
    EXPECT_THROW((void)studies_from_json_collecting(
                     JsonValue::parse("{}"), "doc", failures),
                 ParseError);
    EXPECT_TRUE(failures.empty());
}

TEST(StudyFailures, RunCollectingReportsEveryModelFailure) {
    const core::ChipletActuary actuary;
    std::vector<StudySpec> specs;

    StudySpec good;
    good.name = "good";
    good.config = BreakevenQuery{};
    specs.push_back(good);

    StudySpec bad_node = good;
    bad_node.name = "bad_node";
    BreakevenQuery q1;
    q1.node = "not_a_node";
    bad_node.config = q1;
    specs.push_back(bad_node);

    StudySpec bad_tech = good;
    bad_tech.name = "bad_tech";
    bad_tech.tech_overrides = JsonValue::parse(R"({"nodes":[{"oops":1}]})");
    specs.push_back(bad_tech);

    const StudyBatchOutcome outcome = run_studies_collecting(actuary, specs);
    ASSERT_EQ(outcome.results.size(), 1u);
    EXPECT_EQ(outcome.results[0].name, "good");
    EXPECT_EQ(outcome.indices, (std::vector<std::size_t>{0}));

    ASSERT_EQ(outcome.failures.size(), 2u);
    EXPECT_EQ(outcome.failures[0].name, "bad_node");
    EXPECT_EQ(outcome.failures[0].stage, "model");
    EXPECT_EQ(outcome.failures[1].name, "bad_tech");
    EXPECT_EQ(outcome.failures[1].stage, "parse");

    // The successful payload is bit-identical to an undisturbed run.
    JsonDiffOptions exact;
    exact.tolerance = 0.0;
    exact.ignore_keys = {"meta"};
    EXPECT_EQ(json_diff(to_json(outcome.results[0]),
                        to_json(run_study(actuary, good)), exact),
              "");
}

TEST(StudyFailures, CollectingMatchesThrowingPathOnCleanBatches) {
    const core::ChipletActuary actuary;
    const std::vector<StudySpec> specs = one_spec_per_kind(false);
    const StudyBatchOutcome outcome = run_studies_collecting(actuary, specs);
    const std::vector<StudyResult> plain = run_studies(actuary, specs);
    ASSERT_EQ(outcome.results.size(), plain.size());
    EXPECT_TRUE(outcome.failures.empty());
    JsonDiffOptions exact;
    exact.tolerance = 0.0;
    exact.ignore_keys = {"meta"};
    for (std::size_t i = 0; i < plain.size(); ++i) {
        EXPECT_EQ(outcome.indices[i], i);
        EXPECT_EQ(json_diff(to_json(outcome.results[i]), to_json(plain[i]),
                            exact),
                  "")
            << specs[i].name;
    }
}

}  // namespace
}  // namespace chiplet::explore
