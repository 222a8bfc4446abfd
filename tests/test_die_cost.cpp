#include "wafer/die_cost.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <regex>
#include <string>

#include "util/error.h"
#include "yield/models.h"

namespace chiplet::wafer {
namespace {

WaferSpec wafer_5nm() {
    WaferSpec spec;
    spec.price_usd = 16988.0;
    return spec;
}

DieCostModel model_5nm() {
    return DieCostModel(wafer_5nm(), 0.11,
                        std::make_unique<yield::SeedsNegativeBinomial>(10.0));
}

TEST(DieCostModel, BreakdownConsistency) {
    const DieCostBreakdown b = model_5nm().evaluate(400.0);
    EXPECT_GT(b.dies_per_wafer, 0.0);
    EXPECT_GT(b.yield, 0.0);
    EXPECT_LE(b.yield, 1.0);
    EXPECT_NEAR(b.raw_cost_usd, 16988.0 / b.dies_per_wafer, 1e-9);
    EXPECT_NEAR(b.good_cost_usd, b.raw_cost_usd / b.yield, 1e-9);
    EXPECT_NEAR(b.defect_cost_usd, b.good_cost_usd - b.raw_cost_usd, 1e-9);
}

TEST(DieCostModel, PaperFigure2NormalisedCost) {
    // Fig. 2's right axis: normalised cost/area starts near 1 for small
    // dies and grows to several x at reticle-scale dies.
    const DieCostModel m = model_5nm();
    const double small = m.evaluate(10.0).normalized_cost_per_area;
    const double large = m.evaluate(800.0).normalized_cost_per_area;
    EXPECT_GT(small, 1.0);
    EXPECT_LT(small, 1.4);
    EXPECT_GT(large, 2.0);
    EXPECT_LT(large, 4.0);
    EXPECT_GT(large, small);
}

TEST(DieCostModel, NormalisedCostMonotoneInArea) {
    const DieCostModel m = model_5nm();
    double previous = 0.0;
    for (double area = 50.0; area <= 900.0; area += 50.0) {
        const double normalized = m.evaluate(area).normalized_cost_per_area;
        EXPECT_GT(normalized, previous) << "area " << area;
        previous = normalized;
    }
}

TEST(DieCostModel, YieldMatchesDirectQuery) {
    const DieCostModel m = model_5nm();
    EXPECT_DOUBLE_EQ(m.evaluate(640.0).yield, m.die_yield(640.0));
}

TEST(DieCostModel, ZeroDefectDensityMeansNoDefectCost) {
    const DieCostModel m(wafer_5nm(), 0.0,
                         std::make_unique<yield::SeedsNegativeBinomial>(10.0));
    const DieCostBreakdown b = m.evaluate(500.0);
    EXPECT_DOUBLE_EQ(b.yield, 1.0);
    EXPECT_DOUBLE_EQ(b.defect_cost_usd, 0.0);
}

TEST(DieCostModel, CopySemanticsDeep) {
    const DieCostModel original = model_5nm();
    const DieCostModel copy = original;  // copy constructor clones the model
    EXPECT_DOUBLE_EQ(copy.evaluate(300.0).good_cost_usd,
                     original.evaluate(300.0).good_cost_usd);
    DieCostModel assigned(wafer_5nm(), 0.3,
                          std::make_unique<yield::PoissonYield>());
    assigned = original;
    EXPECT_DOUBLE_EQ(assigned.evaluate(300.0).good_cost_usd,
                     original.evaluate(300.0).good_cost_usd);
}

TEST(DieCostModel, InvalidConstructionThrows) {
    EXPECT_THROW(
        DieCostModel(wafer_5nm(), -0.1,
                     std::make_unique<yield::SeedsNegativeBinomial>(10.0)),
        ParameterError);
    EXPECT_THROW(DieCostModel(wafer_5nm(), 0.1, nullptr), ParameterError);
}

/// Longest mantissa, in significant digits, of any number in `text`.
std::size_t longest_mantissa(const std::string& text) {
    static const std::regex number(R"(([0-9]+)(\.([0-9]+))?)");
    std::size_t longest = 0;
    for (auto it = std::sregex_iterator(text.begin(), text.end(), number);
         it != std::sregex_iterator(); ++it) {
        std::string digits = (*it)[1].str() + (*it)[3].str();
        digits.erase(0, digits.find_first_not_of('0'));
        longest = std::max(longest, digits.size());
    }
    return longest;
}

TEST(DieCostModel, OversizedDieThrows) {
    // The message prints the area as its shortest round-trip decimal,
    // never as a fixed-point expansion of a huge value.
    for (const double area : {80000.0, 1e300}) {
        try {
            (void)model_5nm().evaluate(area);
            ADD_FAILURE() << "no error for " << area << " mm^2";
        } catch (const ParameterError& e) {
            const std::string message = e.what();
            EXPECT_NE(message.find("does not fit on the wafer"), std::string::npos)
                << message;
            EXPECT_LE(longest_mantissa(message), 17u) << message;
        }
    }
    EXPECT_THROW((void)model_5nm().evaluate(0.0), ParameterError);
}

TEST(DieCostModel, CheaperWaferCheaperDies) {
    WaferSpec cheap = wafer_5nm();
    cheap.price_usd = 4000.0;
    const DieCostModel expensive = model_5nm();
    const DieCostModel cheaper(
        cheap, 0.11, std::make_unique<yield::SeedsNegativeBinomial>(10.0));
    EXPECT_LT(cheaper.evaluate(400.0).good_cost_usd,
              expensive.evaluate(400.0).good_cost_usd);
    // But the *normalised* cost/area is price-independent (pure geometry
    // and yield), a useful invariant of the Fig. 2 axis.
    EXPECT_NEAR(cheaper.evaluate(400.0).normalized_cost_per_area,
                expensive.evaluate(400.0).normalized_cost_per_area, 1e-12);
}

}  // namespace
}  // namespace chiplet::wafer
