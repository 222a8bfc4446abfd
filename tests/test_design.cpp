#include <gtest/gtest.h>

#include <string>

#include "design/builder.h"
#include "design/system.h"
#include "tech/tech_library.h"
#include "util/error.h"

namespace chiplet::design {
namespace {

tech::TechLibrary lib() { return tech::TechLibrary::builtin(); }

TEST(Chip, AreaWithD2dOverhead) {
    const Chip chip("c", "7nm", {Module{"m", 180.0, "7nm", true}}, 0.10);
    const auto library = lib();
    EXPECT_DOUBLE_EQ(chip.module_area(library), 180.0);
    EXPECT_NEAR(chip.area(library), 180.0 / 0.9, 1e-12);
    EXPECT_NEAR(chip.d2d_area(library), 180.0 / 0.9 - 180.0, 1e-12);
}

TEST(Chip, ContractErrorNamesFileWithoutBuildPath) {
    try {
        const Chip chip("", "7nm", {Module{"m", 180.0, "7nm", true}}, 0.10);
        FAIL() << "an unnamed chip must be rejected";
    } catch (const ParameterError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("chip needs a name"), std::string::npos) << what;
        EXPECT_NE(what.find(" at chip.cpp:"), std::string::npos) << what;
        EXPECT_EQ(what.find('/'), std::string::npos) << what;
    }
}

TEST(Chip, ZeroD2dMeansModuleAreaOnly) {
    const Chip chip("c", "7nm", {Module{"m", 180.0, "7nm", true}}, 0.0);
    const auto library = lib();
    EXPECT_DOUBLE_EQ(chip.area(library), 180.0);
    EXPECT_DOUBLE_EQ(chip.d2d_area(library), 0.0);
}

TEST(Chip, HeterogeneousModuleRetargets) {
    // A module specified at 7nm, manufactured on a 14nm chip: area grows.
    const Chip chip("c", "14nm", {Module{"m", 100.0, "7nm", true}}, 0.0);
    const auto library = lib();
    EXPECT_NEAR(chip.module_area(library), 100.0 / 0.44, 1e-9);
    // Unscalable version keeps 100 mm^2.
    const Chip analog("a", "14nm", {Module{"m", 100.0, "7nm", false}}, 0.0);
    EXPECT_DOUBLE_EQ(analog.module_area(library), 100.0);
}

TEST(Chip, MultipleModulesSum) {
    const Chip chip("c", "7nm",
                    {Module{"a", 50.0, "7nm", true}, Module{"b", 70.0, "7nm", true}},
                    0.0);
    EXPECT_DOUBLE_EQ(chip.module_area(lib()), 120.0);
}

TEST(Chip, InvariantsEnforced) {
    EXPECT_THROW(Chip("", "7nm", {Module{"m", 1.0, "7nm", true}}, 0.0),
                 ParameterError);
    EXPECT_THROW(Chip("c", "", {Module{"m", 1.0, "7nm", true}}, 0.0),
                 ParameterError);
    EXPECT_THROW(Chip("c", "7nm", {}, 0.0), ParameterError);
    EXPECT_THROW(Chip("c", "7nm", {Module{"m", 1.0, "7nm", true}}, 1.0),
                 ParameterError);
    EXPECT_THROW(Chip("c", "7nm", {Module{"m", -1.0, "7nm", true}}, 0.0),
                 ParameterError);
    EXPECT_THROW(Chip("c", "7nm", {Module{"", 1.0, "7nm", true}}, 0.0),
                 ParameterError);
}

TEST(Chip, UnknownNodeThrowsOnAreaQuery) {
    const Chip chip("c", "1nm", {Module{"m", 10.0, "1nm", true}}, 0.0);
    const auto library = lib();
    EXPECT_THROW((void)chip.area(library), LookupError);
}

TEST(System, DieCountAndArea) {
    const Chip a("a", "7nm", {Module{"ma", 100.0, "7nm", true}}, 0.10);
    const Chip b("b", "7nm", {Module{"mb", 50.0, "7nm", true}}, 0.10);
    const System system("s", "MCM", {ChipPlacement{a, 2}, ChipPlacement{b, 1}},
                        1e6);
    EXPECT_EQ(system.die_count(), 3u);
    const auto library = lib();
    EXPECT_NEAR(system.total_die_area(library),
                2.0 * 100.0 / 0.9 + 50.0 / 0.9, 1e-9);
    EXPECT_FALSE(system.is_monolithic());
}

TEST(System, DefaultPackageDesignIsPrivate) {
    const Chip a("a", "7nm", {Module{"ma", 100.0, "7nm", true}}, 0.0);
    System s1("s1", "SoC", {ChipPlacement{a, 1}}, 1e6);
    System s2("s2", "SoC", {ChipPlacement{a, 1}}, 1e6);
    EXPECT_NE(s1.package_design(), s2.package_design());
    s2.set_package_design(s1.package_design());
    EXPECT_EQ(s1.package_design(), s2.package_design());
    EXPECT_THROW(s2.set_package_design(""), ParameterError);
}

TEST(System, InvariantsEnforced) {
    const Chip a("a", "7nm", {Module{"ma", 100.0, "7nm", true}}, 0.0);
    EXPECT_THROW(System("s", "MCM", {}, 1e6), ParameterError);
    EXPECT_THROW(System("s", "MCM", {ChipPlacement{a, 0}}, 1e6), ParameterError);
    EXPECT_THROW(System("s", "MCM", {ChipPlacement{a, 1}}, 0.0), ParameterError);
    EXPECT_THROW(System("", "MCM", {ChipPlacement{a, 1}}, 1e6), ParameterError);
}

TEST(SystemFamily, CollectsUniqueDesigns) {
    const Chip shared("shared", "7nm", {Module{"m", 100.0, "7nm", true}}, 0.10);
    const Chip other("other", "7nm", {Module{"o", 60.0, "7nm", true}}, 0.10);
    SystemFamily family;
    family.add(System("s1", "MCM", {ChipPlacement{shared, 2}}, 1e6));
    family.add(System("s2", "MCM",
                      {ChipPlacement{shared, 1}, ChipPlacement{other, 1}}, 1e6));
    EXPECT_EQ(family.unique_chips().size(), 2u);
    EXPECT_EQ(family.unique_modules().size(), 2u);
    EXPECT_EQ(family.unique_package_designs().size(), 2u);
}

TEST(SystemFamily, RejectsConflictingChipRedefinition) {
    const Chip v1("c", "7nm", {Module{"m", 100.0, "7nm", true}}, 0.10);
    const Chip v2("c", "7nm", {Module{"m", 120.0, "7nm", true}}, 0.10);
    SystemFamily family;
    family.add(System("s1", "MCM", {ChipPlacement{v1, 1}}, 1e6));
    EXPECT_THROW(family.add(System("s2", "MCM", {ChipPlacement{v2, 1}}, 1e6)),
                 ParameterError);
}

TEST(SystemFamily, RejectsConflictingModuleRedefinition) {
    const Chip c1("c1", "7nm", {Module{"m", 100.0, "7nm", true}}, 0.10);
    const Chip c2("c2", "7nm", {Module{"m", 120.0, "7nm", true}}, 0.10);
    SystemFamily family;
    family.add(System("s1", "MCM", {ChipPlacement{c1, 1}}, 1e6));
    EXPECT_THROW(family.add(System("s2", "MCM", {ChipPlacement{c2, 1}}, 1e6)),
                 ParameterError);
}

TEST(Builders, FluentChipConstruction) {
    const Chip chip = ChipBuilder("ccd", "7nm")
                          .module("cores", 66.0)
                          .module("analog", 10.0, "14nm", false)
                          .d2d(0.10)
                          .build();
    EXPECT_EQ(chip.name(), "ccd");
    EXPECT_EQ(chip.node(), "7nm");
    EXPECT_EQ(chip.modules().size(), 2u);
    EXPECT_EQ(chip.modules()[0].node, "7nm");     // defaults to chip node
    EXPECT_EQ(chip.modules()[1].node, "14nm");
    EXPECT_FALSE(chip.modules()[1].scalable);
    EXPECT_DOUBLE_EQ(chip.d2d_fraction(), 0.10);
}

TEST(Builders, FluentSystemConstruction) {
    const Chip chip = ChipBuilder("x", "7nm").module("m", 100.0).d2d(0.1).build();
    const System system = SystemBuilder("sys", "MCM")
                              .chips(chip, 4)
                              .quantity(5e5)
                              .package_design("pkg:shared")
                              .build();
    EXPECT_EQ(system.die_count(), 4u);
    EXPECT_DOUBLE_EQ(system.quantity(), 5e5);
    EXPECT_EQ(system.package_design(), "pkg:shared");
    EXPECT_EQ(system.packaging(), "MCM");
}

TEST(Builders, InvalidArgumentsThrow) {
    EXPECT_THROW(ChipBuilder("c", "7nm").build(), ParameterError);  // no modules
    const Chip chip = ChipBuilder("x", "7nm").module("m", 100.0).build();
    EXPECT_THROW(SystemBuilder("s", "MCM").chips(chip, 0), ParameterError);
    EXPECT_THROW(SystemBuilder("s", "MCM").quantity(-1.0), ParameterError);
    EXPECT_THROW(SystemBuilder("s", "MCM").package_design(""), ParameterError);
}

}  // namespace
}  // namespace chiplet::design
