// Tests for the design-space exploration engines.
#include <gtest/gtest.h>

#include "models/fig2.hpp"
#include "models/synthetic.hpp"
#include "synth/explore.hpp"
#include "synth/from_model.hpp"
#include "synth/strategies.hpp"

namespace spivar::synth {
namespace {

using support::Duration;

/// Table 1 library + apps: the canonical small problem with a known optimum.
struct Table1Fixture {
  ImplLibrary lib = models::table1_library();
  std::vector<Application> apps = models::table1_problem().apps;
};

TEST(ExploreExhaustive, FindsTable1JointOptimum) {
  Table1Fixture f;
  ExploreOptions options;
  options.engine = ExploreEngine::kExhaustive;
  const ExploreResult r = explore(f.lib, f.apps, options);
  ASSERT_TRUE(r.found_feasible);
  EXPECT_DOUBLE_EQ(r.cost.total, 41.0);
  EXPECT_EQ(r.mapping.at("PA"), Target::kHardware);
  EXPECT_EQ(r.mapping.at("PB"), Target::kSoftware);
  EXPECT_EQ(r.mapping.at("cluster1"), Target::kSoftware);
  EXPECT_EQ(r.mapping.at("cluster2"), Target::kSoftware);
  EXPECT_GT(r.decisions, 0);
  EXPECT_EQ(r.engine, "exhaustive");
}

TEST(ExploreExhaustive, KeepsTheFirstOptimumInEnumerationOrder) {
  // Moving either of a and b to hardware is optimal (cost 6). Bit i of the
  // enumeration is free element i in first-seen order, so the first optimum
  // found, and the one kept, puts b in hardware.
  ImplLibrary lib;
  lib.processor_cost = 1.0;
  lib.processor_budget = 1.0;
  lib.add("a", {.sw_load = 0.6, .hw_cost = 5.0});
  lib.add("b", {.sw_load = 0.6, .hw_cost = 5.0});
  ExploreOptions options;
  options.engine = ExploreEngine::kExhaustive;
  const ExploreResult r = explore(lib, {{.name = "x", .elements = {"b", "a"}}}, options);
  ASSERT_TRUE(r.found_feasible);
  EXPECT_DOUBLE_EQ(r.cost.total, 6.0);
  EXPECT_EQ(r.mapping.at("b"), Target::kHardware);
  EXPECT_EQ(r.mapping.at("a"), Target::kSoftware);

  // The lower bit pattern wins a tie even with more elements in hardware,
  // and a later state cheaper by less than 1e-12 ties: with free order c, d,
  // e, pattern 0b011 (c and d in hardware) costs 7 and is found before 0b100
  // (e in hardware), which costs 1e-13 less.
  ImplLibrary tie;
  tie.processor_cost = 1.0;
  tie.processor_budget = 1.0;
  tie.add("c", {.sw_load = 0.5, .hw_cost = 3.0});
  tie.add("d", {.sw_load = 0.5, .hw_cost = 3.0});
  tie.add("e", {.sw_load = 1.0, .hw_cost = 6.0 - 1e-13});
  const ExploreResult t = explore(tie, {{.name = "y", .elements = {"c", "d", "e"}}}, options);
  ASSERT_TRUE(t.found_feasible);
  EXPECT_DOUBLE_EQ(t.cost.total, 7.0);
  EXPECT_EQ(t.mapping.at("c"), Target::kHardware);
  EXPECT_EQ(t.mapping.at("d"), Target::kHardware);
  EXPECT_EQ(t.mapping.at("e"), Target::kSoftware);
}

TEST(ExploreGreedy, MatchesExhaustiveOnTable1) {
  Table1Fixture f;
  ExploreOptions greedy;
  greedy.engine = ExploreEngine::kGreedy;
  const ExploreResult r = explore(f.lib, f.apps, greedy);
  ASSERT_TRUE(r.found_feasible);
  EXPECT_DOUBLE_EQ(r.cost.total, 41.0);
}

TEST(ExploreAnnealing, FeasibleAndNoWorseThanGreedyStart) {
  Table1Fixture f;
  ExploreOptions sa;
  sa.engine = ExploreEngine::kAnnealing;
  sa.seed = 11;
  const ExploreResult r = explore(f.lib, f.apps, sa);
  ASSERT_TRUE(r.found_feasible);
  EXPECT_LE(r.cost.total, 41.0 + 1e-9);  // annealing starts from greedy
}

TEST(ExploreExhaustive, SingleAppOptima) {
  Table1Fixture f;
  ExploreOptions options;
  options.engine = ExploreEngine::kExhaustive;
  const ExploreResult r1 = explore(f.lib, {f.apps[0]}, options);
  EXPECT_DOUBLE_EQ(r1.cost.total, 34.0);  // 15 + hw(cluster1)
  EXPECT_EQ(r1.mapping.at("cluster1"), Target::kHardware);
  const ExploreResult r2 = explore(f.lib, {f.apps[1]}, options);
  EXPECT_DOUBLE_EQ(r2.cost.total, 38.0);  // 15 + hw(cluster2)
}

TEST(Explore, InfeasibleProblemReported) {
  ImplLibrary lib;
  lib.processor_cost = 5.0;
  lib.processor_budget = 1.0;
  lib.add("huge", {.sw_load = 2.0, .hw_cost = 10.0, .can_hw = false});
  const Application app{.name = "a", .elements = {"huge"}};
  ExploreOptions options;
  options.engine = ExploreEngine::kExhaustive;
  const ExploreResult r = explore(lib, {app}, options);
  EXPECT_FALSE(r.found_feasible);
  EXPECT_FALSE(r.cost.feasible);
}

TEST(Explore, CanSwFalseForcesHardware) {
  ImplLibrary lib;
  lib.processor_cost = 5.0;
  lib.add("asic", {.sw_load = 0.1, .hw_cost = 7.0, .can_sw = false});
  const Application app{.name = "a", .elements = {"asic"}};
  ExploreOptions options;
  options.engine = ExploreEngine::kGreedy;
  const ExploreResult r = explore(lib, {app}, options);
  ASSERT_TRUE(r.found_feasible);
  EXPECT_EQ(r.mapping.at("asic"), Target::kHardware);
  EXPECT_DOUBLE_EQ(r.cost.total, 7.0);  // no software -> no processor
}

TEST(ExploreWithFixed, FixedElementsNeverMove) {
  Table1Fixture f;
  Mapping fixed;
  fixed.set("PA", Target::kSoftware);  // forbid the joint optimum's move
  ExploreOptions options;
  options.engine = ExploreEngine::kExhaustive;
  const ExploreResult r = explore_with_fixed(f.lib, f.apps, fixed, options);
  ASSERT_TRUE(r.found_feasible);
  EXPECT_EQ(r.mapping.at("PA"), Target::kSoftware);
  // Next best: both clusters to hardware = superposition cost.
  EXPECT_DOUBLE_EQ(r.cost.total, 57.0);
}

TEST(ExploreWithFixed, NoFeasibleStateReportsEveryFixedEntry) {
  // With x fixed in software, y (software only) overloads application B in
  // every state. Each engine reports a mapping holding the fixed entry, so
  // the incremental strategy can re-design at B instead of failing.
  ImplLibrary lib;
  lib.processor_cost = 10.0;
  lib.processor_budget = 1.0;
  lib.add("x", {.sw_load = 0.6, .hw_cost = 50.0});
  lib.add("y", {.sw_load = 0.6, .hw_cost = 5.0, .can_hw = false});
  const std::vector<Application> apps{{.name = "A", .elements = {"x"}},
                                      {.name = "B", .elements = {"x", "y"}}};
  Mapping fixed;
  fixed.set("x", Target::kSoftware);

  for (const ExploreEngine engine :
       {ExploreEngine::kExhaustive, ExploreEngine::kGreedy, ExploreEngine::kAnnealing}) {
    ExploreOptions options;
    options.engine = engine;
    const ExploreResult r = explore_with_fixed(lib, apps, fixed, options);
    EXPECT_FALSE(r.found_feasible) << to_string(engine);
    EXPECT_FALSE(r.cost.feasible) << to_string(engine);
    EXPECT_EQ(r.mapping.size(), 2u) << to_string(engine);
    EXPECT_EQ(r.mapping.at("x"), Target::kSoftware) << to_string(engine);
    EXPECT_EQ(r.mapping.at("y"), Target::kSoftware) << to_string(engine);

    const StrategyOutcome incremental =
        run_strategy(StrategyKind::kIncremental, lib, apps, {}, options);
    EXPECT_TRUE(incremental.feasible) << to_string(engine);
    EXPECT_DOUBLE_EQ(incremental.cost.total, 60.0) << to_string(engine);
    EXPECT_NE(incremental.detail.find("[re-design at 'B']"), std::string::npos)
        << incremental.detail;
  }
}

TEST(ExploreGreedy, ImprovementPhasePullsBackToSoftware) {
  // Greedy repair moves 'small' to hardware first (best relief score), then
  // 'big'. Since 'keep' pins the processor cost anyway, the improvement
  // phase pulls 'small' back to software: 10 + 20 beats 10 + 22.
  ImplLibrary lib;
  lib.processor_cost = 10.0;
  lib.processor_budget = 1.0;
  lib.add("big", {.sw_load = 1.2, .hw_cost = 20.0});
  lib.add("small", {.sw_load = 0.2, .hw_cost = 2.0});
  lib.add("keep", {.sw_load = 0.1, .hw_cost = 50.0, .can_hw = false});
  const Application app{.name = "a", .elements = {"big", "small", "keep"}};
  ExploreOptions options;
  options.engine = ExploreEngine::kGreedy;
  const ExploreResult r = explore(lib, {app}, options);
  ASSERT_TRUE(r.found_feasible);
  EXPECT_EQ(r.mapping.at("big"), Target::kHardware);
  EXPECT_EQ(r.mapping.at("small"), Target::kSoftware);
  EXPECT_DOUBLE_EQ(r.cost.total, 30.0);
}

TEST(ExploreGreedy, AllHardwareAvoidsProcessorCostWhenCheaper) {
  // With nothing pinned to software, moving the last element to hardware
  // also removes the fixed processor cost: 22 beats 30.
  ImplLibrary lib;
  lib.processor_cost = 10.0;
  lib.processor_budget = 1.0;
  lib.add("big", {.sw_load = 1.2, .hw_cost = 20.0});
  lib.add("small", {.sw_load = 0.2, .hw_cost = 2.0});
  const Application app{.name = "a", .elements = {"big", "small"}};
  ExploreOptions options;
  options.engine = ExploreEngine::kExhaustive;
  const ExploreResult r = explore(lib, {app}, options);
  ASSERT_TRUE(r.found_feasible);
  EXPECT_DOUBLE_EQ(r.cost.total, 22.0);
  EXPECT_TRUE(r.cost.software.empty());
}

TEST(Explore, DecisionCountersMonotoneInProblemSize) {
  // More elements => more examined decisions, for the same engine.
  ImplLibrary lib;
  lib.processor_cost = 1.0;
  lib.processor_budget = 10.0;
  std::vector<Application> small_apps{{.name = "s", .elements = {"e0", "e1"}}};
  std::vector<Application> large_apps{
      {.name = "l", .elements = {"e0", "e1", "e2", "e3", "e4", "e5"}}};
  for (int i = 0; i < 6; ++i) {
    lib.add("e" + std::to_string(i), {.sw_load = 0.1, .hw_cost = 5.0});
  }
  ExploreOptions options;
  options.engine = ExploreEngine::kExhaustive;
  const auto small_result = explore(lib, small_apps, options);
  const auto large_result = explore(lib, large_apps, options);
  EXPECT_LT(small_result.decisions, large_result.decisions);
}

TEST(Explore, ExhaustiveFallsBackToGreedyAboveLimit) {
  ImplLibrary lib;
  lib.processor_cost = 1.0;
  lib.processor_budget = 100.0;
  Application app{.name = "a"};
  for (int i = 0; i < 25; ++i) {
    const std::string name = "e" + std::to_string(i);
    lib.add(name, {.sw_load = 0.5, .hw_cost = 3.0});
    app.elements.push_back(name);
  }
  ExploreOptions options;
  options.engine = ExploreEngine::kExhaustive;
  options.exhaustive_limit = 20;
  const ExploreResult r = explore(lib, {app}, options);
  EXPECT_EQ(r.engine, "greedy");
  EXPECT_TRUE(r.found_feasible);
}

TEST(Explore, ExhaustiveAtSixtyFourFreeElementsOrMoreFallsBackToGreedy) {
  // 40 shared processes + 8 variants x 4 = 72 elements. The exhaustive
  // counter is 64 bits wide, so a request limit above 63 must not reach it.
  const variant::VariantModel model = models::make_synthetic(
      {.shared_processes = 40, .variants = 8, .cluster_size = 4});
  const ImplLibrary lib = models::make_synthetic_library(model);
  const SynthesisProblem problem =
      problem_from_model(model, {.granularity = ElementGranularity::kProcess});
  ASSERT_EQ(problem.element_union().size(), 72u);

  ExploreOptions options;
  options.engine = ExploreEngine::kExhaustive;
  options.exhaustive_limit = 100;
  const ExploreResult r = explore(lib, problem.apps, options);
  EXPECT_EQ(r.engine, "greedy");
  EXPECT_TRUE(r.found_feasible);

  ExploreOptions greedy;
  greedy.engine = ExploreEngine::kGreedy;
  const ExploreResult g = explore(lib, problem.apps, greedy);
  EXPECT_EQ(r.mapping, g.mapping);
  EXPECT_EQ(r.evaluations, g.evaluations);
}

TEST(ExploreAnnealing, DeterministicForSeed) {
  Table1Fixture f;
  ExploreOptions sa;
  sa.engine = ExploreEngine::kAnnealing;
  sa.seed = 99;
  const ExploreResult a = explore(f.lib, f.apps, sa);
  const ExploreResult b = explore(f.lib, f.apps, sa);
  EXPECT_EQ(a.cost.total, b.cost.total);
  EXPECT_EQ(a.mapping, b.mapping);
  EXPECT_EQ(a.decisions, b.decisions);
}

}  // namespace
}  // namespace spivar::synth
