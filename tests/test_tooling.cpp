// Tests for the tooling layer: variant-aware DOT, model statistics,
// per-binding utilization reports, and the cache-stats rendering the CLI's
// `cache-stats` command prints.
#include <gtest/gtest.h>

#include <chrono>

#include "api/api.hpp"
#include "models/emission_control.hpp"
#include "models/fig1.hpp"
#include "models/fig2.hpp"
#include "models/multistandard_tv.hpp"
#include "analysis/buffer_sizing.hpp"
#include "models/video_system.hpp"
#include "sim/engine.hpp"
#include "spi/builder.hpp"
#include "spi/statistics.hpp"
#include "synth/strategies.hpp"
#include "synth/utilization.hpp"
#include "variant/dot.hpp"

namespace spivar {
namespace {

// --- variant DOT ----------------------------------------------------------

TEST(VariantDot, ClustersRenderAsSubgraphBoxes) {
  const variant::VariantModel m = models::make_fig2();
  const std::string dot = variant::to_dot(m);
  EXPECT_NE(dot.find("subgraph cluster_iface0"), std::string::npos);
  EXPECT_NE(dot.find("label=\"cluster1"), std::string::npos);
  EXPECT_NE(dot.find("label=\"cluster2"), std::string::npos);
  EXPECT_NE(dot.find("label=\"interface theta"), std::string::npos);
  // Common-part processes outside the boxes.
  EXPECT_NE(dot.find("PA"), std::string::npos);
  EXPECT_NE(dot.find("PB"), std::string::npos);
}

TEST(VariantDot, SelectionRulesAnnotated) {
  const variant::VariantModel m = models::make_fig3();
  const std::string dot = variant::to_dot(m);
  EXPECT_NE(dot.find("r1 -> cluster1"), std::string::npos);
  EXPECT_NE(dot.find("r2 -> cluster2"), std::string::npos);

  variant::VariantDotOptions options;
  options.show_selection_rules = false;
  const std::string quiet = variant::to_dot(m, options);
  EXPECT_EQ(quiet.find("r1 -> cluster1"), std::string::npos);
}

TEST(VariantDot, ConfLatencyShownOnClusters) {
  const variant::VariantModel m = models::make_fig3();
  const std::string dot = variant::to_dot(m);
  EXPECT_NE(dot.find("t_conf 2ms"), std::string::npos);
  EXPECT_NE(dot.find("t_conf 3ms"), std::string::npos);
}

TEST(VariantDot, EveryProcessAppearsExactlyOnce) {
  const variant::VariantModel m = models::make_multistandard_tv();
  const std::string dot = variant::to_dot(m);
  for (auto pid : m.graph().process_ids()) {
    const std::string node = "p" + std::to_string(pid.value()) + " [shape=box";
    const auto first = dot.find(node);
    ASSERT_NE(first, std::string::npos) << m.graph().process(pid).name;
    EXPECT_EQ(dot.find(node, first + 1), std::string::npos) << m.graph().process(pid).name;
  }
}

// --- statistics ----------------------------------------------------------------

TEST(Statistics, Fig1Summary) {
  const auto stats = spi::collect_statistics(models::make_fig1());
  EXPECT_EQ(stats.processes, 4u);  // PSrc, p1, p2, p3
  EXPECT_EQ(stats.virtual_processes, 1u);
  EXPECT_EQ(stats.channels, 3u);
  EXPECT_EQ(stats.registers, 0u);
  EXPECT_EQ(stats.modes, 5u);  // 1 + 1 + 2 + 1
  EXPECT_EQ(stats.activation_rules, 2u);
  EXPECT_EQ(stats.explicit_rule_processes, 1u);
  // Figure 1 is fully determinate once modes refine p2.
  EXPECT_DOUBLE_EQ(stats.determinacy(), 1.0);
}

TEST(Statistics, IntervalParametersLowerDeterminacy) {
  spi::GraphBuilder b;
  auto c = b.queue("c");
  b.process("p")
      .latency(support::DurationInterval{support::Duration::millis(1),
                                         support::Duration::millis(5)})
      .consumes(c, support::Interval{1, 3});
  const auto stats = spi::collect_statistics(b.take());
  EXPECT_EQ(stats.total_parameters, 2u);
  EXPECT_EQ(stats.point_parameters, 0u);
  EXPECT_DOUBLE_EQ(stats.determinacy(), 0.0);
}

TEST(Statistics, CountsConfigurationsAndRegisters) {
  const auto stats = spi::collect_statistics(models::make_video_system({}));
  EXPECT_EQ(stats.configurations, 4u);  // P1 and P2, two variants each
  EXPECT_GE(stats.registers, 5u);       // CCTRL, CIn, COut, R1, R2, RU
  EXPECT_GT(stats.activation_rules, 10u);
}

TEST(Statistics, ToStringMentionsEverything) {
  const auto stats = spi::collect_statistics(models::make_fig1());
  const std::string s = stats.to_string();
  EXPECT_NE(s.find("4 processes"), std::string::npos);
  EXPECT_NE(s.find("determinacy 100%"), std::string::npos);
}

// --- utilization ------------------------------------------------------------------

TEST(Utilization, Table1MappingHeadrooms) {
  const variant::VariantModel model = models::make_fig2();
  const synth::ImplLibrary lib = models::table1_library();

  // The paper's row-4 mapping: PA hardware, rest software.
  synth::Mapping mapping;
  mapping.set("PA", synth::Target::kHardware)
      .set("PB", synth::Target::kSoftware)
      .set("cluster1", synth::Target::kSoftware)
      .set("cluster2", synth::Target::kSoftware);

  const auto report = synth::analyze_utilization(model, lib, mapping);
  ASSERT_EQ(report.bindings.size(), 2u);
  EXPECT_TRUE(report.all_feasible());
  // Variant 1: PB + cluster1 = 0.9; variant 2: PB + cluster2 = 0.95.
  EXPECT_NEAR(report.bindings[0].software_load, 0.9, 1e-9);
  EXPECT_NEAR(report.bindings[1].software_load, 0.95, 1e-9);
  EXPECT_EQ(report.bottleneck, 1u);
  EXPECT_NEAR(report.worst().headroom, 0.05, 1e-9);
}

TEST(Utilization, OverloadFlagsInfeasible) {
  const variant::VariantModel model = models::make_fig2();
  const synth::ImplLibrary lib = models::table1_library();
  synth::Mapping all_sw;
  for (const char* e : {"PA", "PB", "cluster1", "cluster2"}) {
    all_sw.set(e, synth::Target::kSoftware);
  }
  const auto report = synth::analyze_utilization(model, lib, all_sw);
  EXPECT_FALSE(report.all_feasible());
  EXPECT_LT(report.worst().headroom, 0.0);
}

TEST(Utilization, AgreesWithStrategyOutcome) {
  // The mapping found by joint synthesis must be feasible in the
  // utilization report too (cross-module consistency).
  const variant::VariantModel model = models::make_emission_control();
  const synth::ImplLibrary lib = models::emission_library();
  const auto problem = synth::problem_from_model(
      model, {.granularity = synth::ElementGranularity::kProcess});
  synth::ExploreOptions options;
  options.engine = synth::ExploreEngine::kExhaustive;
  const auto outcome = synth::synthesize_with_variants(lib, problem.apps, options);
  ASSERT_TRUE(outcome.feasible);

  const auto report = synth::analyze_utilization(model, lib, outcome.mapping,
                                                 synth::ElementGranularity::kProcess);
  EXPECT_TRUE(report.all_feasible());
  EXPECT_EQ(report.bindings.size(), 3u);
}

// --- cache stats rendering ---------------------------------------------------

TEST(CacheStatsRender, TableCarriesCountersAndHitRate) {
  api::Session session;
  session.enable_cache({.capacity = 16});
  const auto loaded = session.load(api::ModelSpec{"fig1"});
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(session.simulate({.model = loaded.value().id}).ok());  // miss
  ASSERT_TRUE(session.simulate({.model = loaded.value().id}).ok());  // hit

  const auto stats = session.cache_stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->hits, 1u);
  EXPECT_EQ(stats->misses, 1u);
  EXPECT_DOUBLE_EQ(stats->hit_rate(), 0.5);

  const std::string text = api::render(*stats);
  EXPECT_NE(text.find("hits"), std::string::npos);
  EXPECT_NE(text.find("misses"), std::string::npos);
  EXPECT_NE(text.find("evictions"), std::string::npos);
  EXPECT_NE(text.find("50.0%"), std::string::npos);
}

TEST(CacheStatsRender, ZeroLookupsRenderAsZeroRate) {
  const api::CacheStats empty{.capacity = 8};
  EXPECT_DOUBLE_EQ(empty.hit_rate(), 0.0);
  EXPECT_NE(api::render(empty).find("0.0%"), std::string::npos);
}

TEST(CacheStatsRender, CostAccountingColumnsRender) {
  api::CacheStats stats;
  stats.cached_cost_us = 2'000;     // renders as 2ms
  stats.saved_cost_us = 1'500;      // renders as 1500us
  stats.evicted_cost_us = 3'000;
  const std::string text = api::render(stats);
  EXPECT_NE(text.find("cached cost"), std::string::npos);
  EXPECT_NE(text.find("saved cost"), std::string::npos);
  EXPECT_NE(text.find("evicted cost"), std::string::npos);
  EXPECT_NE(text.find("2ms"), std::string::npos);
  EXPECT_NE(text.find("1500us"), std::string::npos);
  EXPECT_NE(text.find("3ms"), std::string::npos);
}

// --- executor stats rendering ------------------------------------------------

TEST(ExecutorStatsRender, TableCarriesDeadlineTelemetry) {
  api::ExecutorStats stats;
  stats.completed = 8;
  stats.deadline_misses = 2;
  stats.max_lateness = std::chrono::microseconds{1'500};
  stats.total_lateness = std::chrono::microseconds{2'000};
  EXPECT_DOUBLE_EQ(stats.miss_rate(), 0.25);

  const std::string text = api::render(stats);
  EXPECT_NE(text.find("completed"), std::string::npos);
  EXPECT_NE(text.find("deadline misses"), std::string::npos);
  EXPECT_NE(text.find("25.0%"), std::string::npos);
  EXPECT_NE(text.find("1500us"), std::string::npos);
  EXPECT_NE(text.find("2ms"), std::string::npos);
}

TEST(ExecutorStatsRender, FreshExecutorRendersZeroes) {
  api::SerialExecutor serial;
  const std::string text = api::render(serial.stats());
  EXPECT_NE(text.find("0.0%"), std::string::npos);
}

// --- buffer sizing -----------------------------------------------------------

TEST(BufferSizing, RecommendsPeakPlusMargin) {
  spi::GraphBuilder b;
  auto cin = b.queue("cin").initial(1);
  auto mid = b.queue("mid");
  b.process("burst")
      .latency(support::DurationInterval{support::Duration::millis(1)})
      .consumes(cin, 1)
      .produces(mid, 10);
  b.process("drain")
      .latency(support::DurationInterval{support::Duration::millis(1)})
      .consumes(mid, 2);
  const spi::Graph g = b.take();

  const auto recs = analysis::recommend_capacities(g);
  ASSERT_EQ(recs.size(), 2u);  // two queues, no registers
  const auto& mid_rec = recs[1];
  EXPECT_EQ(mid_rec.name, "mid");
  EXPECT_EQ(mid_rec.observed_peak, 10);
  EXPECT_EQ(mid_rec.recommended, 11);
}

TEST(BufferSizing, AppliedCapacitiesDoNotChangeBehavior) {
  // Sizing with margin, then re-running under the same policy, must not
  // alter the outcome (capacities above the high-water mark never bind).
  const spi::Graph g = models::make_fig1({.tag = 'b', .source_firings = 15});
  const auto recs = analysis::recommend_capacities(g);
  const spi::Graph sized = analysis::apply_capacities(g, recs);

  for (const auto& rec : recs) {
    EXPECT_EQ(sized.channel(*sized.find_channel(rec.name)).capacity, rec.recommended);
  }

  sim::SimOptions options;
  options.resolution = sim::Resolution::kUpperBound;
  sim::SimResult before = sim::Simulator{g, options}.run();
  sim::SimResult after = sim::Simulator{sized, options}.run();
  EXPECT_EQ(before.total_firings, after.total_firings);
  EXPECT_EQ(before.end_time, after.end_time);
}

TEST(BufferSizing, RegistersOmitted) {
  spi::GraphBuilder b;
  b.reg("state").initial(1, {"x"});
  auto q = b.queue("q").initial(2);
  b.process("p")
      .latency(support::DurationInterval{support::Duration::millis(1)})
      .consumes(q, 1);
  const auto recs = analysis::recommend_capacities(b.take());
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].name, "q");
}

}  // namespace
}  // namespace spivar
