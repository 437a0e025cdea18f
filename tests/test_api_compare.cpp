// Session::compare (the strategy-comparison endpoint) and the typed
// per-model option plumbing of load(ModelSpec).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "api/api.hpp"

namespace spivar {
namespace {

using api::Session;
using synth::StrategyKind;

// --- compare: Table 1 reproduction ------------------------------------------

class CompareOrdering : public ::testing::TestWithParam<const char*> {};

TEST_P(CompareOrdering, VariantAwareBeatsSuperpositionBeatsSerialized) {
  Session session;
  const auto loaded = session.load(api::ModelSpec{GetParam()});
  ASSERT_TRUE(loaded.ok()) << loaded.error_summary();

  api::CompareRequest request{.model = loaded.value().id};
  request.options.engine = synth::ExploreEngine::kExhaustive;
  const auto compared = session.compare(request);
  ASSERT_TRUE(compared.ok()) << compared.error_summary();
  const api::CompareResponse& response = compared.value();

  // All five strategies ran: one row per application for independent, one
  // system row for each of the other four.
  EXPECT_EQ(response.rows.size(), response.applications + 4);
  EXPECT_EQ(response.ranking.size(), 4u);
  for (const auto& row : response.rows) {
    EXPECT_GT(row.decisions, 0) << row.strategy;
    EXPECT_GT(row.evaluations, 0) << row.strategy;
    EXPECT_TRUE(row.outcome.feasible) << row.strategy;
  }

  // The paper's ordering: variant-aware cost <= superposition <= serialized.
  const auto* with_variants = response.find("with-variants");
  const auto* superposition = response.find("superposition");
  const auto* serialized = response.find("serialized");
  ASSERT_NE(with_variants, nullptr);
  ASSERT_NE(superposition, nullptr);
  ASSERT_NE(serialized, nullptr);
  EXPECT_LE(with_variants->outcome.cost.total, superposition->outcome.cost.total);
  EXPECT_LE(superposition->outcome.cost.total, serialized->outcome.cost.total);

  // The winner of the ranking is the variant-aware strategy (possibly tied
  // with incremental; ranking prefers canonical order on ties).
  ASSERT_NE(response.best(), nullptr);
  EXPECT_EQ(response.best()->outcome.cost.total, with_variants->outcome.cost.total);
}

INSTANTIATE_TEST_SUITE_P(PaperModels, CompareOrdering,
                         ::testing::Values("fig2", "multistandard_tv"));

TEST(ApiCompare, Fig2ReproducesTable1Totals) {
  Session session;
  const auto loaded = session.load(api::ModelSpec{"fig2"});
  ASSERT_TRUE(loaded.ok());

  api::CompareRequest request{.model = loaded.value().id};
  request.options.engine = synth::ExploreEngine::kExhaustive;
  const auto compared = session.compare(request);
  ASSERT_TRUE(compared.ok()) << compared.error_summary();
  const api::CompareResponse& response = compared.value();

  ASSERT_EQ(response.applications, 2u);
  EXPECT_EQ(response.library_origin, "curated");
  // Independent rows carry the per-application costs (Table 1 rows 1-2).
  ASSERT_FALSE(response.rows.empty());
  EXPECT_EQ(response.rows[0].strategy, "independent");
  EXPECT_DOUBLE_EQ(response.rows[0].outcome.cost.total, 34.0);
  EXPECT_DOUBLE_EQ(response.rows[1].outcome.cost.total, 38.0);
  EXPECT_DOUBLE_EQ(response.find("superposition")->outcome.cost.total, 57.0);
  EXPECT_DOUBLE_EQ(response.find("with-variants")->outcome.cost.total, 41.0);
  EXPECT_EQ(response.best()->strategy, "with-variants");
}

TEST(ApiCompare, AllOrdersSweepsPermutationsAndAccumulatesEffort) {
  Session session;
  const auto loaded = session.load(api::ModelSpec{"fig2"});
  ASSERT_TRUE(loaded.ok());

  api::CompareRequest identity{.model = loaded.value().id};
  identity.options.engine = synth::ExploreEngine::kExhaustive;
  identity.strategies = {StrategyKind::kSerialized, StrategyKind::kIncremental};
  const auto single = session.compare(identity);
  ASSERT_TRUE(single.ok());

  api::CompareRequest swept = identity;
  swept.all_orders = true;
  const auto all = session.compare(swept);
  ASSERT_TRUE(all.ok());

  for (const auto& row : all.value().rows) {
    EXPECT_EQ(row.orders_tried, 2u) << row.strategy;  // 2 applications -> 2 orders
    EXPECT_GE(row.worst_total, row.outcome.cost.total) << row.strategy;
    // Design effort accumulates over every order tried.
    const auto* base = single.value().find(row.strategy);
    ASSERT_NE(base, nullptr);
    EXPECT_GT(row.decisions, base->decisions) << row.strategy;
    // The best-over-orders outcome is never worse than the identity order.
    EXPECT_LE(row.outcome.cost.total, base->outcome.cost.total) << row.strategy;
  }
}

TEST(ApiCompare, PerOrderOutcomeListExposesOrderSensitivity) {
  Session session;
  const auto loaded = session.load(api::ModelSpec{"fig2"});
  ASSERT_TRUE(loaded.ok());

  api::CompareRequest request{.model = loaded.value().id};
  request.options.engine = synth::ExploreEngine::kExhaustive;
  request.strategies = {StrategyKind::kSerialized, StrategyKind::kIncremental,
                        StrategyKind::kWithVariants};
  request.all_orders = true;
  const auto compared = session.compare(request);
  ASSERT_TRUE(compared.ok()) << compared.error_summary();

  for (const auto& row : compared.value().rows) {
    if (!synth::order_sensitive(*synth::parse_strategy(row.strategy))) {
      EXPECT_TRUE(row.per_order.empty()) << row.strategy;  // only the baselines
      continue;
    }
    // One entry per tried order, identity first, and the summary columns
    // must be consistent with the list.
    ASSERT_EQ(row.per_order.size(), row.orders_tried) << row.strategy;
    ASSERT_EQ(row.per_order.size(), 2u) << row.strategy;  // 2 apps -> 2 orders
    EXPECT_EQ(row.per_order.front().order, (std::vector<std::size_t>{0, 1})) << row.strategy;
    EXPECT_EQ(row.per_order.back().order, (std::vector<std::size_t>{1, 0})) << row.strategy;
    double best = row.per_order.front().total;
    double worst = row.per_order.front().total;
    for (const auto& tried : row.per_order) {
      EXPECT_GT(tried.decisions, 0) << row.strategy;
      best = std::min(best, tried.total);
      worst = std::max(worst, tried.total);
    }
    EXPECT_DOUBLE_EQ(row.outcome.cost.total, best) << row.strategy;
    EXPECT_DOUBLE_EQ(row.worst_total, worst) << row.strategy;
  }

  // Without a sweep the list still records the single identity run.
  api::CompareRequest identity = request;
  identity.all_orders = false;
  const auto single = session.compare(identity);
  ASSERT_TRUE(single.ok());
  const auto* serialized = single.value().find("serialized");
  ASSERT_NE(serialized, nullptr);
  // find() returns the row; locate it again to read per_order.
  for (const auto& row : single.value().rows) {
    if (synth::order_sensitive(*synth::parse_strategy(row.strategy))) {
      ASSERT_EQ(row.per_order.size(), 1u) << row.strategy;
      EXPECT_TRUE(row.per_order.front().order.empty()) << row.strategy;
    }
  }
}

TEST(ApiCompare, MultiObjectiveRankingOrdersByTheObjectiveChain) {
  Session session;
  const auto loaded = session.load(api::ModelSpec{"multistandard_tv"});
  ASSERT_TRUE(loaded.ok());

  api::CompareRequest request{.model = loaded.value().id};
  request.options.engine = synth::ExploreEngine::kExhaustive;
  request.objectives = {synth::RankObjective::kTotalCost,
                        synth::RankObjective::kWorstUtilization,
                        synth::RankObjective::kDesignTime};
  const auto compared = session.compare(request);
  ASSERT_TRUE(compared.ok()) << compared.error_summary();
  const api::CompareResponse& response = compared.value();
  EXPECT_EQ(response.objectives, request.objectives);  // echoed for renderers

  // The ranking must be consistent with the objective chain: no later row
  // strictly beats an earlier one.
  ASSERT_FALSE(response.ranking.empty());
  for (std::size_t i = 1; i < response.ranking.size(); ++i) {
    const auto& earlier = response.rows[response.ranking[i - 1]].outcome;
    const auto& later = response.rows[response.ranking[i]].outcome;
    EXPECT_FALSE(synth::better_outcome(later, earlier, request.objectives)) << i;
  }

  // The default (cost-only) ranking keeps the classic Table 1 winner.
  const auto classic = session.compare({.model = loaded.value().id});
  ASSERT_TRUE(classic.ok());
  ASSERT_NE(classic.value().best(), nullptr);
  EXPECT_EQ(classic.value().best()->strategy, "with-variants");
}

TEST(StrategyKinds, MultiObjectiveOutcomeComparison) {
  synth::StrategyOutcome cheap;
  cheap.feasible = true;
  cheap.cost.total = 40.0;
  cheap.cost.worst_utilization = 0.9;
  cheap.decisions = 100;

  synth::StrategyOutcome headroom = cheap;
  headroom.cost.worst_utilization = 0.5;
  headroom.decisions = 200;

  synth::StrategyOutcome infeasible = cheap;
  infeasible.feasible = false;
  infeasible.cost.total = 1.0;

  // Feasibility dominates every objective chain.
  EXPECT_TRUE(synth::better_outcome(cheap, infeasible));
  EXPECT_FALSE(synth::better_outcome(infeasible, cheap, {synth::RankObjective::kTotalCost}));

  // Cost tie: the default (cost-only) chain sees them as equal both ways —
  // stable sorts keep presentation order — while a utilization tie-break
  // prefers the headroom, and a time tie-break the cheaper search.
  EXPECT_FALSE(synth::better_outcome(cheap, headroom));
  EXPECT_FALSE(synth::better_outcome(headroom, cheap));
  EXPECT_TRUE(synth::better_outcome(
      headroom, cheap,
      {synth::RankObjective::kTotalCost, synth::RankObjective::kWorstUtilization}));
  EXPECT_TRUE(synth::better_outcome(
      cheap, headroom, {synth::RankObjective::kTotalCost, synth::RankObjective::kDesignTime}));

  // Objective parsing round-trips with aliases.
  for (synth::RankObjective objective : synth::kAllObjectives) {
    EXPECT_EQ(synth::parse_objective(synth::to_string(objective)), objective);
  }
  EXPECT_EQ(synth::parse_objective("util"), synth::RankObjective::kWorstUtilization);
  EXPECT_EQ(synth::parse_objective("decisions"), synth::RankObjective::kDesignTime);
  EXPECT_FALSE(synth::parse_objective("bogus").has_value());
}

TEST(ApiCompare, MaxOrdersCapsThePermutationSweep) {
  Session session;
  const auto loaded = session.load(api::ModelSpec{"multistandard_tv"});  // 3 applications
  ASSERT_TRUE(loaded.ok());

  api::CompareRequest request{.model = loaded.value().id};
  request.strategies = {StrategyKind::kSerialized};
  request.all_orders = true;
  request.max_orders = 4;
  const auto compared = session.compare(request);
  ASSERT_TRUE(compared.ok()) << compared.error_summary();
  EXPECT_EQ(compared.value().find("serialized")->orders_tried, 4u);  // 6 capped to 4
}

TEST(ApiCompare, SubsetIsDeduplicatedAndOrdered) {
  Session session;
  const auto loaded = session.load(api::ModelSpec{"fig2"});
  ASSERT_TRUE(loaded.ok());

  api::CompareRequest request{.model = loaded.value().id};
  request.strategies = {StrategyKind::kWithVariants, StrategyKind::kWithVariants,
                        StrategyKind::kSuperposition};
  const auto compared = session.compare(request);
  ASSERT_TRUE(compared.ok());
  ASSERT_EQ(compared.value().rows.size(), 2u);
  EXPECT_EQ(compared.value().rows[0].strategy, "with-variants");
  EXPECT_EQ(compared.value().rows[1].strategy, "superposition");
}

TEST(ApiCompare, UnknownModelAndBadLibraryComeBackAsDiagnostics) {
  Session session;
  EXPECT_NO_THROW({
    const auto orphan = session.compare({.model = api::ModelId{777}});
    ASSERT_FALSE(orphan.ok());
    EXPECT_TRUE(orphan.diagnostics().has_code(api::diag::kUnknownModel));

    const auto loaded = session.load(api::ModelSpec{"fig2"});
    ASSERT_TRUE(loaded.ok());
    api::CompareRequest request{.model = loaded.value().id};
    request.library = synth::ImplLibrary{};  // empty: no entry for any element
    const auto compared = session.compare(request);
    ASSERT_FALSE(compared.ok());
    EXPECT_TRUE(compared.diagnostics().has_code(api::diag::kModelError));
  });
}

TEST(ApiCompare, RenderedTableMentionsEveryStrategy) {
  Session session;
  const auto loaded = session.load(api::ModelSpec{"fig2"});
  ASSERT_TRUE(loaded.ok());
  const auto compared = session.compare({.model = loaded.value().id});
  ASSERT_TRUE(compared.ok());
  const std::string text = api::render(compared.value());
  for (synth::StrategyKind kind : synth::kAllStrategies) {
    EXPECT_NE(text.find(synth::to_string(kind)), std::string::npos) << synth::to_string(kind);
  }
  EXPECT_NE(text.find("best system strategy"), std::string::npos);
}

// --- strategy kind utilities ------------------------------------------------

TEST(StrategyKinds, ParseRoundTripsAndAliases) {
  for (StrategyKind kind : synth::kAllStrategies) {
    const auto parsed = synth::parse_strategy(synth::to_string(kind));
    ASSERT_TRUE(parsed.has_value()) << synth::to_string(kind);
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_EQ(synth::parse_strategy("variant-aware"), StrategyKind::kWithVariants);
  EXPECT_FALSE(synth::parse_strategy("bogus").has_value());
  EXPECT_TRUE(synth::order_sensitive(StrategyKind::kSerialized));
  EXPECT_FALSE(synth::order_sensitive(StrategyKind::kWithVariants));
}

TEST(StrategyKinds, ApplicationOrdersIdentityFirstAndCapped) {
  const auto all = synth::application_orders(3);
  ASSERT_EQ(all.size(), 6u);
  EXPECT_EQ(all.front(), (std::vector<std::size_t>{0, 1, 2}));
  const auto capped = synth::application_orders(4, 5);
  EXPECT_EQ(capped.size(), 5u);
  EXPECT_EQ(synth::application_orders(0).size(), 1u);  // the empty identity
}

// --- typed builtin options ---------------------------------------------------

TEST(BuiltinOptions, NonDefaultSpecChangesTheLoadedModel) {
  Session session;
  const auto plain = session.load(api::ModelSpec{"synthetic"});
  const auto wide = session.load(api::ModelSpec{
      .name = "synthetic",
      .options = models::SyntheticSpec{.interfaces = 2, .variants = 4}});
  ASSERT_TRUE(plain.ok() && wide.ok());
  EXPECT_GT(wide.value().processes, plain.value().processes);
  EXPECT_GT(wide.value().interfaces, plain.value().interfaces);
  EXPECT_GT(wide.value().clusters, plain.value().clusters);
}

TEST(BuiltinOptions, OptionsChangeSimulatedBehavior) {
  Session session;
  const auto quiet = session.load(api::ModelSpec{
      .name = "fig1", .options = models::Fig1Options{.tagged = false}});
  const auto tagged = session.load(api::ModelSpec{"fig1"});
  ASSERT_TRUE(quiet.ok() && tagged.ok());
  const auto runs =
      session.call_batch({{.payload = api::SimulateRequest{.model = quiet.value().id}},
                          {.payload = api::SimulateRequest{.model = tagged.value().id}}});
  ASSERT_TRUE(runs[0].ok() && runs[1].ok());
  // Untagged tokens never enable p2: the untagged run fires strictly less.
  EXPECT_LT(std::get<api::SimulateResponse>(runs[0].value()).result.total_firings,
            std::get<api::SimulateResponse>(runs[1].value()).result.total_firings);
}

TEST(BuiltinOptions, MismatchedStructFailsWithDiagnostics) {
  Session session;
  EXPECT_NO_THROW({
    const auto wrong = session.load(api::ModelSpec{
        .name = "fig2", .options = models::VideoOptions{}});
    ASSERT_FALSE(wrong.ok());
    EXPECT_TRUE(wrong.diagnostics().has_code(api::diag::kModelError));
  });
}

TEST(BuiltinOptions, ParseAssignmentsIntoTypedStruct) {
  const auto parsed = api::parse_builtin_options(
      "video_system", {"frames=10", "input_valve=false", "t_conf_ms=2.5"});
  ASSERT_TRUE(parsed.ok()) << parsed.error_summary();
  const auto* video = std::get_if<models::VideoOptions>(&parsed.value());
  ASSERT_NE(video, nullptr);
  EXPECT_EQ(video->frames, 10);
  EXPECT_FALSE(video->input_valve);
  EXPECT_EQ(video->t_conf.count(), 2500);  // microseconds
  EXPECT_TRUE(video->output_valve);        // untouched fields keep defaults
}

TEST(BuiltinOptions, ParseRejectsUnknownKeysAndBadValues) {
  const auto unknown_key = api::parse_builtin_options("fig1", {"bogus=1"});
  ASSERT_FALSE(unknown_key.ok());
  EXPECT_TRUE(unknown_key.diagnostics().has_code(api::diag::kBadOption));

  const auto bad_value = api::parse_builtin_options("fig1", {"source_firings=ten"});
  ASSERT_FALSE(bad_value.ok());
  EXPECT_TRUE(bad_value.diagnostics().has_code(api::diag::kBadOption));

  const auto no_equals = api::parse_builtin_options("fig1", {"source_firings"});
  ASSERT_FALSE(no_equals.ok());

  const auto unknown_model = api::parse_builtin_options("nope", {"x=1"});
  ASSERT_FALSE(unknown_model.ok());
  EXPECT_TRUE(unknown_model.diagnostics().has_code(api::diag::kUnknownBuiltin));
}

TEST(BuiltinOptions, EveryBuiltinPublishesOptionKeys) {
  for (const std::string& name : Session::builtins()) {
    EXPECT_FALSE(api::builtin_option_keys(name).empty()) << name;
  }
  EXPECT_TRUE(api::builtin_option_keys("nope").empty());
}

}  // namespace
}  // namespace spivar
