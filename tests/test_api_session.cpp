// api::Session round-trip and boundary tests.
//
// The session facade's contract: every pipeline stage behind one typed
// entry point, batch evaluation over scenario sets, and *no exception
// crossing the boundary* — failures come back as diagnostics.
#include <gtest/gtest.h>

#include <string>

#include "api/api.hpp"
#include "sim/engine.hpp"
#include "spi/builder.hpp"
#include "spi/graph.hpp"
#include "spi/textio.hpp"
#include "spi/validate.hpp"

namespace spivar {
namespace {

using api::ModelId;
using api::Session;

api::AnyRequest simulate_on(ModelId model) {
  return {.payload = api::SimulateRequest{.model = model}};
}

const sim::SimResult& simulated(const api::Result<api::AnyResponse>& result) {
  return std::get<api::SimulateResponse>(result.value()).result;
}

// --- round trips -----------------------------------------------------------

class RoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(RoundTrip, LoadValidateSimulateExplore) {
  Session session;
  const auto loaded = session.load_builtin(GetParam());
  ASSERT_TRUE(loaded.ok()) << loaded.error_summary();
  const ModelId id = loaded.value().id;
  EXPECT_GT(loaded.value().processes, 0u);

  const auto validated = session.validate(id);
  ASSERT_TRUE(validated.ok()) << validated.error_summary();
  EXPECT_FALSE(validated.value().has_errors());

  const auto simulated = session.simulate({.model = id});
  ASSERT_TRUE(simulated.ok()) << simulated.error_summary();
  EXPECT_GT(simulated.value().result.total_firings, 0);
  EXPECT_EQ(simulated.value().processes.size(), loaded.value().processes);

  // Explore works even without a curated library (fig1, video_system fall
  // back to a derived one covering every non-virtual process).
  const auto explored = session.explore({.model = id});
  ASSERT_TRUE(explored.ok()) << explored.error_summary();
  EXPECT_GT(explored.value().elements, 0u);
  EXPECT_GT(explored.value().result.decisions, 0);

  const auto front = session.pareto({.model = id});
  ASSERT_TRUE(front.ok()) << front.error_summary();
}

INSTANTIATE_TEST_SUITE_P(Builtins, RoundTrip,
                         ::testing::Values("fig1", "fig2", "fig3", "video_system",
                                           "multistandard_tv", "emission_control", "synthetic"));

TEST(ApiSession, TextRoundTripPreservesBehavior) {
  Session session;
  const auto original = session.load_builtin("fig1");
  ASSERT_TRUE(original.ok());
  const auto text = session.write_text(original.value().id);
  ASSERT_TRUE(text.ok());

  const auto reparsed = session.load_text(text.value(), "fig1-reparsed");
  ASSERT_TRUE(reparsed.ok()) << reparsed.error_summary();
  EXPECT_EQ(reparsed.value().name, "fig1-reparsed");
  EXPECT_EQ(reparsed.value().processes, original.value().processes);

  const auto runs =
      session.call_batch({simulate_on(original.value().id), simulate_on(reparsed.value().id)});
  ASSERT_TRUE(runs[0].ok() && runs[1].ok());
  EXPECT_EQ(simulated(runs[0]).total_firings, simulated(runs[1]).total_firings);
  EXPECT_EQ(simulated(runs[0]).end_time, simulated(runs[1]).end_time);
}

TEST(ApiSession, ExploreFig2ReproducesTable1JointCost) {
  Session session;
  const auto loaded = session.load_builtin("fig2");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().interfaces, 1u);
  EXPECT_EQ(loaded.value().clusters, 2u);

  api::ExploreRequest request{.model = loaded.value().id};
  request.options.engine = synth::ExploreEngine::kExhaustive;
  const auto explored = session.explore(request);
  ASSERT_TRUE(explored.ok()) << explored.error_summary();
  EXPECT_TRUE(explored.value().result.found_feasible);
  EXPECT_DOUBLE_EQ(explored.value().result.cost.total, 41.0);  // paper's Table 1
  EXPECT_EQ(explored.value().library_origin, "curated");
  EXPECT_EQ(explored.value().applications, 2u);
}

TEST(ApiSession, GranularityOverrideFallsBackToDerivedLibrary) {
  // emission_control's curated library is process-calibrated; a
  // cluster-atomic override must switch to the derived library (with
  // aggregated per-cluster entries) instead of failing on missing elements.
  Session session;
  const auto loaded = session.load_builtin("emission_control");
  ASSERT_TRUE(loaded.ok());
  api::ExploreRequest request{.model = loaded.value().id};
  request.problem =
      synth::ProblemOptions{.granularity = synth::ElementGranularity::kClusterAtomic};
  const auto explored = session.explore(request);
  ASSERT_TRUE(explored.ok()) << explored.error_summary();
  EXPECT_EQ(explored.value().library_origin, "derived");
  EXPECT_TRUE(explored.value().result.found_feasible);
}

// --- batch surface ----------------------------------------------------------

TEST(ApiSession, BatchIsolatesFailingScenarios) {
  Session session;
  const auto fig1 = session.load_builtin("fig1");
  ASSERT_TRUE(fig1.ok());

  // Middle request uses a bogus handle: its slot fails, neighbors succeed.
  const auto runs = session.call_batch(
      {simulate_on(fig1.value().id), simulate_on(ModelId{9999}), simulate_on(fig1.value().id)});
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_TRUE(runs[0].ok());
  EXPECT_FALSE(runs[1].ok());
  EXPECT_TRUE(runs[1].diagnostics().has_code(api::diag::kUnknownModel));
  EXPECT_TRUE(runs[2].ok());

  const auto explores =
      session.call_batch({{.payload = api::ExploreRequest{.model = fig1.value().id}},
                          {.payload = api::ExploreRequest{.model = ModelId{9999}}}});
  ASSERT_EQ(explores.size(), 2u);
  EXPECT_TRUE(explores[0].ok());
  EXPECT_FALSE(explores[1].ok());
}

TEST(ApiSession, BatchSeedSweepIsDeterministic) {
  Session session;
  const auto loaded = session.load_builtin("fig1");
  ASSERT_TRUE(loaded.ok());

  std::vector<api::AnyRequest> sweep;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    api::SimulateRequest request{.model = loaded.value().id};
    request.options.resolution = sim::Resolution::kRandom;
    request.options.seed = seed;
    sweep.emplace_back(request);
  }
  const auto a = session.call_batch(sweep);
  const auto b = session.call_batch(sweep);
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    ASSERT_TRUE(a[i].ok() && b[i].ok());
    EXPECT_EQ(simulated(a[i]).total_firings, simulated(b[i]).total_firings);
    EXPECT_EQ(simulated(a[i]).end_time, simulated(b[i]).end_time);
  }
}

// --- error paths: diagnostics, not exceptions -------------------------------

TEST(ApiSession, ErrorsComeBackAsDiagnosticsNotExceptions) {
  Session session;

  EXPECT_NO_THROW({
    const auto garbage = session.load_text("queue without a model header !!");
    ASSERT_FALSE(garbage.ok());
    EXPECT_TRUE(garbage.diagnostics().has_code(api::diag::kParseError));

    const auto unknown = session.load_builtin("does-not-exist");
    ASSERT_FALSE(unknown.ok());
    EXPECT_TRUE(unknown.diagnostics().has_code(api::diag::kUnknownBuiltin));

    const auto missing = session.load_file("/no/such/file.spit");
    ASSERT_FALSE(missing.ok());
    EXPECT_TRUE(missing.diagnostics().has_code(api::diag::kIoError));

    const auto orphan = session.simulate({.model = ModelId{42}});
    ASSERT_FALSE(orphan.ok());
    EXPECT_TRUE(orphan.diagnostics().has_code(api::diag::kUnknownModel));
  });
}

TEST(ApiSession, ModelErrorInsideOperationSurfacesAsDiagnostic) {
  Session session;
  const auto loaded = session.load_builtin("fig1");
  ASSERT_TRUE(loaded.ok());

  // A request-supplied library missing the model's elements makes the cost
  // evaluator throw ModelError internally; the session converts it.
  api::ExploreRequest request{.model = loaded.value().id};
  request.library = synth::ImplLibrary{};  // empty: no entry for any element
  EXPECT_NO_THROW({
    const auto explored = session.explore(request);
    ASSERT_FALSE(explored.ok());
    EXPECT_TRUE(explored.diagnostics().has_code(api::diag::kModelError));
  });
}

TEST(ApiSession, ValidationFindingsArePayloadNotFailure) {
  // A structurally broken model still *validates successfully* — the
  // findings are the result, so callers see all problems at once.
  spi::Graph broken{"broken"};
  broken.add_process(spi::Process{.name = "no_modes"});
  Session session;
  const auto loaded = session.load(variant::VariantModel{std::move(broken)}, "test");
  ASSERT_TRUE(loaded.ok());

  const auto validated = session.validate(loaded.value().id);
  ASSERT_TRUE(validated.ok()) << validated.error_summary();
  EXPECT_TRUE(validated.value().has_errors());
  EXPECT_TRUE(validated.value().findings.has_code(spi::diag::kProcessNoModes));
}

TEST(ApiSession, UnloadInvalidatesHandle) {
  Session session;
  const auto loaded = session.load_builtin("fig1");
  ASSERT_TRUE(loaded.ok());
  // Three-way contract: live -> kUnloaded, tombstone -> kAlreadyUnloaded,
  // and an id the store never issued -> kNeverLoaded.
  EXPECT_EQ(session.unload(loaded.value().id), api::UnloadStatus::kUnloaded);
  EXPECT_EQ(session.unload(loaded.value().id), api::UnloadStatus::kAlreadyUnloaded);
  EXPECT_EQ(session.unload(api::ModelId{9999}), api::UnloadStatus::kNeverLoaded);
  EXPECT_TRUE(api::unloaded(api::UnloadStatus::kUnloaded));
  EXPECT_FALSE(api::unloaded(api::UnloadStatus::kAlreadyUnloaded));
  EXPECT_FALSE(session.simulate({.model = loaded.value().id}).ok());
  EXPECT_TRUE(session.models().empty());
}

TEST(ApiSession, ResultValueOnFailureIsTheOneThrow) {
  Session session;
  const auto bad = session.load_builtin("does-not-exist");
  ASSERT_FALSE(bad.ok());
  EXPECT_THROW((void)bad.value(), support::ModelError);
  EXPECT_EQ(bad.value_or(api::ModelInfo{.name = "fallback"}).name, "fallback");
}

// --- once-only simulator contract ------------------------------------------

TEST(SimulatorContract, SecondRunThrowsModelError) {
  Session session;
  const auto loaded = session.load_builtin("fig1");
  ASSERT_TRUE(loaded.ok());
  const auto text = session.write_text(loaded.value().id);
  ASSERT_TRUE(text.ok());

  const spi::Graph graph = spi::parse_text(text.value());
  sim::Simulator simulator{graph};
  EXPECT_NO_THROW((void)simulator.run());
  EXPECT_THROW((void)simulator.run(), support::ModelError);
}

TEST(SimulatorContract, SessionSimulateIsRepeatable) {
  // The facade constructs a fresh simulator per request, so the once-only
  // engine contract never leaks to api callers.
  Session session;
  const auto loaded = session.load_builtin("fig1");
  ASSERT_TRUE(loaded.ok());
  const auto first = session.simulate({.model = loaded.value().id});
  const auto second = session.simulate({.model = loaded.value().id});
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_EQ(first.value().result.total_firings, second.value().result.total_firings);
}

}  // namespace
}  // namespace spivar
