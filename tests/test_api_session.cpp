// api::Session round-trip and boundary tests.
//
// The session facade's contract: every pipeline stage behind one typed
// entry point, batch evaluation over scenario sets, and *no exception
// crossing the boundary* — failures come back as diagnostics.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "models/fig1.hpp"
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
  const auto loaded = session.load(api::ModelSpec{GetParam()});
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
  const auto original = session.load(api::ModelSpec{"fig1"});
  ASSERT_TRUE(original.ok());
  const auto text = session.write_text(original.value().id);
  ASSERT_TRUE(text.ok());

  const auto reparsed = session.load(api::ModelText{text.value(), "fig1-reparsed"});
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
  const auto loaded = session.load(api::ModelSpec{"fig2"});
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
  const auto loaded = session.load(api::ModelSpec{"emission_control"});
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
  const auto fig1 = session.load(api::ModelSpec{"fig1"});
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
  const auto loaded = session.load(api::ModelSpec{"fig1"});
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
    const auto garbage = session.load(api::ModelText{"queue without a model header !!"});
    ASSERT_FALSE(garbage.ok());
    EXPECT_TRUE(garbage.diagnostics().has_code(api::diag::kParseError));

    // A name the registry does not know is read as a .spit path...
    const auto unknown = session.load(api::ModelSpec{"does-not-exist"});
    ASSERT_FALSE(unknown.ok());
    EXPECT_TRUE(unknown.diagnostics().has_code(api::diag::kIoError));

    // ...unless it carries typed options, which only a registry model takes.
    const auto typed = session.load(api::ModelSpec{"does-not-exist", models::Fig1Options{}});
    ASSERT_FALSE(typed.ok());
    EXPECT_TRUE(typed.diagnostics().has_code(api::diag::kUnknownBuiltin));

    const auto missing = session.load(api::ModelSpec{"/no/such/file.spit"});
    ASSERT_FALSE(missing.ok());
    EXPECT_TRUE(missing.diagnostics().has_code(api::diag::kIoError));

    const auto orphan = session.simulate({.model = ModelId{42}});
    ASSERT_FALSE(orphan.ok());
    EXPECT_TRUE(orphan.diagnostics().has_code(api::diag::kUnknownModel));
  });
}

// --- the load table ----------------------------------------------------------
//
// Every model source through every layer that loads. Each row renders as
// "ok <name> <origin> <processes>/<channels>/<interfaces>/<clusters>
// <content fingerprint>" or as its error summary. The expected columns were
// recorded through the per-source load methods that load(LoadRequest)
// replaced; the one row that changed is `does-not-exist`, which follows the
// spec rule (a registry name, else a .spit path) and is now a missing file.

using Loader = std::function<api::Result<api::ModelInfo>(api::LoadRequest)>;

std::string load_column(const Loader& load, const std::string& path, const std::string& text) {
  const std::vector<api::LoadRequest> rows = {
      api::ModelSpec{"fig2"},
      api::ModelSpec{"synthetic", models::SyntheticSpec{.variants = 3}},
      api::ModelSpec{"fig2", models::VideoOptions{}},
      api::ModelSpec{"sweep/i2v2c2-s7"},
      api::ModelSpec{"sweep/zz"},
      api::ModelSpec{"sweep/i9v2-s1"},
      api::ModelSpec{path},
      api::ModelSpec{"/no/such/file.spit"},
      api::ModelSpec{"does-not-exist"},
      api::ModelSpec{"does-not-exist", models::Fig1Options{}},
      api::ModelText{text},
      api::ModelText{"queue without a model header !!"},
      api::ModelText{text, "renamed"},
      api::BuiltModel{variant::VariantModel{models::make_fig1()}, "handmade"},
  };
  std::string column;
  for (const api::LoadRequest& row : rows) {
    const auto loaded = load(row);
    std::string line = loaded.error_summary();
    if (loaded.ok()) {
      const api::ModelInfo& info = loaded.value();
      char fingerprint[17];
      std::snprintf(fingerprint, sizeof fingerprint, "%016llx",
                    static_cast<unsigned long long>(info.content_fingerprint));
      line = "ok " + info.name + " " + info.origin + " " + std::to_string(info.processes) + "/" +
             std::to_string(info.channels) + "/" + std::to_string(info.interfaces) + "/" +
             std::to_string(info.clusters) + " " + fingerprint;
    }
    if (const auto at = line.find(path); at != std::string::npos) {
      line.replace(at, path.size(), "<file>");  // the temp path differs per run
    }
    column += line + "\n";
  }
  return column;
}

TEST(LoadTable, EveryLayerAndSourceKeepsItsOutcome) {
  Session source;
  const std::string text =
      source.write_text(source.load(api::ModelSpec{"fig1"}).value().id).value();
  const std::string path = (std::filesystem::temp_directory_path() /
                            ("spivar_load_table_" + std::to_string(::getpid()) + ".spit"))
                               .string();
  std::ofstream{path} << source.write_text(source.load(api::ModelSpec{"fig2"}).value().id).value();

  const std::string kUnsalted = R"(ok fig2 builtin:fig2 9/7/1/2 b64d973ad528d609
ok synthetic builtin:synthetic 15/12/1/3 aba34b1dd2883498
api-model-error: option struct does not belong to builtin 'fig2'
ok sweep/i2v2c2-s7 builtin:sweep/i2v2c2-s7 14/11/2/4 fa0490ab490522ac
api-unknown-builtin: unknown knob 'z' in 'sweep/zz' (grammar: sweep/[p<n>][i<n>][v<n>][c<n>][m<n>][d<n>][b|t|r][-s<seed>])
api-unknown-builtin: 'sweep/i9v2-s1': variants^interfaces = 2^9 applications is over the limit of 256
ok fig2 <file> 9/7/1/2 b64d973ad528d609
api-io-error: '/no/such/file.spit' is not a readable file
api-io-error: 'does-not-exist' is not a readable file
api-unknown-builtin: no built-in model 'does-not-exist' (see Session::builtins())
ok fig1 text 4/3/0/0 86abfb9b627b6c1e
api-parse-error: line 1: unknown channel attribute 'a'
ok renamed text 4/3/0/0 1863c10a22ddd020
ok fig1 handmade 4/3/0/0 86abfb9b627b6c1e
)";
  // The store, and an unbound session loading straight into its store.
  api::ModelStore store;
  EXPECT_EQ(load_column([&](api::LoadRequest r) { return store.load(std::move(r)); }, path, text),
            kUnsalted);
  Session session;
  EXPECT_EQ(
      load_column([&](api::LoadRequest r) { return session.load(std::move(r)); }, path, text),
      kUnsalted);

  // Two live models fill the view's quota: every later load is refused
  // before its source is read.
  api::StoreView view{std::make_shared<api::ModelStore>(), {.name = "alpha", .tag = 1},
                      {.max_models = 2}};
  std::string quota_column = R"(ok fig2 builtin:fig2 9/7/1/2 6967bfcdbce22423
ok synthetic builtin:synthetic 15/12/1/3 2f5352f3e1721637
)";
  for (int row = 2; row < 14; ++row) {
    quota_column +=
        "api-quota-exceeded: tenant 'alpha' is at its model quota (2 live models); "
        "unload one first\n";
  }
  EXPECT_EQ(load_column([&](api::LoadRequest r) { return view.load(std::move(r)); }, path, text),
            quota_column);

  // A bound session loads through its tenant's view: the same outcomes
  // under the tenant's salted fingerprints.
  Session bound;
  bound.bind_tenant(std::make_shared<api::StoreView>(bound.store(),
                                                     api::TenantContext{.name = "beta", .tag = 2}));
  EXPECT_EQ(load_column([&](api::LoadRequest r) { return bound.load(std::move(r)); }, path, text),
            R"(ok fig2 builtin:fig2 9/7/1/2 46aac95c066ec4e0
ok synthetic builtin:synthetic 15/12/1/3 41ee68bb12e86f04
api-model-error: option struct does not belong to builtin 'fig2'
ok sweep/i2v2c2-s7 builtin:sweep/i2v2c2-s7 14/11/2/4 f2395737289b8fa1
api-unknown-builtin: unknown knob 'z' in 'sweep/zz' (grammar: sweep/[p<n>][i<n>][v<n>][c<n>][m<n>][d<n>][b|t|r][-s<seed>])
api-unknown-builtin: 'sweep/i9v2-s1': variants^interfaces = 2^9 applications is over the limit of 256
ok fig2 <file> 9/7/1/2 46aac95c066ec4e0
api-io-error: '/no/such/file.spit' is not a readable file
api-io-error: 'does-not-exist' is not a readable file
api-unknown-builtin: no built-in model 'does-not-exist' (see Session::builtins())
ok fig1 text 4/3/0/0 3dc85ce1e86eec30
api-parse-error: line 1: unknown channel attribute 'a'
ok renamed text 4/3/0/0 6ed79fa493a7cc65
ok fig1 handmade 4/3/0/0 3dc85ce1e86eec30
)");
  std::filesystem::remove(path);
}

TEST(ApiSession, ModelErrorInsideOperationSurfacesAsDiagnostic) {
  Session session;
  const auto loaded = session.load(api::ModelSpec{"fig1"});
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
  const auto loaded =
      session.load(api::BuiltModel{variant::VariantModel{std::move(broken)}, "test"});
  ASSERT_TRUE(loaded.ok());

  const auto validated = session.validate(loaded.value().id);
  ASSERT_TRUE(validated.ok()) << validated.error_summary();
  EXPECT_TRUE(validated.value().has_errors());
  EXPECT_TRUE(validated.value().findings.has_code(spi::diag::kProcessNoModes));
}

TEST(ApiSession, UnloadInvalidatesHandle) {
  Session session;
  const auto loaded = session.load(api::ModelSpec{"fig1"});
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
  const auto bad = session.load(api::ModelSpec{"does-not-exist"});
  ASSERT_FALSE(bad.ok());
  EXPECT_THROW((void)bad.value(), support::ModelError);
  EXPECT_EQ(bad.value_or(api::ModelInfo{.name = "fallback"}).name, "fallback");
}

// --- once-only simulator contract ------------------------------------------

TEST(SimulatorContract, SecondRunThrowsModelError) {
  Session session;
  const auto loaded = session.load(api::ModelSpec{"fig1"});
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
  const auto loaded = session.load(api::ModelSpec{"fig1"});
  ASSERT_TRUE(loaded.ok());
  const auto first = session.simulate({.model = loaded.value().id});
  const auto second = session.simulate({.model = loaded.value().id});
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_EQ(first.value().result.total_firings, second.value().result.total_firings);
}

}  // namespace
}  // namespace spivar
