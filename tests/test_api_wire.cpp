// The v5 envelope and its wire protocol: every request/response kind
// round-trips bit-identically (diagnostics-carrying error responses
// included), the frames of every kind over the builtins and the smoke
// corpus reproduce a pinned digest, malformed and old-version frames are
// rejected with line-numbered errors (a table pins each column kind's exact
// message), and a mixed-kind call_batch/submit returns per-slot results
// identical to the dedicated v4 endpoints — with cache hits and per-slot
// priorities/deadlines intact.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "api/api.hpp"
#include "api/wire.hpp"
#include "corpus/sweep.hpp"
#include "support/hash.hpp"

namespace spivar {
namespace {

using api::AnyRequest;
using api::AnyResponse;
using api::Session;

/// Wire frames are deterministic functions of every transported field, so
/// frame(decode(frame)) == frame is the round-trip check: any dropped or
/// altered field shows up as a frame diff (spot field checks guard against
/// symmetric encode/decode omissions).
std::string reencode_request(const std::string& frame) {
  const auto decoded = api::wire::decode_request(frame);
  EXPECT_TRUE(decoded.ok()) << decoded.error_summary();
  return decoded.ok() ? api::wire::encode(decoded.value()) : std::string{};
}

std::string reencode_response(const std::string& frame) {
  const auto decoded = api::wire::decode_response(frame);
  EXPECT_TRUE(decoded.ok()) << decoded.error_summary();
  if (!decoded.ok()) return {};
  return api::wire::encode(
      api::Result<AnyResponse>::success(decoded.value(), decoded.diagnostics()));
}

// --- request round trips -----------------------------------------------------

TEST(WireRequest, SimulateRoundTripsEveryField) {
  AnyRequest request;
  api::SimulateRequest simulate;
  simulate.options.resolution = sim::Resolution::kRandom;
  simulate.options.seed = 99;
  simulate.options.max_time = support::TimePoint{123456};
  simulate.options.max_total_firings = 777;
  simulate.options.record_trace = true;
  simulate.options.trace_limit = 42;
  simulate.render_timeline = true;
  request.payload = simulate;
  request.target = "fig 2.spit";  // spaces survive quoting
  request.target_options = {"variants=3", "seed=7"};
  request.options.priority = api::Priority::kHigh;
  request.options.deadline = std::chrono::milliseconds{250};

  const std::string frame = api::wire::encode(request);
  EXPECT_EQ(reencode_request(frame), frame);

  const auto decoded = api::wire::decode_request(frame);
  ASSERT_TRUE(decoded.ok());
  const auto& payload = std::get<api::SimulateRequest>(decoded.value().payload);
  EXPECT_EQ(payload.options.seed, 99u);
  EXPECT_EQ(payload.options.max_time, support::TimePoint{123456});
  EXPECT_TRUE(payload.render_timeline);
  EXPECT_EQ(decoded.value().target, "fig 2.spit");
  EXPECT_EQ(decoded.value().target_options.size(), 2u);
  EXPECT_EQ(decoded.value().options.priority, api::Priority::kHigh);
  EXPECT_EQ(decoded.value().options.deadline, std::chrono::milliseconds{250});
}

TEST(WireRequest, EveryKindReencodesIdentically) {
  std::vector<AnyRequest> requests;

  api::AnalyzeRequest analyze;
  analyze.buffers = false;
  analyze.include_reconfiguration = true;
  requests.push_back({.payload = analyze, .target = "fig1"});

  api::ExploreRequest explore;
  explore.options.engine = synth::ExploreEngine::kAnnealing;
  explore.options.annealing_trials_per_element = 17;
  explore.options.annealing_initial_temperature = 3.25;
  explore.problem = synth::ProblemOptions{.granularity = synth::ElementGranularity::kProcess,
                                          .skip_virtual = false};
  synth::ImplLibrary library;
  library.processor_cost = 15.5;
  library.processor_budget = 0.875;
  library.add("PA", {.sw_load = 0.25,
                     .sw_wcet = support::Duration::millis(2),
                     .hw_cost = 8.0,
                     .hw_wcet = support::Duration::micros(430),
                     .can_sw = true,
                     .can_hw = false});
  synth::ElementImpl periodic{.sw_load = 0.5, .hw_cost = 3.0};
  periodic.period = support::Duration::millis(40);
  library.add("PB", periodic);
  explore.library = library;
  requests.push_back({.payload = explore, .target = "fig2"});

  api::ParetoRequest pareto;
  pareto.options.samples = 128;
  pareto.options.seed = 5;
  requests.push_back({.payload = pareto});

  api::CompareRequest compare;
  compare.strategies = {synth::StrategyKind::kSerialized, synth::StrategyKind::kWithVariants};
  compare.all_orders = true;
  compare.max_orders = 6;
  compare.objectives = {synth::RankObjective::kTotalCost, synth::RankObjective::kDesignTime};
  requests.push_back({.payload = compare, .target = "multistandard_tv"});

  for (const AnyRequest& request : requests) {
    const std::string frame = api::wire::encode(request);
    EXPECT_EQ(reencode_request(frame), frame) << frame;
  }
}

TEST(WireRequest, BlankAndWhitespaceLinesAreIgnored) {
  // Hand-edited replay logs contain blank separators; a line of spaces or
  // tabs-as-spaces must read as blank, not crash or error.
  const auto decoded =
      api::wire::decode_request("request v1 simulate\n   \nseed 9\n\nend\n");
  ASSERT_TRUE(decoded.ok()) << decoded.error_summary();
  EXPECT_EQ(std::get<api::SimulateRequest>(decoded.value().payload).options.seed, 9u);
  EXPECT_FALSE(api::wire::parse_hello("   \n").has_value());
  EXPECT_FALSE(api::wire::parse_control(" ").has_value());
}

TEST(WireRequest, OmittedKeysKeepDefaults) {
  const auto decoded = api::wire::decode_request("request v1 simulate\nend\n");
  ASSERT_TRUE(decoded.ok());
  const auto& payload = std::get<api::SimulateRequest>(decoded.value().payload);
  const api::SimulateRequest defaults;
  EXPECT_EQ(payload.options.seed, defaults.options.seed);
  EXPECT_EQ(payload.options.resolution, defaults.options.resolution);
  EXPECT_EQ(decoded.value().options.priority, api::Priority::kNormal);
  EXPECT_FALSE(decoded.value().options.deadline.has_value());
}

// --- malformed / old-version frames ------------------------------------------

TEST(WireRequest, RejectsOldVersionWithLineNumber) {
  const auto decoded = api::wire::decode_request("request v0 simulate\nend\n");
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.diagnostics().has_code(api::diag::kWireError));
  EXPECT_NE(decoded.error_summary().find("line 1"), std::string::npos);
  EXPECT_NE(decoded.error_summary().find("unsupported wire version"), std::string::npos);

  const auto future = api::wire::decode_request("request v3 simulate\nend\n");
  ASSERT_FALSE(future.ok());
  EXPECT_NE(future.error_summary().find("unsupported wire version"), std::string::npos);
}

// --- v2 pipelined frames -----------------------------------------------------

TEST(WireV2, RequestRoundTripsWithFrameId) {
  AnyRequest request;
  api::SimulateRequest simulate;
  simulate.options.seed = 4;
  request.payload = simulate;
  request.target = "fig1";

  const std::string frame = api::wire::encode(request, /*frame_id=*/901);
  EXPECT_EQ(frame.rfind("request v2 simulate 901\n", 0), 0u) << frame;
  EXPECT_EQ(api::wire::peek_head(frame).request_id, 901u);

  // The body is the v1 body: decode ignores the id and yields the same
  // envelope the v1 encoding would.
  const auto decoded = api::wire::decode_request(frame);
  ASSERT_TRUE(decoded.ok()) << decoded.error_summary();
  EXPECT_EQ(api::wire::encode(decoded.value()), api::wire::encode(request));
  EXPECT_EQ(std::get<api::SimulateRequest>(decoded.value().payload).options.seed, 4u);
}

TEST(WireV2, ResponseCarriesItsFrameId) {
  support::DiagnosticList diagnostics;
  diagnostics.error("api-unknown-model", "nope");
  const auto failure = api::Result<AnyResponse>::failure(diagnostics);
  const std::string error_frame = api::wire::encode(failure, /*frame_id=*/7);
  EXPECT_EQ(error_frame.rfind("response v2 7 error\n", 0), 0u) << error_frame;
  EXPECT_EQ(api::wire::response_frame_id(error_frame), 7u);
  // Body decodes exactly as the v1 error frame would.
  const auto decoded = api::wire::decode_response(error_frame);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.diagnostics().items(), diagnostics.items());
}

TEST(WireV2, FrameIdPeeksAreTotalFunctions) {
  // peek_head / response_frame_id never throw: anything that is not a
  // well-formed v2 header of the right tag has no id — v1 frames,
  // controls, garbage ids, empty input.
  const auto request_id = [](std::string_view frame) {
    return api::wire::peek_head(frame).request_id;
  };
  EXPECT_EQ(request_id("request v1 simulate\nend\n"), std::nullopt);
  EXPECT_EQ(request_id("control v1 ping\n"), std::nullopt);
  EXPECT_EQ(request_id("request v2 simulate banana\nend\n"), std::nullopt);
  EXPECT_EQ(request_id("request v2 simulate\nend\n"), std::nullopt);
  EXPECT_EQ(request_id(""), std::nullopt);
  EXPECT_EQ(api::wire::response_frame_id("response v1 ok simulate\nend\n"), std::nullopt);
  EXPECT_EQ(api::wire::response_frame_id("response v2 x ok simulate\nend\n"), std::nullopt);
  EXPECT_EQ(request_id("request v2 simulate 12\nend\n"), 12u);
  EXPECT_EQ(api::wire::response_frame_id("response v2 12 ok simulate\nend\n"), 12u);
}

TEST(WireV2, MissingOrMalformedIdIsALineNumberedError) {
  const auto missing = api::wire::decode_request("request v2 simulate\nend\n");
  ASSERT_FALSE(missing.ok());
  EXPECT_TRUE(missing.diagnostics().has_code(api::diag::kWireError));
  EXPECT_NE(missing.error_summary().find("line 1"), std::string::npos);

  const auto garbage = api::wire::decode_request("request v2 simulate banana\nend\n");
  ASSERT_FALSE(garbage.ok());
  EXPECT_NE(garbage.error_summary().find("line 1"), std::string::npos);
}

TEST(WireRequest, RejectsUnknownKeysWithLineNumber) {
  const auto decoded =
      api::wire::decode_request("request v1 simulate\nseed 3\nfroznar 12\nend\n");
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.error_summary().find("line 3"), std::string::npos);
  EXPECT_NE(decoded.error_summary().find("froznar"), std::string::npos);
}

TEST(WireRequest, RejectsMalformedFrames) {
  // Unknown kind.
  EXPECT_FALSE(api::wire::decode_request("request v1 transmogrify\nend\n").ok());
  // Missing `end`.
  const auto truncated = api::wire::decode_request("request v1 simulate\nseed 3\n");
  ASSERT_FALSE(truncated.ok());
  EXPECT_NE(truncated.error_summary().find("not terminated"), std::string::npos);
  // Content after `end`.
  EXPECT_FALSE(api::wire::decode_request("request v1 simulate\nend\nseed 3\n").ok());
  // Unterminated quote carries its line number.
  const auto unterminated =
      api::wire::decode_request("request v1 simulate\ntarget \"oops\nend\n");
  ASSERT_FALSE(unterminated.ok());
  EXPECT_NE(unterminated.error_summary().find("line 2"), std::string::npos);
  // Bad number.
  EXPECT_FALSE(api::wire::decode_request("request v1 simulate\nseed banana\nend\n").ok());
  // Wrong frame tag.
  EXPECT_FALSE(api::wire::decode_request("response v1 ok simulate\nend\n").ok());
}

TEST(WireResponse, RejectsMalformedFrames) {
  EXPECT_FALSE(api::wire::decode_response("response v0 ok simulate\nend\n").ok());
  const auto unknown =
      api::wire::decode_response("response v1 ok simulate\nmodel \"x\"\nwibble 3\nend\n");
  ASSERT_FALSE(unknown.ok());
  EXPECT_TRUE(unknown.diagnostics().has_code(api::diag::kWireError));
  EXPECT_NE(unknown.error_summary().find("line 3"), std::string::npos);
}

// --- response round trips ----------------------------------------------------

TEST(WireResponse, ErrorResponseCarriesDiagnosticsExactly) {
  support::DiagnosticList diagnostics;
  diagnostics.error("api-unknown-model", "no model with handle #7");
  diagnostics.warning("some-code", "message with \"quotes\",\nnewlines\tand tabs");
  diagnostics.note("note-code", "");
  const auto failure = api::Result<AnyResponse>::failure(diagnostics);

  const std::string frame = api::wire::encode(failure);
  const auto decoded = api::wire::decode_response(frame);
  ASSERT_FALSE(decoded.ok());
  ASSERT_EQ(decoded.diagnostics().size(), 3u);
  EXPECT_EQ(decoded.diagnostics().items(), diagnostics.items());
  // And the re-encoded frame is byte-identical.
  EXPECT_EQ(api::wire::encode(api::Result<AnyResponse>::failure(decoded.diagnostics())), frame);
}

/// Evaluates one real response per kind and asserts the wire round trip is
/// bit-identical (frame equality plus spot checks on decoded fields).
class WireResponseRoundTrip : public ::testing::Test {
 protected:
  void SetUp() override {
    model_ = session_.load(api::ModelSpec{"fig2"}).value().id;
    tv_ = session_.load(api::ModelSpec{"multistandard_tv"}).value().id;
  }

  Session session_;
  api::ModelId model_;
  api::ModelId tv_;
};

TEST_F(WireResponseRoundTrip, Simulate) {
  api::SimulateRequest request{.model = tv_};
  request.options.resolution = sim::Resolution::kRandom;
  request.options.seed = 3;
  request.options.record_trace = true;
  request.render_timeline = true;
  const auto result = session_.simulate(request);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result.value().result.trace.events().empty());

  const std::string frame =
      api::wire::encode(api::Result<AnyResponse>::success(AnyResponse{result.value()}));
  EXPECT_EQ(reencode_response(frame), frame);

  const auto decoded = api::wire::decode_response(frame);
  ASSERT_TRUE(decoded.ok());
  const auto& typed = std::get<api::SimulateResponse>(decoded.value());
  EXPECT_EQ(typed.model, result.value().model);
  EXPECT_EQ(typed.result.total_firings, result.value().result.total_firings);
  EXPECT_EQ(typed.result.end_time, result.value().result.end_time);
  EXPECT_EQ(typed.result.trace.events().size(), result.value().result.trace.events().size());
  EXPECT_EQ(typed.timeline, result.value().timeline);
  EXPECT_EQ(typed.result.interfaces.size(), result.value().result.interfaces.size());
}

TEST_F(WireResponseRoundTrip, Analyze) {
  const auto result =
      session_.analyze({.model = model_, .buffers = false, .include_reconfiguration = true});
  ASSERT_TRUE(result.ok());
  const std::string frame =
      api::wire::encode(api::Result<AnyResponse>::success(AnyResponse{result.value()}));
  EXPECT_EQ(reencode_response(frame), frame);

  const auto decoded = api::wire::decode_response(frame);
  ASSERT_TRUE(decoded.ok());
  const auto& typed = std::get<api::AnalyzeResponse>(decoded.value());
  EXPECT_EQ(typed.buffer_flows.size(), result.value().buffer_flows.size());
  EXPECT_EQ(typed.structure.sources, result.value().structure.sources);
  // The pass flags round-trip (the renderer reads them); no handle rides along.
  EXPECT_TRUE(typed.passes.deadlock);
  EXPECT_FALSE(typed.passes.buffers);
  EXPECT_TRUE(typed.passes.structure);
  EXPECT_TRUE(typed.passes.timing);
  EXPECT_TRUE(typed.passes.include_reconfiguration);
  EXPECT_EQ(api::render(typed), api::render(result.value()));
}

TEST_F(WireResponseRoundTrip, Explore) {
  api::ExploreRequest request{.model = model_};
  request.options.engine = synth::ExploreEngine::kExhaustive;
  const auto result = session_.explore(request);
  ASSERT_TRUE(result.ok());
  const std::string frame =
      api::wire::encode(api::Result<AnyResponse>::success(AnyResponse{result.value()}));
  EXPECT_EQ(reencode_response(frame), frame);

  const auto decoded = api::wire::decode_response(frame);
  const auto& typed = std::get<api::ExploreResponse>(decoded.value());
  EXPECT_EQ(typed.result.cost.total, result.value().result.cost.total);
  EXPECT_EQ(typed.result.mapping, result.value().result.mapping);
}

TEST_F(WireResponseRoundTrip, Pareto) {
  const auto result = session_.pareto({.model = model_});
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result.value().points.empty());
  const std::string frame =
      api::wire::encode(api::Result<AnyResponse>::success(AnyResponse{result.value()}));
  EXPECT_EQ(reencode_response(frame), frame);

  const auto decoded = api::wire::decode_response(frame);
  const auto& typed = std::get<api::ParetoResponse>(decoded.value());
  EXPECT_EQ(typed.points, result.value().points);
}

TEST_F(WireResponseRoundTrip, Compare) {
  api::CompareRequest request{.model = tv_};
  request.options.engine = synth::ExploreEngine::kGreedy;
  request.all_orders = true;
  request.objectives = {synth::RankObjective::kTotalCost,
                        synth::RankObjective::kWorstUtilization};
  const auto result = session_.compare(request);
  ASSERT_TRUE(result.ok());
  const std::string frame =
      api::wire::encode(api::Result<AnyResponse>::success(AnyResponse{result.value()}));
  EXPECT_EQ(reencode_response(frame), frame);

  const auto decoded = api::wire::decode_response(frame);
  const auto& typed = std::get<api::CompareResponse>(decoded.value());
  ASSERT_EQ(typed.rows.size(), result.value().rows.size());
  EXPECT_EQ(typed.ranking, result.value().ranking);
  for (std::size_t i = 0; i < typed.rows.size(); ++i) {
    EXPECT_EQ(typed.rows[i].outcome.cost.total, result.value().rows[i].outcome.cost.total);
    EXPECT_EQ(typed.rows[i].outcome.mapping, result.value().rows[i].outcome.mapping);
    EXPECT_EQ(typed.rows[i].per_order.size(), result.value().rows[i].per_order.size());
  }
}

// --- pinned codec digest -----------------------------------------------------

/// FNV-1a over every frame CatalogFramesMatchThePinnedDigest hashes, as the
/// codec wrote them when each wire type had a hand-written encoder and a
/// separate hand-written decoder.
constexpr std::uint64_t kCodecDigest = 0x2934dc96df810341;

/// Every request kind with non-default options, for one catalog model.
std::vector<AnyRequest> codec_requests(const std::string& name) {
  std::vector<AnyRequest> requests;
  api::SimulateRequest simulate;
  simulate.options.resolution = sim::Resolution::kRandom;
  simulate.options.seed = 3;
  simulate.options.max_total_firings = 400;
  simulate.options.record_trace = true;
  simulate.options.trace_limit = 60;
  simulate.render_timeline = true;
  requests.push_back({.payload = simulate, .target = name});
  requests.push_back({.payload = api::SimulateRequest{}, .target = name});

  requests.push_back({.payload = api::AnalyzeRequest{.buffers = false,
                                                     .include_reconfiguration = true},
                      .target = name,
                      .options = {.priority = api::Priority::kLow}});

  api::ExploreRequest explore;
  explore.options.engine = synth::ExploreEngine::kAnnealing;
  explore.options.seed = 2;
  explore.options.annealing_trials_per_element = 40;
  explore.options.annealing_initial_temperature = 7.5;
  requests.push_back({.payload = explore,
                      .target = name,
                      .options = {.priority = api::Priority::kHigh,
                                  .deadline = std::chrono::milliseconds{250}}});

  api::ParetoRequest pareto;
  pareto.options.exhaustive_limit = 4;
  pareto.options.samples = 64;
  pareto.options.seed = 9;
  requests.push_back({.payload = pareto, .target = name});

  api::CompareRequest compare;
  compare.strategies = {synth::StrategyKind::kIndependent, synth::StrategyKind::kSuperposition,
                        synth::StrategyKind::kSerialized, synth::StrategyKind::kIncremental,
                        synth::StrategyKind::kWithVariants};
  compare.options.engine = synth::ExploreEngine::kGreedy;
  compare.all_orders = true;
  compare.max_orders = 6;
  compare.objectives = {synth::RankObjective::kWorstUtilization,
                        synth::RankObjective::kDesignTime};
  requests.push_back({.payload = compare, .target = name});
  return requests;
}

/// fig2 explored under its own curated library, passed as an override with
/// one element made periodic.
AnyRequest override_request() {
  api::ModelStore store;
  const api::ModelId id = store.load(api::ModelSpec{"fig2"}).value().id;
  synth::ImplLibrary library = store.find(id)->default_setup()->library;
  synth::ElementImpl periodic = library.elements().begin()->second;
  periodic.period = support::Duration::millis(40);
  library.add(library.elements().begin()->first, periodic);
  api::ExploreRequest explore;
  explore.options.engine = synth::ExploreEngine::kExhaustive;
  explore.problem = synth::ProblemOptions{.granularity = synth::ElementGranularity::kClusterAtomic,
                                          .skip_virtual = true};
  explore.library = std::move(library);
  return {.payload = explore, .target = "fig2"};
}

TEST(WireCodec, CatalogFramesMatchThePinnedDigest) {
  std::vector<std::string> names = api::builtin_names();
  for (const corpus::CorpusEntry& entry : corpus::smoke_corpus()) names.push_back(entry.name);
  std::vector<AnyRequest> requests;
  for (const std::string& name : names) {
    for (AnyRequest& request : codec_requests(name)) requests.push_back(std::move(request));
  }
  requests.push_back(override_request());
  requests.push_back({.payload = api::SimulateRequest{},
                      .target = "synthetic",
                      .target_options = {"variants=3", "seed=7"}});

  Session session;  // no cache: every call evaluates
  support::Fnv1aHasher digest;
  std::size_t frames = 0;
  const auto hash = [&](const std::string& frame) {
    digest.str(frame);
    ++frames;
  };
  // Each reply frame, then the frame its decoding re-encodes to (a
  // transported error decodes as that failure, so it re-encodes too).
  const auto hash_reply = [&](const api::Result<AnyResponse>& result, std::uint64_t id) {
    const std::string v1 = api::wire::encode(result);
    const std::string v2 = api::wire::encode(result, id);
    hash(v1);
    hash(v2);
    hash(api::wire::encode(api::wire::decode_response(v1)));
    hash(api::wire::encode(api::wire::decode_response(v2), id));
  };

  std::uint64_t id = 1;
  std::size_t ok = 0;
  for (const AnyRequest& request : requests) {
    const std::string v1 = api::wire::encode(request);
    const std::string v2 = api::wire::encode(request, id);
    hash(v1);
    hash(v2);
    const auto decoded_v1 = api::wire::decode_request(v1);
    const auto decoded_v2 = api::wire::decode_request(v2);
    ASSERT_TRUE(decoded_v1.ok()) << decoded_v1.error_summary();
    ASSERT_TRUE(decoded_v2.ok()) << decoded_v2.error_summary();
    hash(api::wire::encode(decoded_v1.value()));
    hash(api::wire::encode(decoded_v2.value(), id));
    const api::Result<AnyResponse> result = session.call(request);
    ok += result.ok() ? 1 : 0;
    hash_reply(result, id);
    ++id;
  }

  support::DiagnosticList diagnostics;
  diagnostics.error("api-unknown-model", "no model with handle #7");
  diagnostics.warning("some-code", "message with \"quotes\",\nnewlines\tand tabs\\");
  diagnostics.note("note-code", "");
  hash_reply(api::Result<AnyResponse>::failure(diagnostics), id++);
  support::DiagnosticList notes;
  notes.warning("api-note", "served from a \"derived\" library");
  notes.note("api-note", "second\r\nnote");
  hash_reply(api::Result<AnyResponse>::success(session.call(requests.front()).value(), notes),
             id++);

  std::cout << "codec digest 0x" << std::hex << digest.digest() << std::dec << " over " << frames
            << " frames, " << requests.size() << " requests (" << ok << " ok)\n";
  EXPECT_EQ(ok, requests.size());
  EXPECT_EQ(digest.digest(), kCodecDigest);
}

// --- malformed frames --------------------------------------------------------

struct Malformed {
  const char* frame;
  const char* message;  ///< the decoder's full message, after the code
};

/// One malformed frame per column kind and line shape, with its exact
/// message: a decode error names the line, the key and the column.
const Malformed kMalformed[] = {
    // Token columns: a bad number, a missing token, a trailing token.
    {"request v1 simulate\nseed banana\nend\n",
     "line 2: invalid seed 'banana'"},
    {"request v1 explore\nannealing-temperature hot\nend\n",
     "line 2: invalid annealing-temperature 'hot'"},
    {"request v1 simulate\nseed\nend\n",
     "line 2: missing seed after 'seed'"},
    {"request v1 analyze\npasses true false\nend\n",
     "line 2: missing structure after 'passes'"},
    {"request v1 simulate\nseed 3 4\nend\n",
     "line 2: unexpected trailing token '4' after 'seed'"},
    {"request v1 simulate\nrecord-trace maybe\nend\n",
     "line 2: invalid record-trace 'maybe' (true|false)"},
    {"request v1 simulate\nmodel 4294967296\nend\n",
     "line 2: model handle out of range: 4294967296"},
    // A quoted token where an unquoted one belongs, and the reverse.
    {"request v1 simulate\nseed \"3\"\nend\n",
     "line 2: seed must be unquoted"},
    {"request v1 simulate\ntarget fig2\nend\n",
     "line 2: target spec must be a quoted string"},
    {"request v1 simulate\ntarget \"fig2\" opt\nend\n",
     "line 2: target option must be a quoted string"},
    // Unknown enum names, one per enum.
    {"request v1 simulate\nresolution sideways\nend\n",
     "line 2: unknown resolution 'sideways' (lower|upper|random)"},
    {"request v1 explore\nengine quantum\nend\n",
     "line 2: unknown engine 'quantum' (exhaustive|greedy|annealing)"},
    {"request v1 simulate\npriority urgent\nend\n",
     "line 2: unknown priority 'urgent' (low|normal|high)"},
    {"request v1 explore\nproblem atom true\nend\n",
     "line 2: unknown granularity 'atom' (cluster|process)"},
    {"request v1 compare\nstrategies serialized,bogus\nend\n",
     "line 2: unknown strategy 'bogus'"},
    {"request v1 compare\nobjectives cost,,time\nend\n",
     "line 2: unknown objective ''"},
    {"response v1 ok simulate\ntrace-event 5 fly \"P\" \"\"\nend\n",
     "line 2: unknown trace kind 'fly' (fire|complete|reconfigure|select|cancel|drop)"},
    {"response v1 ok analyze\nbuffer-flow 0 \"c\" leaky 1 1\nend\n",
     "line 2: unknown flow class 'leaky' "
     "(balanced|possibly-unbounded|starving|source-only|sink-only|register)"},
    {"response v1 ok explore\nmap \"A\" FPGA\nend\n",
     "line 2: unknown mapping target 'FPGA' (SW|HW)"},
    {"response v1 error\ndiagnostic fatal \"c\" \"m\"\nend\n",
     "line 2: unknown severity 'fatal' (note|warning|error)"},
    // Lines that need an owner line before them.
    {"request v1 explore\nelement \"A\" 0.5 10 3 20 true true\nend\n",
     "line 2: 'element' before 'library'"},
    {"response v1 ok compare\noutcome \"s\" \"d\" true 1 1\nend\n",
     "line 2: 'outcome' before 'row'"},
    {"response v1 ok compare\nper-order 1 0.5 true 2\nend\n",
     "line 2: 'per-order' before 'row'"},
    {"response v1 ok compare\nrow \"s\" \"system\" 1 0 0 0\noutcome-per-app-map \"A\" SW\nend\n",
     "line 3: 'outcome-per-app-map' before 'outcome-per-app'"},
    // Composite columns.
    {"response v1 ok simulate\ninterface-stat 4294967296 0 0 0\nend\n",
     "line 2: interface id out of range: 4294967296"},
    {"response v1 ok analyze\nlatency-check \"c\" 1 x 3 true true 0\nend\n",
     "line 2: invalid hi-us 'x'"},
    {"response v1 ok pareto\npoint 1 2 \"A\"\nend\n",
     "line 2: missing mapping target after 'point'"},
    {"response v1 ok pareto\npoint 1 2 A SW\nend\n",
     "line 2: element must be a quoted string"},
    // Frame structure.
    {"request v1 simulate\nfroznar 12\nend\n",
     "line 2: unknown key 'froznar'"},
    {"request v1 transmogrify\nend\n",
     "line 1: unknown request kind 'transmogrify'"},
    {"request v2 simulate\nend\n",
     "line 1: missing frame id after 'request'"},
    {"request v1 simulate\nend\nseed 3\n",
     "line 3: content after 'end'"},
    {"request v1 simulate\nseed 3\n",
     "line 2: frame not terminated by 'end'"},
    {"request v1 simulate\n\"seed\" 3\nend\n",
     "line 2: expected a key, got a quoted string"},
    {"response v1 maybe simulate\nend\n",
     "line 1: unknown response status 'maybe' (ok|error)"},
    {"response v1 ok simulate\nend 1\n",
     "line 2: unexpected trailing token '1' after 'end'"},
};

TEST(WireCodec, MalformedFramesReportExactMessages) {
  for (const Malformed& row : kMalformed) {
    const std::string frame = row.frame;
    const std::string summary = frame.starts_with("response")
                                    ? api::wire::decode_response(frame).error_summary()
                                    : api::wire::decode_request(frame).error_summary();
    EXPECT_EQ(summary, std::string{"api-wire-error: "} + row.message) << frame;
  }
}

// --- service frames ----------------------------------------------------------

TEST(WireService, HelloAndControlRoundTrip) {
  const auto hello = api::wire::parse_hello(api::wire::hello_frame("alpha", "s3cret"));
  ASSERT_TRUE(hello.has_value());
  EXPECT_EQ(hello->tenant, "alpha");
  EXPECT_EQ(hello->token, "s3cret");
  EXPECT_FALSE(api::wire::parse_hello("hello v0 alpha\n").has_value());
  EXPECT_FALSE(api::wire::parse_hello("request v1 simulate\n").has_value());

  const auto control =
      api::wire::parse_control(api::wire::control_frame("load", {"synthetic", "variants=3"}));
  ASSERT_TRUE(control.has_value());
  EXPECT_EQ(control->command, "load");
  EXPECT_EQ(control->args, (std::vector<std::string>{"synthetic", "variants=3"}));
  EXPECT_FALSE(api::wire::parse_control("control v9 ping\n").has_value());
}

TEST(WireService, InfoFrameRoundTripsText) {
  const std::string text = "line one\nline \"two\"\ttabbed\n";
  const auto decoded = api::wire::decode_info(api::wire::encode_info(text));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), text);
}

TEST(WireService, ReadFrameSplitsAStream) {
  std::istringstream in{api::wire::control_frame("ping") +
                        "\nrequest v1 simulate\nseed 3\nend\n\n" + api::wire::hello_frame("alpha")};
  const auto control = api::wire::read_frame(in);
  ASSERT_TRUE(control.has_value());
  EXPECT_TRUE(api::wire::parse_control(*control).has_value());
  const auto request = api::wire::read_frame(in);
  ASSERT_TRUE(request.has_value());
  EXPECT_TRUE(api::wire::decode_request(*request).ok());
  const auto hello = api::wire::read_frame(in);
  ASSERT_TRUE(hello.has_value());
  EXPECT_EQ(api::wire::parse_hello(*hello)->tenant, "alpha");
  EXPECT_FALSE(api::wire::read_frame(in).has_value());  // EOF
}

TEST(WireService, ReadFrameEndsAtATerminatorWithStraySpaces) {
  // The decoder ends a frame at a line whose only token is `end`, so the
  // reader must too: otherwise `end ` swallows the next frame.
  std::istringstream in{"request v1 simulate\nseed 3\nend \n\nrequest v1 analyze\n end\n" +
                        api::wire::control_frame("ping")};
  const auto first = api::wire::read_frame(in);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, "request v1 simulate\nseed 3\nend \n");
  EXPECT_TRUE(api::wire::decode_request(*first).ok());
  const auto second = api::wire::read_frame(in);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*second, "request v1 analyze\n end\n");
  EXPECT_TRUE(api::wire::decode_request(*second).ok());
  const auto control = api::wire::read_frame(in);
  ASSERT_TRUE(control.has_value());
  EXPECT_TRUE(api::wire::parse_control(*control).has_value());
  EXPECT_FALSE(api::wire::read_frame(in).has_value());
}

TEST(WireService, TypodFrameConsumesExactlyOneFrame) {
  // Every frame is end-terminated, so a misspelled tag costs one error
  // reply and the stream stays synchronized — in both directions: a
  // typo'd control does not swallow later frames, and a typo'd request
  // does not explode into one error per body line.
  std::istringstream in{"contrl v1 ping\nend\n" + api::wire::control_frame("ping") +
                        "requst v1 simulate\nseed 3\nend\n" + api::wire::control_frame("ping")};
  const auto bad_control = api::wire::read_frame(in);
  ASSERT_TRUE(bad_control.has_value());
  EXPECT_FALSE(api::wire::parse_control(*bad_control).has_value());
  const auto good1 = api::wire::read_frame(in);
  ASSERT_TRUE(good1.has_value());
  EXPECT_TRUE(api::wire::parse_control(*good1).has_value());
  const auto bad_request = api::wire::read_frame(in);
  ASSERT_TRUE(bad_request.has_value());
  EXPECT_FALSE(api::wire::decode_request(*bad_request).ok());
  const auto good2 = api::wire::read_frame(in);
  ASSERT_TRUE(good2.has_value());
  EXPECT_TRUE(api::wire::parse_control(*good2).has_value());
  EXPECT_FALSE(api::wire::read_frame(in).has_value());
}

// --- the envelope against the dedicated endpoints ----------------------------

/// One request per kind over two models, with mixed per-slot priorities and
/// deadlines — the acceptance scenario.
std::vector<AnyRequest> mixed_batch(api::ModelId fig2, api::ModelId tv) {
  std::vector<AnyRequest> requests;
  api::SimulateRequest simulate{.model = fig2};
  simulate.options.resolution = sim::Resolution::kRandom;
  simulate.options.seed = 7;
  requests.push_back({.payload = simulate,
                      .options = {.priority = api::Priority::kHigh,
                                  .deadline = std::chrono::milliseconds{50}}});
  api::ExploreRequest explore{.model = fig2};
  explore.options.engine = synth::ExploreEngine::kExhaustive;
  requests.push_back({.payload = explore});
  requests.push_back({.payload = api::ParetoRequest{.model = fig2},
                      .options = {.priority = api::Priority::kLow}});
  requests.push_back({.payload = api::AnalyzeRequest{.model = tv},
                      .options = {.deadline = std::chrono::milliseconds{200}}});
  api::CompareRequest compare{.model = tv};
  compare.options.engine = synth::ExploreEngine::kGreedy;
  requests.push_back({.payload = compare});
  return requests;
}

/// Frame equality is field equality (the encoder covers every field), so
/// comparing encoded frames compares whole responses.
template <typename Response>
void expect_slot_matches(const api::Result<AnyResponse>& slot,
                         const api::Result<Response>& dedicated) {
  ASSERT_TRUE(slot.ok()) << slot.error_summary();
  ASSERT_TRUE(dedicated.ok()) << dedicated.error_summary();
  EXPECT_EQ(api::wire::encode(slot),
            api::wire::encode(api::Result<AnyResponse>::success(AnyResponse{dedicated.value()})));
}

class EnvelopeBatch : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EnvelopeBatch, MixedKindResultsMatchDedicatedEndpointsPerSlot) {
  auto store = std::make_shared<api::ModelStore>();
  Session session{store, api::make_executor(GetParam())};
  const api::ModelId fig2 = session.load(api::ModelSpec{"fig2"}).value().id;
  const api::ModelId tv = session.load(api::ModelSpec{"multistandard_tv"}).value().id;
  const std::vector<AnyRequest> requests = mixed_batch(fig2, tv);

  // Blocking heterogeneous batch.
  const auto batched = session.call_batch(requests);
  ASSERT_EQ(batched.size(), 5u);
  expect_slot_matches(batched[0],
                      session.simulate(std::get<api::SimulateRequest>(requests[0].payload)));
  expect_slot_matches(batched[1],
                      session.explore(std::get<api::ExploreRequest>(requests[1].payload)));
  expect_slot_matches(batched[2],
                      session.pareto(std::get<api::ParetoRequest>(requests[2].payload)));
  expect_slot_matches(batched[3],
                      session.analyze(std::get<api::AnalyzeRequest>(requests[3].payload)));
  expect_slot_matches(batched[4],
                      session.compare(std::get<api::CompareRequest>(requests[4].payload)));

  // Streaming submit with per-slot options delivers the same results.
  auto handle = session.submit(requests);
  const auto streamed = handle.wait();
  ASSERT_EQ(streamed.size(), 5u);
  for (std::size_t i = 0; i < streamed.size(); ++i) {
    ASSERT_TRUE(streamed[i].ok()) << streamed[i].error_summary();
    EXPECT_EQ(api::wire::encode(streamed[i]), api::wire::encode(batched[i])) << "slot " << i;
  }

  // call() agrees slot-by-slot too.
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const auto single = session.call(requests[i]);
    ASSERT_TRUE(single.ok());
    EXPECT_EQ(api::wire::encode(single), api::wire::encode(batched[i]));
  }
}

INSTANTIATE_TEST_SUITE_P(SerialAndPool, EnvelopeBatch, ::testing::Values(1u, 4u));

TEST(Envelope, SharesCacheEntriesWithDedicatedEndpoints) {
  Session session;
  session.enable_cache({.capacity = 64});
  const api::ModelId fig2 = session.load(api::ModelSpec{"fig2"}).value().id;

  // Dedicated endpoint populates; the envelope must hit the same entry.
  api::SimulateRequest request{.model = fig2};
  request.options.seed = 11;
  request.options.resolution = sim::Resolution::kRandom;
  ASSERT_TRUE(session.simulate(request).ok());
  const auto miss_stats = *session.cache_stats();
  EXPECT_EQ(miss_stats.misses, 1u);

  const auto via_envelope = session.call({.payload = request});
  ASSERT_TRUE(via_envelope.ok());
  const auto hit_stats = *session.cache_stats();
  EXPECT_EQ(hit_stats.hits, 1u);
  EXPECT_EQ(hit_stats.misses, 1u);

  // And a mixed batch repeated end-to-end is all hits.
  const auto tv = session.load(api::ModelSpec{"multistandard_tv"}).value().id;
  const auto requests = mixed_batch(fig2, tv);
  (void)session.call_batch(requests);
  const auto cold = *session.cache_stats();
  (void)session.call_batch(requests);
  const auto warm = *session.cache_stats();
  EXPECT_EQ(warm.misses, cold.misses);  // second pass added no misses
  EXPECT_EQ(warm.hits, cold.hits + 5);
}

TEST(Envelope, TargetSpecResolvesAndMemoizes) {
  Session session;
  api::SimulateRequest simulate;
  simulate.options.resolution = sim::Resolution::kRandom;

  const auto first = session.call({.payload = simulate, .target = "synthetic",
                                   .target_options = {"variants=3"}});
  ASSERT_TRUE(first.ok()) << first.error_summary();
  const auto second = session.call({.payload = simulate, .target = "synthetic",
                                    .target_options = {"variants=3"}});
  ASSERT_TRUE(second.ok());
  // Memoized: one model in the store, not two.
  EXPECT_EQ(session.models().size(), 1u);

  const auto unknown = session.call({.payload = simulate, .target = "no-such-model"});
  ASSERT_FALSE(unknown.ok());
  const auto orphan_options =
      session.call({.payload = simulate, .target_options = {"variants=3"}});
  ASSERT_FALSE(orphan_options.ok());
  EXPECT_TRUE(orphan_options.diagnostics().has_code(api::diag::kBadOption));
}

TEST(Envelope, UnknownModelAndKindHelpers) {
  Session session;
  const auto result = session.call({.payload = api::SimulateRequest{}});
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.diagnostics().has_code(api::diag::kUnknownModel));

  AnyRequest request{.payload = api::CompareRequest{}};
  EXPECT_EQ(api::kind_of(request), api::RequestKind::kCompare);
  EXPECT_EQ(api::fingerprint(request), api::fingerprint(api::CompareRequest{}));
  EXPECT_EQ(api::parse_request_kind("pareto"), api::RequestKind::kPareto);
  EXPECT_FALSE(api::parse_request_kind("bogus").has_value());
}

}  // namespace
}  // namespace spivar
