// Result-cache correctness: hits bit-identical to cold evaluations per
// builtin, exact hit/miss accounting, LRU eviction under a tiny capacity,
// and the content key (two loads of one model share entries, and an
// unload/reload pair re-hits byte-identical results). Also covers the
// canonical request fingerprints the keys are built from, the stored reply
// frame (one encoding for both tiers and both protocol versions), and
// Session::submit's inline memory-tier probe: hits land inside submit,
// never reach the executor, and every lookup counts exactly once.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <future>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "api/api.hpp"
#include "obs/trace.hpp"
#include "service/service.hpp"

namespace spivar {
namespace {

using api::ModelStore;
using api::Session;

template <typename T>
std::string render_result(const api::Result<T>& result) {
  return result.ok() ? api::render(result.value())
                     : api::render_diagnostics(result.diagnostics());
}

/// The wire frame of a typed result — the byte-level comparison oracle.
template <typename Response>
std::string frame_of(const api::Result<Response>& result) {
  return api::wire::encode(
      result.ok() ? api::Result<api::AnyResponse>::success(result.value(), result.diagnostics())
                  : api::Result<api::AnyResponse>::failure(result.diagnostics()));
}

/// A key over one fixed model content, for direct ResultCache tests.
api::ResultCache::Key key_of(std::uint64_t fingerprint,
                             api::RequestKind kind = api::RequestKind::kSimulate) {
  return {.content = 1, .kind = static_cast<std::uint8_t>(kind), .fingerprint = fingerprint};
}

api::Result<api::AnyResponse> empty_simulate() {
  return api::Result<api::AnyResponse>::success(api::SimulateResponse{});
}

// --- hits are bit-identical to cold evals, per builtin -----------------------

class CacheBitIdentical : public ::testing::TestWithParam<const char*> {};

TEST_P(CacheBitIdentical, HitMatchesColdEvalAcrossEveryEvalPath) {
  Session cold;  // no cache: the reference evaluation
  Session cached;
  cached.enable_cache({.capacity = 64});

  const auto cold_model = cold.load(api::ModelSpec{GetParam()});
  const auto cached_model = cached.load(api::ModelSpec{GetParam()});
  ASSERT_TRUE(cold_model.ok() && cached_model.ok());

  api::SimulateRequest simulate{.model = cold_model.value().id};
  simulate.options.resolution = sim::Resolution::kRandom;
  simulate.options.seed = 7;
  api::AnalyzeRequest analyze{.model = cold_model.value().id};
  api::ExploreRequest explore{.model = cold_model.value().id};
  api::ParetoRequest pareto{.model = cold_model.value().id};
  pareto.options.samples = 256;
  api::CompareRequest compare{.model = cold_model.value().id};
  compare.options.engine = synth::ExploreEngine::kGreedy;

  const auto check = [&](const char* what, const std::string& reference,
                         const std::string& miss, const std::string& hit) {
    EXPECT_EQ(reference, miss) << what << ": cold vs cache-miss";
    EXPECT_EQ(reference, hit) << what << ": cold vs cache-hit";
  };

  const auto on_cached = [&](auto request) {
    request.model = cached_model.value().id;
    return request;
  };
  check("simulate", render_result(cold.simulate(simulate)),
        render_result(cached.simulate(on_cached(simulate))),
        render_result(cached.simulate(on_cached(simulate))));
  check("analyze", render_result(cold.analyze(analyze)),
        render_result(cached.analyze(on_cached(analyze))),
        render_result(cached.analyze(on_cached(analyze))));
  check("explore", render_result(cold.explore(explore)),
        render_result(cached.explore(on_cached(explore))),
        render_result(cached.explore(on_cached(explore))));
  check("pareto", render_result(cold.pareto(pareto)),
        render_result(cached.pareto(on_cached(pareto))),
        render_result(cached.pareto(on_cached(pareto))));
  check("compare", render_result(cold.compare(compare)),
        render_result(cached.compare(on_cached(compare))),
        render_result(cached.compare(on_cached(compare))));

  const auto stats = cached.cache_stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->misses, 5u);  // one per eval path
  EXPECT_EQ(stats->hits, 5u);    // one repeat per eval path
  EXPECT_EQ(stats->entries, 5u);
}

INSTANTIATE_TEST_SUITE_P(Builtins, CacheBitIdentical,
                         ::testing::Values("fig1", "fig2", "fig3", "video_system",
                                           "multistandard_tv", "emission_control", "synthetic"));

// --- accounting --------------------------------------------------------------

TEST(ResultCache, DistinctRequestsMissAndIdenticalRequestsHit) {
  Session session;
  session.enable_cache();
  const auto loaded = session.load(api::ModelSpec{"fig1"});
  ASSERT_TRUE(loaded.ok());

  api::SimulateRequest request{.model = loaded.value().id};
  ASSERT_TRUE(session.simulate(request).ok());  // miss
  ASSERT_TRUE(session.simulate(request).ok());  // hit
  request.options.seed = 2;                     // different fingerprint
  ASSERT_TRUE(session.simulate(request).ok());  // miss
  request.options.seed = 1;
  ASSERT_TRUE(session.simulate(request).ok());  // hit (original entry)

  const auto stats = session.cache_stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->misses, 2u);
  EXPECT_EQ(stats->hits, 2u);
  EXPECT_EQ(stats->entries, 2u);
  EXPECT_DOUBLE_EQ(stats->hit_rate(), 0.5);
}

TEST(ResultCache, SessionsSharingAStoreShareTheCache) {
  auto store = std::make_shared<ModelStore>();
  store->enable_cache();
  Session a{store};
  Session b{store, api::make_executor(2)};
  const auto loaded = a.load(api::ModelSpec{"fig2"});
  ASSERT_TRUE(loaded.ok());

  const api::SimulateRequest request{.model = loaded.value().id};
  ASSERT_TRUE(a.simulate(request).ok());  // miss, fills the shared cache
  ASSERT_TRUE(b.simulate(request).ok());  // hit from the sibling session
  const auto stats = store->cache_stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->misses, 1u);
  EXPECT_EQ(stats->hits, 1u);
}

TEST(ResultCache, BatchesAreFrontedToo) {
  Session session{api::make_executor(4)};
  session.enable_cache();
  const auto loaded = session.load(api::ModelSpec{"fig1"});
  ASSERT_TRUE(loaded.ok());

  std::vector<api::AnyRequest> sweep;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    api::SimulateRequest request{.model = loaded.value().id};
    request.options.resolution = sim::Resolution::kRandom;
    request.options.seed = seed;
    sweep.emplace_back(request);
  }
  const auto cold = session.call_batch(sweep);
  const auto warm = session.call_batch(sweep);  // every slot hits
  const auto streamed = session.submit(sweep).wait();
  ASSERT_EQ(cold.size(), warm.size());
  for (std::size_t i = 0; i < cold.size(); ++i) {
    EXPECT_EQ(render_result(cold[i]), render_result(warm[i])) << i;
    EXPECT_EQ(render_result(cold[i]), render_result(streamed[i])) << i;
  }
  const auto stats = session.cache_stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->misses, sweep.size());       // the cold sweep
  EXPECT_EQ(stats->hits, 2 * sweep.size());     // warm + streamed repeat
}

// --- the content key ---------------------------------------------------------

TEST(ResultCache, TwoLoadsOfOneModelShareEntries) {
  Session session;
  session.enable_cache();
  const auto first = session.load(api::ModelSpec{"fig2"});
  const auto second = session.load(api::ModelSpec{"fig2"});
  ASSERT_TRUE(first.ok() && second.ok());
  ASSERT_NE(first.value().id.value(), second.value().id.value());

  ASSERT_TRUE(session.simulate({.model = first.value().id}).ok());  // miss
  const auto shared = session.simulate({.model = second.value().id});  // hit
  const auto stats = session.cache_stats();
  EXPECT_EQ(stats->misses, 1u);
  EXPECT_EQ(stats->hits, 1u);
  EXPECT_EQ(stats->entries, 1u);

  Session uncached;
  const auto reference = uncached.load(api::ModelSpec{"fig2"});
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(frame_of(shared), frame_of(uncached.simulate({.model = reference.value().id})));
}

TEST(ResultCache, UnloadThenReloadReHitsByteIdentical) {
  Session session;
  session.enable_cache();
  const auto first = session.load(api::ModelSpec{"fig1"});
  ASSERT_TRUE(first.ok());
  const auto cold = session.simulate({.model = first.value().id});  // miss
  ASSERT_TRUE(cold.ok());

  // The unload tombstones the id but leaves the content-keyed entry.
  EXPECT_EQ(session.unload(first.value().id), api::UnloadStatus::kUnloaded);
  EXPECT_EQ(session.cache_stats()->entries, 1u);

  const auto second = session.load(api::ModelSpec{"fig1"});
  ASSERT_TRUE(second.ok());
  EXPECT_NE(second.value().id.value(), first.value().id.value());
  const auto warm = session.simulate({.model = second.value().id});
  EXPECT_EQ(frame_of(warm), frame_of(cold));
  const auto stats = session.cache_stats();
  EXPECT_EQ(stats->misses, 1u);
  EXPECT_EQ(stats->hits, 1u);  // the reload re-hit
}

TEST(ResultCache, EvictionUnderTinyCapacity) {
  // Equal costs: the cost window has no cheaper victim to prefer, so
  // eviction follows pure recency.
  api::ResultCache cache{{.capacity = 2, .shards = 1}};
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {  // 3 entries, capacity 2
    cache.insert(key_of(seed), empty_simulate(), 10);
  }
  auto stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);  // seed 1 (least recently used) dropped
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(cache.find(key_of(1)), nullptr);  // evicted: misses

  // LRU order, not insertion order: touching seed 2 makes seed 3 the
  // eviction victim of the next insert.
  EXPECT_NE(cache.find(key_of(2)), nullptr);  // hit, refreshes recency
  cache.insert(key_of(4), empty_simulate(), 10);  // evicts seed 3
  EXPECT_NE(cache.find(key_of(2)), nullptr);      // still cached
  EXPECT_EQ(cache.find(key_of(3)), nullptr);
  stats = cache.stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.evictions, 2u);
}

// --- cost-aware admission ----------------------------------------------------

TEST(ResultCache, CostWeightedEvictionProtectsExpensiveEntries) {
  // Capacity 2: when the third entry arrives, the two least recent are
  // examined and the *cheaper* one is dropped even though the expensive one
  // is older.
  api::ResultCache cache{{.capacity = 2, .shards = 1}};
  cache.insert(key_of(1), empty_simulate(), 5'000'000);  // expensive
  cache.insert(key_of(2), empty_simulate(), 1);          // cheap
  cache.insert(key_of(3), empty_simulate(), 10);

  EXPECT_NE(cache.find(key_of(1)), nullptr);  // survived despite LRU tail
  EXPECT_EQ(cache.find(key_of(2)), nullptr);  // the cheap one was evicted
  EXPECT_NE(cache.find(key_of(3)), nullptr);

  const api::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.evicted_cost_us, 1u);
  EXPECT_EQ(stats.cached_cost_us, 5'000'010u);
}

TEST(ResultCache, HitsAccumulateSavedCost) {
  api::ResultCache cache{{.capacity = 8, .shards = 1}};
  const auto key = key_of(42, api::RequestKind::kCompare);
  cache.insert(key, api::Result<api::AnyResponse>::success(api::CompareResponse{}), 250);
  EXPECT_NE(cache.find(key), nullptr);
  EXPECT_NE(cache.find(key), nullptr);
  const api::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.saved_cost_us, 500u);
  EXPECT_EQ(stats.cached_cost_us, 250u);
}

TEST(ResultCache, EvalPathsChargeMeasuredCost) {
  // End to end: entries inserted through with_cache carry their measured
  // eval time, so a real sweep accumulates nonzero cached cost and repeat
  // hits accumulate saved cost. (Exact values are wall-clock dependent;
  // only the accounting invariants are asserted.)
  Session session;
  session.enable_cache({.capacity = 64});
  const auto loaded = session.load(api::ModelSpec{"fig2"});
  ASSERT_TRUE(loaded.ok());
  api::CompareRequest compare{.model = loaded.value().id};
  compare.options.engine = synth::ExploreEngine::kExhaustive;
  ASSERT_TRUE(session.compare(compare).ok());
  const auto cold = *session.cache_stats();
  EXPECT_GT(cold.cached_cost_us, 0u);
  EXPECT_EQ(cold.saved_cost_us, 0u);

  ASSERT_TRUE(session.compare(compare).ok());
  const auto warm = *session.cache_stats();
  EXPECT_EQ(warm.hits, cold.hits + 1);
  EXPECT_GE(warm.saved_cost_us, cold.cached_cost_us);
}

TEST(ResultCache, CacheStatsAreNulloptWhenDisabled) {
  Session session;
  EXPECT_FALSE(session.cache_stats().has_value());
  session.enable_cache({.capacity = 4});
  EXPECT_TRUE(session.cache_stats().has_value());
  // Idempotent: re-enabling keeps the cache and its counters.
  const auto loaded = session.load(api::ModelSpec{"fig1"});
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(session.simulate({.model = loaded.value().id}).ok());
  session.enable_cache({.capacity = 999});
  EXPECT_EQ(session.cache_stats()->misses, 1u);
}

// --- canonical fingerprints --------------------------------------------------

TEST(RequestFingerprint, DuplicateCompareStrategiesCollapse) {
  using synth::StrategyKind;
  api::CompareRequest a;
  a.strategies = {StrategyKind::kSerialized, StrategyKind::kIndependent};
  api::CompareRequest b = a;
  b.strategies = {StrategyKind::kSerialized, StrategyKind::kIndependent,
                  StrategyKind::kSerialized};  // duplicate adds no row
  EXPECT_EQ(api::fingerprint(a), api::fingerprint(b));

  // Presentation order is semantic (it orders the response rows).
  api::CompareRequest c = a;
  c.strategies = {StrategyKind::kIndependent, StrategyKind::kSerialized};
  EXPECT_NE(api::fingerprint(a), api::fingerprint(c));
}

TEST(RequestFingerprint, ObjectiveChainsAreOrderSensitive) {
  using synth::RankObjective;
  api::CompareRequest a;
  a.objectives = {RankObjective::kTotalCost, RankObjective::kDesignTime};
  api::CompareRequest b = a;
  b.objectives = {RankObjective::kDesignTime, RankObjective::kTotalCost};
  EXPECT_NE(api::fingerprint(a), api::fingerprint(b));
}

TEST(RequestFingerprint, OutcomeRelevantFieldsChangeTheDigest) {
  api::SimulateRequest base;
  EXPECT_EQ(api::fingerprint(base), api::fingerprint(api::SimulateRequest{}));
  api::SimulateRequest seeded = base;
  seeded.options.seed = 99;
  EXPECT_NE(api::fingerprint(base), api::fingerprint(seeded));
  api::SimulateRequest timeline = base;
  timeline.render_timeline = true;
  EXPECT_NE(api::fingerprint(base), api::fingerprint(timeline));

  // The model handle is deliberately *not* part of the fingerprint — the
  // cache key names the model by its content.
  api::SimulateRequest other_model = base;
  other_model.model = api::ModelId{42};
  EXPECT_EQ(api::fingerprint(base), api::fingerprint(other_model));
}

TEST(RequestFingerprint, LibraryOverridesHashByValue) {
  api::ExploreRequest a;
  api::ExploreRequest b;
  EXPECT_EQ(api::fingerprint(a), api::fingerprint(b));

  synth::ImplLibrary library;
  library.add("x", {.sw_load = 0.5, .hw_cost = 10.0});
  library.add("y", {.sw_load = 0.25, .hw_cost = 20.0});
  a.library = library;
  EXPECT_NE(api::fingerprint(a), api::fingerprint(b));

  // Same logical library (std::map iterates name-ordered regardless of
  // insertion order) — equal digests.
  synth::ImplLibrary reordered;
  reordered.add("y", {.sw_load = 0.25, .hw_cost = 20.0});
  reordered.add("x", {.sw_load = 0.5, .hw_cost = 10.0});
  b.library = reordered;
  EXPECT_EQ(api::fingerprint(a), api::fingerprint(b));
}

/// Requests that move each field of every payload's wire description once,
/// plus requests that must share a key with an earlier one: another model
/// handle, a reordered library, a duplicate strategy, a field set to its
/// default.
std::vector<api::RequestPayload> partition_table() {
  using synth::RankObjective;
  using synth::StrategyKind;
  synth::ImplLibrary library;
  library.processor_cost = 30.0;
  library.add("x", {.sw_load = 0.5, .sw_wcet = support::Duration{40}, .hw_cost = 10.0,
                    .hw_wcet = support::Duration{5}});
  library.add("y", {.sw_load = 0.25, .hw_cost = 20.0});
  const auto edited = [&library](auto edit) {
    synth::ImplLibrary copy = library;
    edit(copy);
    return copy;
  };
  const auto element = [&edited](auto edit) {
    return edited([&edit](synth::ImplLibrary& copy) {
      synth::ElementImpl impl = copy.at("x");
      edit(impl);
      copy.add("x", impl);
    });
  };
  const auto simulate = [](auto edit) {
    api::SimulateRequest request;
    edit(request);
    return request;
  };
  const auto analyze = [](auto edit) {
    api::AnalyzeRequest request;
    edit(request);
    return request;
  };
  const auto explore = [](auto edit) {
    api::ExploreRequest request;
    edit(request);
    return request;
  };
  const auto pareto = [](auto edit) {
    api::ParetoRequest request;
    edit(request);
    return request;
  };
  const auto compare = [](auto edit) {
    api::CompareRequest request;
    edit(request);
    return request;
  };
  synth::ImplLibrary reordered;
  reordered.processor_cost = 30.0;
  reordered.add("y", library.at("y"));
  reordered.add("x", library.at("x"));

  return {
      // simulate: 0-9
      api::SimulateRequest{},
      simulate([](auto& r) { r.options.resolution = sim::Resolution::kRandom; }),
      simulate([](auto& r) { r.options.seed = 99; }),
      simulate([](auto& r) { r.options.max_time = support::TimePoint{5'000}; }),
      simulate([](auto& r) { r.options.max_total_firings = 500; }),
      simulate([](auto& r) { r.options.record_trace = true; }),
      simulate([](auto& r) { r.options.trace_limit = 16; }),
      simulate([](auto& r) { r.render_timeline = true; }),
      simulate([](auto& r) { r.model = api::ModelId{42}; }),  // = 0
      simulate([](auto& r) { r.options.seed = 1; }),           // = 0: the default
      // analyze: 10-15
      api::AnalyzeRequest{},
      analyze([](auto& r) { r.deadlock = false; }),
      analyze([](auto& r) { r.buffers = false; }),
      analyze([](auto& r) { r.structure = false; }),
      analyze([](auto& r) { r.timing = false; }),
      analyze([](auto& r) { r.include_reconfiguration = true; }),
      // explore: 16-39
      api::ExploreRequest{},
      explore([](auto& r) { r.options.engine = synth::ExploreEngine::kAnnealing; }),
      explore([](auto& r) { r.options.seed = 7; }),
      explore([](auto& r) { r.options.exhaustive_limit = 8; }),
      explore([](auto& r) { r.options.annealing_trials_per_element = 50; }),
      explore([](auto& r) { r.options.annealing_initial_temperature = 5.0; }),
      explore([](auto& r) { r.options.infeasibility_penalty = 10.0; }),
      explore([](auto& r) { r.problem = synth::ProblemOptions{}; }),
      explore([](auto& r) { r.problem = synth::ProblemOptions{.granularity = synth::ElementGranularity::kProcess}; }),
      explore([](auto& r) { r.problem = synth::ProblemOptions{.skip_virtual = false}; }),
      explore([&](auto& r) { r.library = library; }),
      explore([&](auto& r) { r.library = edited([](auto& l) { l.processor_cost = 31.0; }); }),
      explore([&](auto& r) { r.library = edited([](auto& l) { l.processor_budget = 0.5; }); }),
      explore([&](auto& r) {
        r.library = edited([](auto& l) {
          l = synth::ImplLibrary{};
          l.processor_cost = 30.0;
          l.add("z", {.sw_load = 0.5, .sw_wcet = support::Duration{40}, .hw_cost = 10.0,
                      .hw_wcet = support::Duration{5}});
          l.add("y", {.sw_load = 0.25, .hw_cost = 20.0});
        });
      }),
      explore([&](auto& r) { r.library = element([](auto& e) { e.sw_load = 0.75; }); }),
      explore([&](auto& r) { r.library = element([](auto& e) { e.sw_wcet = support::Duration{41}; }); }),
      explore([&](auto& r) { r.library = element([](auto& e) { e.hw_cost = 11.0; }); }),
      explore([&](auto& r) { r.library = element([](auto& e) { e.hw_wcet = support::Duration{6}; }); }),
      explore([&](auto& r) { r.library = element([](auto& e) { e.can_sw = false; }); }),
      explore([&](auto& r) { r.library = element([](auto& e) { e.can_hw = false; }); }),
      explore([&](auto& r) { r.library = element([](auto& e) { e.period = support::Duration{100}; }); }),
      explore([&](auto& r) { r.library = reordered; }),                  // = 26
      explore([&](auto& r) {
        r.library = library;
        r.model = api::ModelId{3};
      }),  // = 26
      explore([](auto& r) { r.library = synth::ImplLibrary{}; }),
      // pareto: 40-47
      api::ParetoRequest{},
      pareto([](auto& r) { r.options.exhaustive_limit = 4; }),
      pareto([](auto& r) { r.options.samples = 64; }),
      pareto([](auto& r) { r.options.seed = 9; }),
      pareto([](auto& r) { r.problem = synth::ProblemOptions{.granularity = synth::ElementGranularity::kProcess}; }),
      pareto([&](auto& r) { r.library = library; }),
      pareto([&](auto& r) { r.library = reordered; }),  // = 45
      pareto([](auto& r) { r.options.samples = 4096; }),  // = 40: the default
      // compare: 48-68
      api::CompareRequest{},
      compare([](auto& r) { r.strategies = {StrategyKind::kSerialized, StrategyKind::kIndependent}; }),
      compare([](auto& r) { r.strategies = {StrategyKind::kIndependent, StrategyKind::kSerialized}; }),
      compare([](auto& r) {
        r.strategies = {StrategyKind::kSerialized, StrategyKind::kIndependent,
                        StrategyKind::kSerialized};
      }),  // = 49
      compare([](auto& r) { r.strategies = {StrategyKind::kWithVariants}; }),
      compare([](auto& r) { r.options.engine = synth::ExploreEngine::kExhaustive; }),
      compare([](auto& r) { r.options.seed = 5; }),
      compare([](auto& r) { r.options.exhaustive_limit = 12; }),
      compare([](auto& r) { r.options.annealing_trials_per_element = 10; }),
      compare([](auto& r) { r.options.annealing_initial_temperature = 2.5; }),
      compare([](auto& r) { r.options.infeasibility_penalty = 1.0; }),
      compare([](auto& r) { r.all_orders = true; }),
      compare([](auto& r) { r.max_orders = 6; }),
      compare([](auto& r) { r.objectives = {RankObjective::kTotalCost, RankObjective::kDesignTime}; }),
      compare([](auto& r) { r.objectives = {RankObjective::kDesignTime, RankObjective::kTotalCost}; }),
      compare([](auto& r) { r.objectives = {RankObjective::kWorstUtilization}; }),
      compare([](auto& r) { r.problem = synth::ProblemOptions{.skip_virtual = false}; }),
      compare([&](auto& r) { r.library = library; }),
      compare([&](auto& r) { r.library = element([](auto& e) { e.period = support::Duration{100}; }); }),
      compare([](auto& r) { r.max_orders = 24; }),                 // = 48: the default
      compare([](auto& r) { r.model = api::ModelId{5}; }),         // = 48
  };
}

TEST(RequestFingerprint, EveryDescribedFieldSplitsTheKeyAndNothingElseDoes) {
  // Entry i's expected value is the index of the first entry whose cache
  // key (kind, fingerprint) equals entry i's: i itself when the key is new.
  // The field-by-field hashers that predate the description-driven
  // fingerprint gave this same partition.
  const std::vector<std::size_t> expected = {
      0,  1,  2,  3,  4,  5,  6,  7,  0,  0,                          // simulate
      10, 11, 12, 13, 14, 15,                                          // analyze
      16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31,  // explore
      32, 33, 34, 35, 36, 26, 26, 39,                                  //
      40, 41, 42, 43, 44, 45, 45, 40,                                  // pareto
      48, 49, 50, 49, 52, 53, 54, 55, 56, 57, 58, 59, 60, 61, 62, 63,  // compare
      64, 65, 66, 48, 48};
  const std::vector<api::RequestPayload> table = partition_table();
  std::vector<std::pair<api::RequestKind, std::uint64_t>> keys;
  std::vector<std::size_t> first_equal;
  for (const api::RequestPayload& payload : table) {
    const api::AnyRequest request{.payload = payload};
    keys.emplace_back(api::kind_of(request), api::fingerprint(request));
    first_equal.push_back(
        static_cast<std::size_t>(std::find(keys.begin(), keys.end(), keys.back()) - keys.begin()));
  }
  EXPECT_EQ(first_equal, expected);
}

// --- tombstone-aware spec cache ----------------------------------------------

TEST(SpecCache, ReusesLiveHandlesAndReloadsTombstonedOnes) {
  auto store = std::make_shared<ModelStore>();
  api::SpecCache specs{store};

  const auto first = specs.resolve("fig2");
  ASSERT_TRUE(first.ok());
  const auto again = specs.resolve("fig2");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().id.value(), first.value().id.value());  // one load
  EXPECT_EQ(store->size(), 1u);

  // Unload through the store (a `--then unload` stage): the next resolve
  // must NOT resurrect the tombstoned id.
  ASSERT_EQ(store->unload(first.value().id), api::UnloadStatus::kUnloaded);
  const auto reloaded = specs.resolve("fig2");
  ASSERT_TRUE(reloaded.ok());
  EXPECT_NE(reloaded.value().id.value(), first.value().id.value());
  EXPECT_NE(store->find(reloaded.value().id), nullptr);
  EXPECT_EQ(store->find(first.value().id), nullptr);  // still a tombstone
  EXPECT_EQ(store->unload(first.value().id), api::UnloadStatus::kAlreadyUnloaded);
}

TEST(SpecCache, PeekObservesWithoutLoading) {
  auto store = std::make_shared<ModelStore>();
  api::SpecCache specs{store};

  // Never resolved: peek reports nothing and loads nothing (the CLI's
  // `unload` of an unknown spec must not build it just to tombstone it).
  EXPECT_FALSE(specs.peek("fig2").has_value());
  EXPECT_EQ(store->size(), 0u);

  const auto loaded = specs.resolve("fig2");
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(specs.peek("fig2").has_value());
  EXPECT_EQ(specs.peek("fig2")->value(), loaded.value().id.value());

  // After unload, peek still returns the tombstoned handle — that is what
  // makes kAlreadyUnloaded observable through the CLI's `--then unload`.
  ASSERT_EQ(store->unload(loaded.value().id), api::UnloadStatus::kUnloaded);
  ASSERT_TRUE(specs.peek("fig2").has_value());
  EXPECT_EQ(store->unload(*specs.peek("fig2")), api::UnloadStatus::kAlreadyUnloaded);
}

TEST(SpecCache, OptionAssignmentsKeySeparatelyAndRequireABuiltin) {
  auto store = std::make_shared<ModelStore>();
  api::SpecCache specs{store};

  const auto plain = specs.resolve("synthetic");
  const auto tuned = specs.resolve("synthetic", {"variants=4"});
  ASSERT_TRUE(plain.ok() && tuned.ok());
  EXPECT_NE(plain.value().id.value(), tuned.value().id.value());
  EXPECT_EQ(specs.resolve("synthetic", {"variants=4"}).value().id.value(),
            tuned.value().id.value());

  const auto bad = specs.resolve("/tmp/not-a-builtin.spit", {"variants=4"});
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(bad.diagnostics().has_code(api::diag::kBadOption));
}

TEST(SpecCache, UnloadThenReResolveReHitsAcrossStages) {
  // The full `--then` interaction: stage 1 evaluates (cached), stage 2
  // unloads, stage 3 re-resolves (a fresh id) and re-evaluates — a hit on
  // the content-keyed entry, byte-identical to stage 1.
  auto store = std::make_shared<ModelStore>();
  store->enable_cache();
  api::SpecCache specs{store};
  Session session{store};

  const auto first = specs.resolve("fig1");
  ASSERT_TRUE(first.ok());
  const auto cold = session.simulate({.model = first.value().id});
  ASSERT_TRUE(cold.ok());
  ASSERT_EQ(store->unload(first.value().id), api::UnloadStatus::kUnloaded);

  const auto second = specs.resolve("fig1");
  ASSERT_TRUE(second.ok());
  EXPECT_NE(second.value().id.value(), first.value().id.value());
  EXPECT_EQ(frame_of(session.simulate({.model = second.value().id})), frame_of(cold));
  const auto stats = store->cache_stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->hits, 1u);
  EXPECT_EQ(stats->misses, 1u);
}

// --- stored reply frames: one encoding for both tiers and both versions -----

TEST(CachedReplyFrames, StoredFrameIsTheOneEncodingOfEveryReply) {
  const std::filesystem::path dir = std::filesystem::temp_directory_path() /
                                    ("spivar_cache_frames_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  const persist::PersistConfig persist{.dir = dir.string()};

  Session reference;
  const auto model = reference.load(api::ModelSpec{"fig2"});
  ASSERT_TRUE(model.ok());
  api::SimulateRequest simulate{.model = model.value().id};
  simulate.options.record_trace = true;
  const api::Result<api::AnyResponse> simulated = reference.call({.payload = simulate});
  const api::Result<api::AnyResponse> analyzed =
      reference.call({.payload = api::AnalyzeRequest{.model = model.value().id}});
  ASSERT_TRUE(simulated.ok() && analyzed.ok());
  support::DiagnosticList notes;
  notes.warning("test-note", "a \"quoted\" note\nover two lines");
  notes.note("test-note", "and a second one");
  // Success of two kinds, a success carrying notes, and a failure.
  const std::vector<api::Result<api::AnyResponse>> replies = {
      simulated,
      analyzed,
      api::Result<api::AnyResponse>::success(analyzed.value(), notes),
      api::Result<api::AnyResponse>::failure(api::diag::kEmptyProblem, "no \"elements\""),
  };

  {
    api::ResultCache cache{{.capacity = 16, .shards = 1, .persist = persist}};
    ASSERT_TRUE(cache.persistent());
    for (std::size_t i = 0; i < replies.size(); ++i) {
      const api::Result<api::AnyResponse>& reply = replies[i];
      const api::RequestKind kind =
          reply.ok() ? api::kind_of(reply.value()) : api::RequestKind::kSimulate;
      const auto key = key_of(100 + i, kind);
      const api::ResultCache::Value record = cache.insert(key, reply, 10);
      ASSERT_NE(record, nullptr);
      EXPECT_EQ(record->frame, api::wire::encode(reply)) << "reply " << i;
      EXPECT_EQ(api::wire::retag(record->frame, 7 + i), api::wire::encode(reply, 7 + i))
          << "reply " << i;
      // A hit hands out the record itself, not a copy.
      EXPECT_EQ(cache.find(key), record);

      // The disk tier holds the same bytes, once the write-through lands.
      cache.drain_spills();
      persist::DiskTier disk{persist};
      const auto stored = disk.load(key, api::to_string(kind));
      ASSERT_TRUE(stored.has_value()) << "reply " << i;
      EXPECT_EQ(stored->frame, record->frame) << "reply " << i;

      // A promoted entry is re-encoded: the same bytes again.
      cache.clear(/*include_disk=*/false);
      const api::ResultCache::Value promoted = cache.find(key);
      ASSERT_NE(promoted, nullptr) << "reply " << i;
      EXPECT_EQ(promoted->frame, record->frame) << "reply " << i;
      EXPECT_EQ(api::wire::encode(*promoted), record->frame) << "reply " << i;
    }
  }
  std::filesystem::remove_all(dir);
}

// --- submit's inline memory-tier probe ----------------------------------------

api::AnyRequest traced_simulate(const std::string& target, std::uint64_t seed) {
  api::SimulateRequest simulate;
  simulate.options.seed = seed;
  simulate.options.resolution = sim::Resolution::kRandom;
  api::AnyRequest envelope{.payload = simulate, .target = target};
  envelope.trace = std::make_shared<obs::TraceContext>(seed, "default", "simulate", target);
  return envelope;
}

bool has_span(const obs::TraceContext& trace, obs::SpanKind kind) {
  const std::vector<obs::Span> spans = trace.spans();
  return std::any_of(spans.begin(), spans.end(),
                     [kind](const obs::Span& span) { return span.kind == kind; });
}

/// Waits (bounded) until the executor has completed `count` tasks; a task
/// counts only after its slot callback returned, which can be after wait().
std::uint64_t completed_at_least(const Session& session, std::uint64_t count) {
  for (int i = 0; i < 10'000 && session.executor_stats().completed < count; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds{1});
  }
  return session.executor_stats().completed;
}

TEST(SubmitInlineProbe, HitsLandInsideSubmitAndNeverReachTheExecutor) {
  Session session{api::make_executor(2)};
  session.enable_cache({.capacity = 64});
  constexpr std::uint64_t kCached = 5;
  constexpr std::uint64_t kUncached = 3;
  for (std::uint64_t seed = 1; seed <= kCached; ++seed) {
    ASSERT_TRUE(session.call(traced_simulate("fig1", seed)).ok());
  }
  const api::CacheStats before = *session.cache_stats();
  const std::uint64_t completed_before = session.executor_stats().completed;

  // Cached and uncached envelopes interleaved: slots 0, 2, 4, 6, 7 hit.
  std::vector<api::AnyRequest> requests;
  std::vector<bool> cached;
  for (std::uint64_t i = 0; i < kCached + kUncached; ++i) {
    const bool hit = i % 2 == 0 || i >= 2 * kUncached;
    requests.push_back(traced_simulate("fig1", hit ? 1 + (i / 2) % kCached : 100 + i));
    cached.push_back(hit);
  }
  std::vector<std::shared_ptr<obs::TraceContext>> traces;
  for (const api::AnyRequest& request : requests) traces.push_back(request.trace);

  std::mutex mutex;
  std::vector<std::thread::id> landed_on(requests.size());
  std::vector<std::string> frames(requests.size());
  auto handle = session.submit(
      requests, [&](std::size_t slot, const api::Result<api::AnyResponse>& result,
                    std::string_view frame) {
        std::lock_guard lock{mutex};
        landed_on[slot] = std::this_thread::get_id();
        frames[slot] = std::string{frame};
        EXPECT_TRUE(frame.empty() || frame == api::wire::encode(result));
      });
  // on_slot fires before the future is set, so a hit whose future is ready
  // here had its on_slot run before submit returned.
  for (std::size_t slot = 0; slot < requests.size(); ++slot) {
    if (!cached[slot]) continue;
    EXPECT_EQ(handle.slot(slot).wait_for(std::chrono::seconds{0}), std::future_status::ready)
        << "slot " << slot;
  }
  const auto results = handle.wait();
  for (std::size_t slot = 0; slot < requests.size(); ++slot) {
    ASSERT_TRUE(results[slot].ok()) << "slot " << slot;
    std::lock_guard lock{mutex};
    if (cached[slot]) {
      EXPECT_EQ(landed_on[slot], std::this_thread::get_id()) << "slot " << slot;
      EXPECT_EQ(frames[slot], api::wire::encode(results[slot])) << "slot " << slot;
      EXPECT_TRUE(has_span(*traces[slot], obs::SpanKind::kCacheProbe)) << "slot " << slot;
      EXPECT_FALSE(has_span(*traces[slot], obs::SpanKind::kQueueWait)) << "slot " << slot;
      EXPECT_FALSE(has_span(*traces[slot], obs::SpanKind::kEval)) << "slot " << slot;
    } else {
      EXPECT_NE(landed_on[slot], std::this_thread::get_id()) << "slot " << slot;
      EXPECT_TRUE(has_span(*traces[slot], obs::SpanKind::kCacheProbe)) << "slot " << slot;
      EXPECT_TRUE(has_span(*traces[slot], obs::SpanKind::kQueueWait)) << "slot " << slot;
      EXPECT_TRUE(has_span(*traces[slot], obs::SpanKind::kEval)) << "slot " << slot;
    }
  }

  // Every lookup counted once: k hits, m misses, and only the misses ran
  // on the executor.
  const api::CacheStats after = *session.cache_stats();
  EXPECT_EQ(after.hits - before.hits, kCached);
  EXPECT_EQ(after.misses - before.misses, kUncached);
  EXPECT_EQ(completed_at_least(session, completed_before + kUncached) - completed_before,
            kUncached);
}

TEST(SubmitInlineProbe, QueuedDuplicatesHitTheFirstSlotsInsert) {
  // Every slot misses the inline probe (nothing is cached yet), and the
  // serial executor then runs them in order. Each task looks its key up
  // again, so only the first evaluates; the rest hit its insert and carry
  // its frame.
  Session session{api::make_executor(1)};
  session.enable_cache({.capacity = 64});
  constexpr std::uint64_t kSlots = 4;
  std::vector<api::AnyRequest> requests;
  for (std::uint64_t i = 0; i < kSlots; ++i) requests.push_back(traced_simulate("fig1", 77));
  const api::CacheStats before = *session.cache_stats();
  const std::uint64_t completed_before = session.executor_stats().completed;

  std::mutex mutex;
  std::vector<std::string> frames(kSlots);
  const auto results = session
                           .submit(requests,
                                   [&](std::size_t slot, const api::Result<api::AnyResponse>&,
                                       std::string_view frame) {
                                     std::lock_guard lock{mutex};
                                     frames[slot] = std::string{frame};
                                   })
                           .wait();
  ASSERT_EQ(results.size(), kSlots);
  for (std::size_t slot = 0; slot < kSlots; ++slot) {
    ASSERT_TRUE(results[slot].ok()) << "slot " << slot;
    std::lock_guard lock{mutex};
    EXPECT_EQ(frames[slot], api::wire::encode(results[slot])) << "slot " << slot;
    EXPECT_EQ(frames[slot], frames[0]) << "slot " << slot;
  }
  const api::CacheStats after = *session.cache_stats();
  EXPECT_EQ(after.misses - before.misses, 1u);
  EXPECT_EQ(after.hits - before.hits, kSlots - 1);
  EXPECT_EQ(session.executor_stats().completed - completed_before, kSlots);
}

TEST(SubmitInlineProbe, CancelledSlotsCountNoLookupInEitherConfiguration) {
  const std::filesystem::path dir = std::filesystem::temp_directory_path() /
                                    ("spivar_cache_cancel_" + std::to_string(::getpid()));
  for (const bool persistent : {false, true}) {
    SCOPED_TRACE(persistent ? "persistent" : "memory only");
    std::filesystem::remove_all(dir);
    auto store = std::make_shared<ModelStore>();
    // One worker, so a blocked slot callback holds every later task queued.
    Session session{store, std::make_shared<api::ThreadPoolExecutor>(1)};
    api::CacheConfig config{.capacity = 64};
    if (persistent) config.persist = persist::PersistConfig{.dir = dir.string()};
    const std::shared_ptr<api::ResultCache> cache = session.enable_cache(config);
    constexpr std::uint32_t kTag = 1;
    session.bind_tenant(std::make_shared<api::StoreView>(
        store, api::TenantContext{.name = "alpha", .tag = kTag}, api::TenantQuota{}));
    const auto tenant_row = [&] {
      for (const api::TenantCacheStats& row : cache->tenant_stats()) {
        if (row.tag == kTag) return row;
      }
      return api::TenantCacheStats{.tag = kTag};
    };
    const api::CacheStats before = *session.cache_stats();
    const api::TenantCacheStats row_before = tenant_row();

    // The gate slot evaluates (one miss), then parks the worker in on_slot.
    std::promise<void> parked;
    std::promise<void> release;
    std::shared_future<void> released = release.get_future().share();
    auto gate = session.submit({traced_simulate("fig1", 500)},
                               [&parked, released](std::size_t,
                                                   const api::Result<api::AnyResponse>&,
                                                   std::string_view) {
                                 parked.set_value();
                                 released.wait();
                               });
    parked.get_future().wait();
    // These miss the inline probe, queue behind the gate, and are cancelled
    // before a worker reaches them: no lookup happens, so none is counted.
    std::vector<api::AnyRequest> queued;
    for (std::uint64_t seed = 600; seed < 604; ++seed) {
      queued.push_back(traced_simulate("fig1", seed));
    }
    auto cancelled = session.submit(queued);
    cancelled.cancel();
    release.set_value();
    ASSERT_TRUE(gate.wait().front().ok());
    for (const auto& result : cancelled.wait()) {
      ASSERT_FALSE(result.ok());
      EXPECT_TRUE(result.diagnostics().has_code(api::diag::kCancelled));
    }

    const api::CacheStats after = *session.cache_stats();
    const api::TenantCacheStats row_after = tenant_row();
    EXPECT_EQ(after.hits - before.hits, 0u);
    EXPECT_EQ(after.misses - before.misses, 1u);
    EXPECT_EQ(row_after.hits - row_before.hits, 0u);
    EXPECT_EQ(row_after.misses - row_before.misses, 1u);
  }
  std::filesystem::remove_all(dir);
}

TEST(SubmitInlineProbe, AdmissionShedsCachedKeysFirst) {
  auto store = std::make_shared<ModelStore>();
  auto executor = api::make_executor(1);
  Session session{store, executor};
  session.enable_cache({.capacity = 64});
  const auto admission = std::make_shared<api::AdmissionController>(api::AdmissionConfig{
      .max_miss_rate = 0.5,
      .window = std::chrono::milliseconds{60'000},  // never expires mid-test
      .min_samples = 1,
  });
  session.bind_tenant(nullptr, admission);
  const api::AnyRequest cached = traced_simulate("fig1", 1);
  ASSERT_TRUE(session.call(cached).ok());

  // Expired deadlines drive the projected miss rate to 1.0.
  std::vector<api::AnyRequest> hopeless;
  for (std::uint64_t seed = 10; seed < 14; ++seed) {
    hopeless.push_back(traced_simulate("fig1", seed));
    hopeless.back().options.deadline = std::chrono::milliseconds{0};
  }
  for (const auto& result : session.call_batch(hopeless)) ASSERT_TRUE(result.ok());

  // The key is cached, yet every entry point sheds it, and the cache is
  // never probed.
  const api::CacheStats before = *session.cache_stats();
  const auto shed = session.submit({cached}).wait();
  ASSERT_EQ(shed.size(), 1u);
  ASSERT_FALSE(shed.front().ok());
  EXPECT_TRUE(shed.front().diagnostics().has_code(api::diag::kOverload));
  EXPECT_TRUE(session.call(cached).diagnostics().has_code(api::diag::kOverload));
  const api::CacheStats after = *session.cache_stats();
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
}

/// The hits and misses columns of a rendered `cache-stats` table.
std::pair<std::uint64_t, std::uint64_t> global_hits_misses(const std::string& text) {
  std::istringstream in{text};
  std::string line;
  while (std::getline(in, line) && line.rfind("hits", 0) != 0) {
  }
  std::getline(in, line);  // the rule under the header
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  in >> hits >> misses;
  return {hits, misses};
}

/// The hits and misses of tenant `name`'s `cache-stats` row.
std::pair<std::uint64_t, std::uint64_t> tenant_hits_misses(const std::string& text,
                                                           const std::string& name) {
  std::istringstream in{text};
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("tenant " + name + " ", 0) != 0) continue;
    std::istringstream row{line};
    std::string word;
    std::pair<std::uint64_t, std::uint64_t> counts{0, 0};
    while (row >> word) {
      if (word == "hits") row >> counts.first;
      if (word == "misses") row >> counts.second;
    }
    return counts;
  }
  return {0, 0};
}

TEST(SubmitInlineProbe, ServiceCountsEachLookupOnceForDefaultAndHelloTenants) {
  service::Service svc{{.jobs = 2, .cache = 256}};
  const auto run = [&](const std::string& input) {
    std::istringstream in{input};
    std::ostringstream out;
    svc.serve_stream(in, out);
    return out.str();
  };
  const auto cache_stats = [&](const std::string& hello) {
    std::istringstream replies{run(hello + api::wire::control_frame("cache-stats"))};
    std::string text;
    while (const auto frame = api::wire::read_frame(replies)) {
      const auto info = api::wire::decode_info(*frame);
      if (info.ok()) text = info.value();
    }
    return text;
  };
  constexpr std::uint64_t kCached = 6;
  constexpr std::uint64_t kUncached = 4;
  std::uint64_t completed_before = 0;
  for (const std::string tenant : {"", "alpha"}) {
    const std::string hello = tenant.empty() ? "" : api::wire::hello_frame(tenant);
    std::string warm = hello;
    for (std::uint64_t seed = 1; seed <= kCached; ++seed) {
      warm += api::wire::encode(traced_simulate("fig2", seed), seed);
    }
    run(warm);
    // The warm-up's misses, all counted before the burst starts.
    completed_before = completed_at_least(svc.session(), completed_before + kCached);

    const std::string before = cache_stats(hello);
    std::string burst = hello;
    for (std::uint64_t i = 0; i < kCached + kUncached; ++i) {
      const std::uint64_t seed = i < kCached ? 1 + i : 1000 + i;
      burst += api::wire::encode(traced_simulate("fig2", seed), 50 + i);
    }
    run(burst);
    const std::string after = cache_stats(hello);

    const auto [hits_before, misses_before] = global_hits_misses(before);
    const auto [hits_after, misses_after] = global_hits_misses(after);
    EXPECT_EQ(hits_after - hits_before, kCached) << "tenant '" << tenant << "'\n" << after;
    EXPECT_EQ(misses_after - misses_before, kUncached) << "tenant '" << tenant << "'\n" << after;
    if (!tenant.empty()) {
      const auto [row_hits_before, row_misses_before] = tenant_hits_misses(before, tenant);
      const auto [row_hits_after, row_misses_after] = tenant_hits_misses(after, tenant);
      EXPECT_EQ(row_hits_after - row_hits_before, kCached) << after;
      EXPECT_EQ(row_misses_after - row_misses_before, kUncached) << after;
    }
    const std::uint64_t completed = completed_at_least(svc.session(), completed_before + kUncached);
    EXPECT_EQ(completed - completed_before, kUncached) << "tenant '" << tenant << "'";
    completed_before = completed;
  }
}

}  // namespace
}  // namespace spivar
