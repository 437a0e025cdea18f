// Result-cache correctness: hits bit-identical to cold evaluations per
// builtin, exact hit/miss accounting, LRU eviction under a tiny capacity,
// and the content key (two loads of one model share entries, and an
// unload/reload pair re-hits byte-identical results). Also covers the
// canonical request fingerprints the keys are built from.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "api/api.hpp"

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

  const auto cold_model = cold.load_builtin(GetParam());
  const auto cached_model = cached.load_builtin(GetParam());
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
  const auto loaded = session.load_builtin("fig1");
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
  const auto loaded = a.load_builtin("fig2");
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
  const auto loaded = session.load_builtin("fig1");
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
  const auto first = session.load_builtin("fig2");
  const auto second = session.load_builtin("fig2");
  ASSERT_TRUE(first.ok() && second.ok());
  ASSERT_NE(first.value().id.value(), second.value().id.value());

  ASSERT_TRUE(session.simulate({.model = first.value().id}).ok());  // miss
  const auto shared = session.simulate({.model = second.value().id});  // hit
  const auto stats = session.cache_stats();
  EXPECT_EQ(stats->misses, 1u);
  EXPECT_EQ(stats->hits, 1u);
  EXPECT_EQ(stats->entries, 1u);

  Session uncached;
  const auto reference = uncached.load_builtin("fig2");
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(frame_of(shared), frame_of(uncached.simulate({.model = reference.value().id})));
}

TEST(ResultCache, UnloadThenReloadReHitsByteIdentical) {
  Session session;
  session.enable_cache();
  const auto first = session.load_builtin("fig1");
  ASSERT_TRUE(first.ok());
  const auto cold = session.simulate({.model = first.value().id});  // miss
  ASSERT_TRUE(cold.ok());

  // The unload tombstones the id but leaves the content-keyed entry.
  EXPECT_EQ(session.unload(first.value().id), api::UnloadStatus::kUnloaded);
  EXPECT_EQ(session.cache_stats()->entries, 1u);

  const auto second = session.load_builtin("fig1");
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
  const auto loaded = session.load_builtin("fig2");
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
  const auto loaded = session.load_builtin("fig1");
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

}  // namespace
}  // namespace spivar
