// Persistent tier — the price of durability and the payoff of a warm disk.
//
// Three latency classes frame the tier's value: a cold evaluation (the work
// the cache exists to avoid), a memory-tier hit (the PR 4 fast path), and a
// disk-tier hit (restart path: open + validate + CRC + wire-decode +
// promote). Alongside: the write-through cost an insert pays with and
// without fsync, and the raw DiskTier store/load throughput across payload
// sizes. CI uploads the JSON as BENCH_persist.json.
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "api/api.hpp"

namespace {

using namespace spivar;

namespace fs = std::filesystem;

/// A scratch directory per benchmark, removed on destruction.
struct TempDir {
  fs::path path;
  TempDir() {
    static std::atomic<int> counter{0};
    path = fs::temp_directory_path() /
           ("spivar_bench_persist_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter.fetch_add(1)));
    fs::remove_all(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  [[nodiscard]] std::string str() const { return path.string(); }
};

api::ModelId must_load(api::Session& session, const char* name) {
  const auto loaded = session.load(api::ModelSpec{name});
  if (api::report_failure(loaded)) std::exit(1);
  return loaded.value().id;
}

api::SimulateRequest seeded_request(api::ModelId model) {
  api::SimulateRequest request{.model = model};
  request.options.resolution = sim::Resolution::kRandom;
  request.options.seed = 7;
  return request;
}

/// One representative cached value: a real fig1 simulation result.
api::Result<api::AnyResponse> sample_result() {
  api::Session session;
  return session.call({.payload = seeded_request(must_load(session, "fig1"))});
}

api::ResultCache::Key sample_key(std::uint64_t fingerprint) {
  return api::ResultCache::Key{.content = 0xfeedc0de,
                               .kind = static_cast<std::uint8_t>(api::RequestKind::kSimulate),
                               .fingerprint = fingerprint};
}

void print_report() {
  std::cout << "== persist: restart re-hit demonstration ==\n\n";
  TempDir dir;
  const api::CacheConfig config{.capacity = 64,
                                .persist = persist::PersistConfig{.dir = dir.str()}};
  std::string first;
  {
    api::Session session;
    session.enable_cache(config);
    const auto run = session.simulate(seeded_request(must_load(session, "fig2")));
    if (api::report_failure(run)) std::exit(1);
    first = api::render(run.value());
  }
  api::Session session;  // "restarted": fresh ids, same directory
  session.enable_cache(config);
  const auto rerun = session.simulate(seeded_request(must_load(session, "fig2")));
  if (api::report_failure(rerun)) std::exit(1);
  const auto stats = *session.cache_stats();
  std::cout << "fig2 simulate after restart: disk hits " << stats.disk_hits << ", spills "
            << stats.disk_spills << ", outputs "
            << (api::render(rerun.value()) == first ? "byte-identical" : "DIVERGED!") << "\n\n";
}

// --- the three latency classes -----------------------------------------------

void BM_ColdSimulate(benchmark::State& state) {
  api::Session session;  // no cache: every iteration evaluates
  const api::SimulateRequest request = seeded_request(must_load(session, "fig1"));
  for (auto _ : state) {
    const auto r = session.simulate(request);
    benchmark::DoNotOptimize(r.ok());
  }
}
BENCHMARK(BM_ColdSimulate);

void BM_MemoryTierHit(benchmark::State& state) {
  TempDir dir;
  api::ResultCache cache{{.capacity = 64,
                          .persist = persist::PersistConfig{.dir = dir.str()}}};
  cache.insert(sample_key(1), sample_result(), 100);
  for (auto _ : state) {
    auto hit = cache.find(sample_key(1));
    benchmark::DoNotOptimize(hit);
  }
}
BENCHMARK(BM_MemoryTierHit);

void BM_DiskTierHit(benchmark::State& state) {
  // The restart path, isolated: clearing the memory tier (disk kept) before
  // each probe forces open + header validation + CRC + wire decode + promote.
  TempDir dir;
  api::ResultCache cache{{.capacity = 64,
                          .persist = persist::PersistConfig{.dir = dir.str()}}};
  cache.insert(sample_key(1), sample_result(), 100);
  for (auto _ : state) {
    cache.clear(/*include_disk=*/false);
    auto hit = cache.find(sample_key(1));
    benchmark::DoNotOptimize(hit);
  }
  if (cache.stats().disk_skipped != 0) state.SkipWithError("disk entries were skipped");
}
BENCHMARK(BM_DiskTierHit);

// --- the price of durability -------------------------------------------------

void BM_WriteThroughInsert(benchmark::State& state) {
  // Every insert pays one encode + temp-file write + rename. Distinct
  // fingerprints per iteration keep it a fresh store, not a same-key rewrite.
  TempDir dir;
  const auto policy = state.range(0) == 0 ? persist::PersistConfig::FsyncPolicy::kNever
                                          : persist::PersistConfig::FsyncPolicy::kAlways;
  api::ResultCache cache{{.capacity = 64,
                          .persist = persist::PersistConfig{.dir = dir.str(),
                                                            .fsync_policy = policy}}};
  const auto result = sample_result();
  std::uint64_t fingerprint = 0;
  for (auto _ : state) {
    cache.insert(sample_key(++fingerprint), result, 100);
  }
  state.SetLabel(state.range(0) == 0 ? "fsync=never" : "fsync=always");
}
BENCHMARK(BM_WriteThroughInsert)->Arg(0)->Arg(1);

void BM_MemoryOnlyInsert(benchmark::State& state) {
  // The PR 4 baseline the write-through overhead is measured against.
  api::ResultCache cache{{.capacity = 64}};
  const auto result = sample_result();
  std::uint64_t fingerprint = 0;
  for (auto _ : state) {
    cache.insert(sample_key(++fingerprint), result, 100);
  }
}
BENCHMARK(BM_MemoryOnlyInsert);

// --- raw DiskTier throughput -------------------------------------------------

void BM_DiskTierStore(benchmark::State& state) {
  TempDir dir;
  persist::DiskTier tier{{.dir = dir.str()}};
  const std::string frame(static_cast<std::size_t>(state.range(0)), 'x');
  std::uint64_t fingerprint = 0;
  for (auto _ : state) {
    tier.store({.content = 1, .kind = 0, .fingerprint = ++fingerprint}, "simulate", frame, 1);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_DiskTierStore)->Arg(256)->Arg(4096)->Arg(65536);

void BM_DiskTierLoad(benchmark::State& state) {
  TempDir dir;
  persist::DiskTier tier{{.dir = dir.str()}};
  const std::string frame(static_cast<std::size_t>(state.range(0)), 'x');
  const persist::DiskKey key{.content = 1, .kind = 0, .fingerprint = 1};
  tier.store(key, "simulate", frame, 1);
  for (auto _ : state) {
    auto entry = tier.load(key, "simulate");
    benchmark::DoNotOptimize(entry);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_DiskTierLoad)->Arg(256)->Arg(4096)->Arg(65536);

}  // namespace

int main(int argc, char** argv) {
  print_report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
