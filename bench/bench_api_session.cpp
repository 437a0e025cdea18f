// Experiment API — overhead of the api::Session facade and throughput of
// the batch surface.
//
// The facade adds response materialization (name-resolved rows) on top of
// the raw engine. BM_BatchThroughput measures the executor seam directly:
// the same 64-request simulate batch under 1 vs N workers; BM_FirstSlot*
// measures latency until the *first* result is observable (streaming
// futures vs the blocking batch call); BM_SkewedBatch runs one oversized
// scenario next to many small ones through the self-scheduling pool. The
// serial-vs-parallel numbers are recorded, not asserted (CI uploads the
// JSON as BENCH_api.json).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <iostream>

#include "api/api.hpp"
#include "models/fig1.hpp"
#include "sim/engine.hpp"

namespace {

using namespace spivar;

/// Loads a builtin or aborts with rendered diagnostics — benchmarks have no
/// error path of their own.
api::ModelId must_load(api::Session& session, const char* name) {
  const auto loaded = session.load(api::ModelSpec{name});
  if (api::report_failure(loaded)) std::exit(1);
  return loaded.value().id;
}

api::ModelId must_load(api::Session& session, api::ModelSpec request) {
  const auto loaded = session.load(std::move(request));
  if (api::report_failure(loaded)) std::exit(1);
  return loaded.value().id;
}

void print_report() {
  std::cout << "== API: session facade overhead and batch baseline ==\n\n";
  api::Session session;
  const auto run = session.simulate({.model = must_load(session, "fig1")});
  if (api::report_failure(run)) std::exit(1);
  std::cout << "fig1 via facade: " << run.value().result.total_firings << " firings, end "
            << run.value().result.end_time << "\n\n";
}

void BM_DirectSimulate(benchmark::State& state) {
  const spi::Graph g = models::make_fig1({.tag = 'a', .source_firings = 100});
  for (auto _ : state) {
    sim::SimResult r = sim::Simulator{g}.run();
    benchmark::DoNotOptimize(r.total_firings);
  }
}
BENCHMARK(BM_DirectSimulate);

void BM_SessionSimulate(benchmark::State& state) {
  api::Session session;
  const api::SimulateRequest request{.model = must_load(session, "fig1")};
  for (auto _ : state) {
    const auto r = session.simulate(request);
    benchmark::DoNotOptimize(r.value().result.total_firings);
  }
}
BENCHMARK(BM_SessionSimulate);

/// A seed sweep of simulate envelopes over `model`, seeds 1..count.
std::vector<api::AnyRequest> seed_sweep(api::ModelId model, std::int64_t count) {
  std::vector<api::AnyRequest> sweep;
  sweep.reserve(static_cast<std::size_t>(count));
  for (std::int64_t seed = 1; seed <= count; ++seed) {
    api::SimulateRequest request{.model = model};
    request.options.resolution = sim::Resolution::kRandom;
    request.options.seed = static_cast<std::uint64_t>(seed);
    sweep.push_back({.payload = request});
  }
  return sweep;
}

void BM_SessionSimulateBatch(benchmark::State& state) {
  api::Session session;
  const auto batch = seed_sweep(must_load(session, "fig1"), state.range(0));
  for (auto _ : state) {
    const auto results = session.call_batch(batch);
    benchmark::DoNotOptimize(results.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SessionSimulateBatch)->Arg(4)->Arg(16)->Arg(64);

/// Batch throughput at the executor seam: 64 independent simulate requests
/// over the synthetic model, dispatched across state.range(0) workers.
/// Results are bit-identical across worker counts (asserted in the tests);
/// only the wall time moves.
void BM_BatchThroughput(benchmark::State& state) {
  constexpr std::int64_t kRequests = 64;
  api::Session session{api::make_executor(static_cast<std::size_t>(state.range(0)))};
  const auto batch = seed_sweep(must_load(session, "synthetic"), kRequests);
  for (auto _ : state) {
    const auto results = session.call_batch(batch);
    benchmark::DoNotOptimize(results.size());
  }
  state.SetItemsProcessed(state.iterations() * kRequests);
  state.counters["workers"] = static_cast<double>(session.executor().workers());
}
BENCHMARK(BM_BatchThroughput)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

/// A deliberately skewed batch: slot 0 is a small fig1 run, the remaining
/// slots are much heavier synthetic scenarios — the shape where
/// latency-to-first-result and self-scheduling matter.
std::vector<api::AnyRequest> make_skewed_batch(api::Session& session, std::size_t heavy) {
  const api::ModelId small = must_load(session, "fig1");
  const api::ModelId big = must_load(
      session, api::ModelSpec{.name = "synthetic",
                              .options = models::SyntheticSpec{.variants = 12}});
  std::vector<api::AnyRequest> batch = seed_sweep(big, static_cast<std::int64_t>(heavy));
  batch.insert(batch.begin(), api::AnyRequest{.payload = api::SimulateRequest{.model = small}});
  return batch;
}

/// Streaming: time until the first slot's future is ready — front ends can
/// render it while the heavy slots are still running.
void BM_FirstSlotLatencyStreaming(benchmark::State& state) {
  api::Session session{api::make_executor(4)};
  const auto batch = make_skewed_batch(session, 7);
  for (auto _ : state) {
    const auto started = std::chrono::steady_clock::now();
    auto handle = session.submit(batch);
    handle.slot(0).wait();
    state.SetIterationTime(std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - started)
                               .count());
    const auto rest = handle.wait();  // drain outside the measured region
    benchmark::DoNotOptimize(rest.size());
  }
}
BENCHMARK(BM_FirstSlotLatencyStreaming)->UseManualTime();

/// Blocking: the first result only becomes observable when the whole batch
/// returns — the baseline the streaming surface beats.
void BM_FirstSlotLatencyBlocking(benchmark::State& state) {
  api::Session session{api::make_executor(4)};
  const auto batch = make_skewed_batch(session, 7);
  for (auto _ : state) {
    const auto started = std::chrono::steady_clock::now();
    const auto results = session.call_batch(batch);
    benchmark::DoNotOptimize(results.front().ok());
    state.SetIterationTime(std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - started)
                               .count());
  }
}
BENCHMARK(BM_FirstSlotLatencyBlocking)->UseManualTime();

/// Full wall time of the skewed batch across worker counts — the atomic-
/// cursor self-scheduling pool keeps small slots flowing around the giant
/// one instead of serializing behind a static partition.
void BM_SkewedBatch(benchmark::State& state) {
  api::Session session{api::make_executor(static_cast<std::size_t>(state.range(0)))};
  const auto batch = make_skewed_batch(session, 7);
  for (auto _ : state) {
    const auto results = session.call_batch(batch);
    benchmark::DoNotOptimize(results.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(batch.size()));
  state.counters["workers"] = static_cast<double>(session.executor().workers());
}
BENCHMARK(BM_SkewedBatch)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

// --- result cache ------------------------------------------------------------

/// Latency of a pure cache hit: the same simulate request repeated against
/// a warmed (snapshot, request) cache — lookup plus one response copy,
/// orders of magnitude under BM_SessionSimulate's full evaluation.
void BM_CacheHitSimulate(benchmark::State& state) {
  api::Session session;
  session.enable_cache({.capacity = 256});
  api::SimulateRequest request{.model = must_load(session, "synthetic")};
  request.options.resolution = sim::Resolution::kRandom;
  request.options.seed = 1;
  benchmark::DoNotOptimize(session.simulate(request).ok());  // warm the entry
  for (auto _ : state) {
    const auto r = session.simulate(request);
    benchmark::DoNotOptimize(r.value().result.total_firings);
  }
  const auto stats = session.cache_stats();
  state.counters["hit_rate"] = stats ? stats->hit_rate() : 0.0;
}
BENCHMARK(BM_CacheHitSimulate);

/// The acceptance-criterion pair: a 16-seed scenario sweep, cold (no cache,
/// every iteration re-simulates) vs warm (cache enabled and pre-filled,
/// every slot hits). The warm/cold wall-time ratio is the cache's payoff
/// for repeated sweeps; warm must be >= 10x faster.
void BM_ColdVsWarmSweep(benchmark::State& state) {
  const bool warm = state.range(0) != 0;
  api::Session session;
  if (warm) session.enable_cache({.capacity = 4096});
  const auto sweep = seed_sweep(must_load(session, "synthetic"), 16);
  if (warm) benchmark::DoNotOptimize(session.call_batch(sweep).size());  // prefill
  for (auto _ : state) {
    const auto results = session.call_batch(sweep);
    benchmark::DoNotOptimize(results.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(sweep.size()));
  state.counters["warm"] = warm ? 1.0 : 0.0;
}
BENCHMARK(BM_ColdVsWarmSweep)->Arg(0)->Arg(1)->UseRealTime();

// --- priority scheduling -----------------------------------------------------

/// Priority inversion, measured: an urgent single-slot batch submitted
/// while a skewed background batch occupies the pool. At normal priority
/// the urgent slot queues FIFO behind the backlog; at high priority workers
/// yield to it between tasks. The latency gap is the scheduler's payoff.
void BM_UrgentSlotUnderLoad(benchmark::State& state) {
  const auto priority = static_cast<api::Priority>(state.range(0));
  api::Session session{api::make_executor(2)};
  const api::ModelId small = must_load(session, "fig1");
  const auto background = make_skewed_batch(session, 12);
  for (auto _ : state) {
    auto backlog = session.submit(background);
    const auto started = std::chrono::steady_clock::now();
    // A 1 ms deadline on the urgent slot arms the executor's deadline-miss
    // telemetry: at normal priority the slot queues behind the backlog and
    // blows the deadline, at high priority it overtakes and meets it.
    auto urgent = session.submit(
        {{.payload = api::SimulateRequest{.model = small},
          .options = {.priority = priority, .deadline = std::chrono::milliseconds{1}}}});
    urgent.slot(0).wait();
    state.SetIterationTime(std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - started)
                               .count());
    benchmark::DoNotOptimize(backlog.wait().size());  // drain outside the clock
  }
  const api::ExecutorStats stats = session.executor_stats();
  state.counters["priority"] = static_cast<double>(state.range(0));
  state.counters["deadline_misses"] = static_cast<double>(stats.deadline_misses);
  state.counters["max_lateness_ms"] =
      static_cast<double>(stats.max_lateness.count()) / 1000.0;
}
BENCHMARK(BM_UrgentSlotUnderLoad)
    ->Arg(static_cast<int>(api::Priority::kNormal))
    ->Arg(static_cast<int>(api::Priority::kHigh))
    ->UseManualTime();

void BM_SessionExplore(benchmark::State& state) {
  api::Session session;
  api::ExploreRequest request{.model = must_load(session, "fig2")};
  request.options.engine = synth::ExploreEngine::kExhaustive;
  for (auto _ : state) {
    const auto r = session.explore(request);
    benchmark::DoNotOptimize(r.value().result.cost.total);
  }
}
BENCHMARK(BM_SessionExplore);

}  // namespace

int main(int argc, char** argv) {
  print_report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
