// The observability subsystem: registry get-or-create semantics and exact
// totals under concurrent writers (the TSAN target), collectors republishing
// per render, tracer ring/slow-log idempotence, span propagation through a
// pipelined v2 burst surfaced by the `trace` and `metrics` controls, and the
// --metrics-port HTTP responder end to end.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/api.hpp"
#include "api/wire.hpp"
#include "obs/exposition.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/service.hpp"
#include "service/tcp.hpp"

namespace spivar {
namespace {

namespace fs = std::filesystem;

/// A per-test scratch directory, removed on destruction.
class TempDir {
 public:
  TempDir() {
    static std::atomic<int> counter{0};
    path_ = fs::temp_directory_path() /
            ("spivar_obs_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter.fetch_add(1)));
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  [[nodiscard]] std::string str() const { return path_.string(); }
  [[nodiscard]] fs::path path() const { return path_; }

 private:
  fs::path path_;
};

api::AnyRequest simulate_envelope(const std::string& target, std::uint64_t seed = 1) {
  api::SimulateRequest simulate;
  simulate.options.seed = seed;
  api::AnyRequest envelope;
  envelope.payload = simulate;
  envelope.target = target;
  return envelope;
}

/// The info frames in a reply stream, decoded in order.
std::vector<std::string> parse_info_replies(const std::string& stream) {
  std::istringstream in{stream};
  std::vector<std::string> infos;
  while (const auto frame = api::wire::read_frame(in)) {
    const auto info = api::wire::decode_info(*frame);
    if (info.ok()) infos.push_back(info.value());
  }
  return infos;
}

// --- registry semantics ------------------------------------------------------

TEST(ObsRegistry, GetOrCreateReturnsOneInstrumentPerNameAndLabels) {
  obs::MetricsRegistry registry;
  obs::Counter& a = registry.counter("spivar_test_total", "help text",
                                     {{"tenant", "default"}, {"kind", "simulate"}});
  obs::Counter& again = registry.counter("spivar_test_total", "ignored on re-registration",
                                         {{"tenant", "default"}, {"kind", "simulate"}});
  obs::Counter& other = registry.counter("spivar_test_total", "help text",
                                         {{"tenant", "default"}, {"kind", "compare"}});
  EXPECT_EQ(&a, &again) << "same (name, labels) must dedupe to one instrument";
  EXPECT_NE(&a, &other) << "different labels must get their own instrument";

  a.add(3);
  other.add();
  registry.gauge("spivar_test_depth", "a gauge").set(-7);
  registry.histogram("spivar_test_latency_us", "a histogram").record(150);

  const std::string text = registry.render();
  EXPECT_NE(text.find("# HELP spivar_test_total help text\n"), std::string::npos) << text;
  EXPECT_NE(text.find("# TYPE spivar_test_total counter\n"), std::string::npos) << text;
  EXPECT_NE(text.find("spivar_test_total{tenant=\"default\",kind=\"simulate\"} 3\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("spivar_test_total{tenant=\"default\",kind=\"compare\"} 1\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("spivar_test_depth -7\n"), std::string::npos) << text;
  // Histograms render as summaries: quantile series plus _sum/_count.
  EXPECT_NE(text.find("# TYPE spivar_test_latency_us summary\n"), std::string::npos) << text;
  EXPECT_NE(text.find("spivar_test_latency_us{quantile=\"0.99\"}"), std::string::npos) << text;
  EXPECT_NE(text.find("spivar_test_latency_us_count 1\n"), std::string::npos) << text;
}

TEST(ObsRegistry, ConcurrentWritersLoseNoIncrements) {
  // The TSAN job runs this target: N threads hammering one shared counter
  // and one shared histogram while a scraper renders concurrently. Totals
  // must come out exact — add()/record() are atomic, not merely "close".
  obs::MetricsRegistry registry;
  obs::Counter& hits = registry.counter("spivar_tsan_total", "concurrent counter");
  obs::Histogram& latency = registry.histogram("spivar_tsan_latency_us", "concurrent histogram");

  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20'000;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&hits, &latency, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        hits.add();
        latency.record(static_cast<std::uint64_t>(t) * 1000 + (i % 997));
      }
    });
  }
  std::atomic<bool> done{false};
  std::thread scraper{[&registry, &done] {
    while (!done.load(std::memory_order_acquire)) {
      const std::string text = registry.render();
      ASSERT_NE(text.find("spivar_tsan_total"), std::string::npos);
    }
  }};
  for (std::thread& writer : writers) writer.join();
  done.store(true, std::memory_order_release);
  scraper.join();

  EXPECT_EQ(hits.value(), kThreads * kPerThread);
  EXPECT_EQ(latency.count(), kThreads * kPerThread);
  EXPECT_EQ(latency.snapshot().count(), kThreads * kPerThread);
}

TEST(ObsRegistry, CollectorsRepublishPerRender) {
  // Collector callbacks run at the start of every render, so the scrape
  // always reflects the source struct's current value — not the value at
  // registration time.
  obs::MetricsRegistry registry;
  std::atomic<std::int64_t> queue_depth{0};
  registry.add_collector([&registry, &queue_depth] {
    registry.gauge("spivar_collected_depth", "republished from an external struct")
        .set(queue_depth.load());
  });

  queue_depth.store(5);
  EXPECT_NE(registry.render().find("spivar_collected_depth 5\n"), std::string::npos);
  queue_depth.store(11);
  EXPECT_NE(registry.render().find("spivar_collected_depth 11\n"), std::string::npos);
}

// --- tracer ring and slow log ------------------------------------------------

TEST(ObsTracer, FinishRecordsOnceAndSlowLogsOnce) {
  TempDir tmp;
  const std::string log = (tmp.path() / "slow.jsonl").string();
  // Threshold 0 = every finished request qualifies as slow; idempotence is
  // what keeps the sink at one line per request even when both the executor
  // callback and a teardown path try to finish the same trace.
  obs::Tracer tracer{{.ring = 8, .slow_threshold_us = 0, .log_path = log}};

  const auto trace = tracer.begin("default", "simulate", "fig1");
  ASSERT_NE(trace, nullptr);
  EXPECT_EQ(trace->id(), 1u);
  const auto start = trace->born();
  trace->add_span(obs::SpanKind::kEval, start, start + std::chrono::microseconds{40});

  const auto total = tracer.finish(trace, /*ok=*/true);
  ASSERT_TRUE(total.has_value());
  EXPECT_FALSE(tracer.finish(trace, true).has_value()) << "second finish must be a no-op";

  const auto last = tracer.last();
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->id, 1u);
  EXPECT_EQ(last->tenant, "default");
  EXPECT_EQ(last->kind, "simulate");
  ASSERT_EQ(last->spans.size(), 1u);
  EXPECT_EQ(last->spans[0].kind, obs::SpanKind::kEval);
  EXPECT_EQ(last->spans[0].duration_us, 40u);

  std::ifstream sink{log};
  ASSERT_TRUE(sink.is_open());
  std::string line;
  std::size_t lines = 0;
  std::string first;
  while (std::getline(sink, line)) {
    if (lines++ == 0) first = line;
  }
  EXPECT_EQ(lines, 1u) << "the slow sink must receive exactly one line per request";
  EXPECT_NE(first.find("\"kind\":\"simulate\""), std::string::npos) << first;
  EXPECT_NE(first.find("\"spans\":["), std::string::npos) << first;
}

TEST(ObsTracer, RingEvictsOldestAndServesSelectors) {
  obs::Tracer tracer{{.ring = 2}};
  for (int i = 0; i < 3; ++i) {
    const auto trace = tracer.begin("default", "simulate", "fig1");
    ASSERT_TRUE(tracer.finish(trace, true).has_value());
  }
  EXPECT_EQ(tracer.minted(), 3u);
  EXPECT_FALSE(tracer.find(1).has_value()) << "a ring of 2 must have evicted trace 1";
  EXPECT_TRUE(tracer.find(2).has_value());
  const auto last = tracer.last();
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->id, 3u);
  ASSERT_TRUE(tracer.slowest().has_value());
}

// --- span propagation through the service ------------------------------------

TEST(ObsServe, PipelinedBurstSurfacesSpansAndMetrics) {
  service::Service svc{{.jobs = 2, .cache = 64}};

  // A pipelined v2 burst: each request is minted a trace at the boundary,
  // waits in the executor queue, probes the cache, and evaluates.
  std::string burst;
  for (std::uint64_t id = 1; id <= 4; ++id) {
    burst += api::wire::encode(simulate_envelope("fig1", id), id);
  }
  {
    std::istringstream in{burst};
    std::ostringstream out;
    const service::StreamStats stats = svc.serve_stream(in, out);
    EXPECT_EQ(stats.pipelined, 4u);
  }
  // The executor counts a task complete only after its slot callback (the
  // one that let serve_stream return) is done: wait for all four, so the
  // scrape below and the stats read after it see the same count.
  for (int wait = 0; wait < 2000 && svc.session().executor_stats().completed < 4; ++wait) {
    std::this_thread::sleep_for(std::chrono::milliseconds{1});
  }

  // Controls on a second stream: serve_stream returns only after every slot
  // drained, so all four traces are in the ring before these run.
  std::string controls;
  controls += api::wire::control_frame("trace", {"last"});
  controls += api::wire::control_frame("metrics", {});
  std::istringstream in{controls};
  std::ostringstream out;
  svc.serve_stream(in, out);

  const auto infos = parse_info_replies(out.str());
  ASSERT_EQ(infos.size(), 2u) << out.str();

  const std::string& trace = infos[0];
  EXPECT_NE(trace.find("tenant default"), std::string::npos) << trace;
  EXPECT_NE(trace.find("kind simulate"), std::string::npos) << trace;
  EXPECT_NE(trace.find("span queue-wait"), std::string::npos) << trace;
  EXPECT_NE(trace.find("span cache-probe"), std::string::npos) << trace;
  EXPECT_NE(trace.find("span eval"), std::string::npos) << trace;

  const std::string& metrics = infos[1];
  EXPECT_NE(metrics.find("spivar_requests_total{tenant=\"default\",kind=\"simulate\"} 4\n"),
            std::string::npos)
      << metrics;
  EXPECT_NE(metrics.find("spivar_request_latency_us_count{kind=\"simulate\"} 4\n"),
            std::string::npos)
      << metrics;
  EXPECT_NE(metrics.find("spivar_traces_minted_total 4\n"), std::string::npos) << metrics;
  // The collector republishes the same stats structs the admin controls
  // render, sampled at this scrape — the counts must agree exactly.
  const api::ExecutorStats executor = svc.session().executor_stats();
  EXPECT_NE(metrics.find("spivar_executor_completed_total " +
                         std::to_string(executor.completed) + "\n"),
            std::string::npos)
      << metrics;
  const auto cache = svc.session().cache_stats();
  ASSERT_TRUE(cache.has_value());
  EXPECT_NE(metrics.find("spivar_cache_misses_total " + std::to_string(cache->misses) + "\n"),
            std::string::npos)
      << metrics;
  // No persistent tier configured: the disk series stay out of the scrape.
  EXPECT_EQ(metrics.find("spivar_cache_disk_"), std::string::npos) << metrics;
}

TEST(ObsServe, TraceControlBeforeTrafficReportsEmptyRing) {
  service::Service svc{{.jobs = 1}};
  std::istringstream in{api::wire::control_frame("trace", {})};
  std::ostringstream out;
  svc.serve_stream(in, out);
  EXPECT_NE(out.str().find("no completed traces yet"), std::string::npos) << out.str();
}

TEST(ObsServe, TraceControlRejectsUnknownSelector) {
  service::Service svc{{.jobs = 1}};
  std::istringstream in{api::wire::control_frame("trace", {"fastest"})};
  std::ostringstream out;
  svc.serve_stream(in, out);
  EXPECT_NE(out.str().find("unknown trace selector 'fastest'"), std::string::npos) << out.str();
}

// --- the scrape endpoint -----------------------------------------------------

TEST(ObsExposition, MetricsServerAnswersHttpScrape) {
  obs::MetricsServer server{0, [] { return std::string{"spivar_scrape_test 42\n"}; }};
  ASSERT_TRUE(server.ok());
  ASSERT_NE(server.port(), 0);

  service::Socket client = service::connect_to({"127.0.0.1", server.port()});
  ASSERT_TRUE(client.valid());
  const std::string request = "GET /metrics HTTP/1.0\r\n\r\n";
  ASSERT_EQ(::write(client.fd(), request.data(), request.size()),
            static_cast<ssize_t>(request.size()));

  std::string response;
  char scratch[1024];
  for (;;) {
    const ssize_t n = ::read(client.fd(), scratch, sizeof scratch);
    if (n <= 0) break;
    response.append(scratch, static_cast<std::size_t>(n));
  }
  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos) << response;
  EXPECT_NE(response.find("spivar_scrape_test 42\n"), std::string::npos) << response;
}

}  // namespace
}  // namespace spivar
