// perfbench_client — one run of the repository benchmark against a fresh
// spivar_serve (see perfbench/README.md; perfbench/run.py builds and runs
// it).
//
//   perfbench_client --workload hot|cold|explore --seed N --seconds S
//                    --trace 0|1 --server PATH --spans FILE [--smoke]
//
// --trace 0 times the workload and prints the end-to-end metrics; --trace 1
// runs the separate traced pass and prints the per-layer metrics. Either
// way the replies are checked byte for byte against an in-process session,
// and the last line of stdout is the JSON result.
#include <csignal>
#include <cstdlib>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "api/api.hpp"
#include "api/wire.hpp"
#include "layers.hpp"
#include "support/json.hpp"
#include "traffic.hpp"
#include "workloads.hpp"

namespace {

using namespace spivar;
using namespace perfbench;

int usage() {
  std::cerr << "usage: perfbench_client --workload hot|cold|explore --seed N --seconds S\n"
               "                        --trace 0|1 --server PATH --spans FILE [--smoke]\n";
  return 2;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string server;
  std::string spans;
  bool smoke = false;
};

/// Kept replies of the timed phase: for hot, the first reply of every key
/// on each connection of each segment (so every distinct reply is checked);
/// elsewhere a seeded sample of one in 64, capped per segment.
constexpr std::uint64_t kSampleEvery = 64;
constexpr std::size_t kSampleCap = 16;

Source timed_source(const Workload& workload, std::uint64_t seed, std::size_t segment,
                    std::size_t connection) {
  const std::uint64_t stream = 1000 + 2 * (segment * kConnections + connection);
  return [&workload, requests = Stream{substream(seed, stream)},
          sampler = SplitMix64{substream(seed, stream + 1)},
          seen = std::vector<bool>(workload.key_count, false),
          sampled = std::size_t{0}]() mutable -> std::optional<Issued> {
    Issued issued = workload.draw(requests);
    if (issued.key >= 0) {
      const auto key = static_cast<std::size_t>(issued.key);
      issued.keep = !seen[key];
      seen[key] = true;
    } else if (sampler.below(kSampleEvery) == 0 && sampled < kSampleCap) {
      issued.keep = true;
      ++sampled;
    }
    return issued;
  };
}

/// Server counters whose change over the timed phase is reported.
constexpr const char* kCounters[] = {
    "spivar_cache_hits_total", "spivar_cache_misses_total", "spivar_cache_evictions_total",
    "spivar_stream_backpressure_waits_total", "spivar_executor_completed_total"};

/// Table 1 of the paper through the server: compare on fig2 with default
/// options must cost 34 and 38 per application, 57 superposed and 41
/// variant-aware.
bool table1_reproduced(Connection& connection, std::string* detail) {
  Issued issued;
  issued.request.payload = api::CompareRequest{};
  issued.request.target = "fig2";
  const std::optional<std::string> reply = round_trip(connection, issued, nullptr);
  if (!reply) {
    *detail = "no reply";
    return false;
  }
  const api::Result<api::AnyResponse> decoded = api::wire::decode_response(*reply);
  const auto* compare =
      decoded.ok() ? std::get_if<api::CompareResponse>(&decoded.value()) : nullptr;
  if (compare == nullptr || compare->rows.size() < 2 || !compare->find("superposition") ||
      !compare->find("with-variants")) {
    *detail = "malformed compare reply";
    return false;
  }
  const double costs[] = {compare->rows[0].outcome.cost.total, compare->rows[1].outcome.cost.total,
                          compare->find("superposition")->outcome.cost.total,
                          compare->find("with-variants")->outcome.cost.total};
  std::ostringstream text;
  text << costs[0] << "/" << costs[1] << "/" << costs[2] << "/" << costs[3];
  *detail = text.str();
  return costs[0] == 34.0 && costs[1] == 38.0 && costs[2] == 57.0 && costs[3] == 41.0;
}

/// Byte-for-byte check of each kept reply against wire::encode of the same
/// request on an in-process session that resolved the targets in the
/// server's order (so model handles in replies agree). Returns mismatches.
std::uint64_t check_replies(const Workload& workload, const std::vector<KeptReply>& kept) {
  auto store = std::make_shared<api::ModelStore>();
  api::Session reference{store};
  reference.bind_tenant(std::make_shared<api::StoreView>(store, api::TenantContext{}));
  for (const std::string& target : workload.targets) (void)reference.resolve(target);
  std::uint64_t mismatches = 0;
  for (const KeptReply& reply : kept) {
    if (api::wire::encode(reference.call(reply.issued.request), reply.frame_id) != reply.frame) {
      if (mismatches++ == 0) {
        std::cout << "  first mismatch: reply " << reply.frame_id << " to\n"
                  << api::wire::encode(reply.issued.request) << "  got\n"
                  << reply.frame.substr(0, 400) << "\n";
      }
    }
  }
  return mismatches;
}

std::string fixed(double value, int digits) {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(digits);
  out << value;
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  Options options;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const auto value = [&]() -> const std::string& {
      if (i + 1 >= args.size()) std::exit(usage());
      return args[++i];
    };
    if (args[i] == "--workload") {
      options.workload = value();
    } else if (args[i] == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (args[i] == "--seconds") {
      options.seconds = std::strtod(value().c_str(), nullptr);
    } else if (args[i] == "--trace") {
      options.trace = value() == "1";
    } else if (args[i] == "--server") {
      options.server = value();
    } else if (args[i] == "--spans") {
      options.spans = value();
    } else if (args[i] == "--smoke") {
      options.smoke = true;
    } else {
      std::cerr << "error: unknown option '" << args[i] << "'\n";
      return usage();
    }
  }
  const std::optional<Workload> found = make_workload(options.workload);
  if (!found || options.server.empty() || options.spans.empty() || !(options.seconds > 0.0)) {
    return usage();
  }
  const Workload& workload = *found;
  std::signal(SIGPIPE, SIG_IGN);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<KeptReply> kept;
  std::vector<Issued> warmup;

  // --- set-up, timed several times: spawn, first touch, warm-up pass. With
  // --trace 0 each server then runs one segment of the timed phase; with
  // --trace 1 the last server stays up for the traced pass.
  const std::size_t setups = options.smoke ? 1 : 5;
  std::vector<double> setup_s;
  std::vector<Segment> segments;
  std::map<std::string, double> counter_deltas;
  std::uint64_t timed_received = 0;
  std::uint64_t timed_failed = 0;
  std::unique_ptr<ServerProcess> server;
  std::vector<std::unique_ptr<Connection>> connections;
  std::unique_ptr<Connection> control_connection;
  for (std::size_t s = 0; s < setups; ++s) {
    const bool last = s + 1 == setups;
    connections.clear();  // close before the server drains
    control_connection.reset();
    server.reset();
    const auto started = Clock::now();
    std::string error;
    server = ServerProcess::start(options.server, &error);
    if (!server) {
      std::cerr << "error: " << error << "\n";
      return 1;
    }
    for (std::size_t c = 0; c < kConnections; ++c) {
      connections.push_back(connect_loopback(server->port()));
    }
    control_connection = connect_loopback(server->port());
    for (const auto& connection : connections) {
      if (!connection || !control_connection) {
        std::cerr << "error: cannot connect to the server\n";
        return 1;
      }
    }
    std::vector<Issued> pass;
    for (std::size_t t = 0; t < workload.targets.size(); ++t) {
      Issued issued = workload.first_touch(t);
      issued.keep = last;
      std::uint64_t id = 0;
      std::optional<std::string> reply = round_trip(*connections.front(), issued, &id);
      ++attempted;
      if (!reply) {
        std::cerr << "error: first touch of " << workload.targets[t] << " got no reply\n";
        return 1;
      }
      if (last) kept.push_back({issued, id, std::move(*reply)});
      pass.push_back(std::move(issued));
    }
    std::vector<Issued> rest = workload.warmup(substream(options.seed, 1), options.smoke);
    for (std::size_t i = 0; i < rest.size(); ++i) {
      rest[i].keep = last && (workload.key_count > 0 || i % kSampleEvery == 0);
    }
    pass.insert(pass.end(), rest.begin(), rest.end());
    LoopResult warmed = drive_list(connections, std::move(rest), workload.depth);
    setup_s.push_back(std::chrono::duration<double>(Clock::now() - started).count());
    attempted += warmed.sent;
    failed += warmed.failed();
    if (last) {
      for (KeptReply& reply : warmed.kept) kept.push_back(std::move(reply));
      warmup = std::move(pass);
    }
    if (options.trace) continue;

    // --- this server's segment of the timed phase, counters scraped around it.
    const std::optional<std::string> before_text = control(*control_connection, "metrics");
    std::vector<Source> sources;
    for (std::size_t c = 0; c < connections.size(); ++c) {
      sources.push_back(timed_source(workload, options.seed, s, c));
    }
    // The smoke run sends a few hundred requests, not a timed window.
    if (options.smoke) {
      for (Source& source : sources) {
        source = [inner = std::move(source), left = 150]() mutable -> std::optional<Issued> {
          if (left-- <= 0) return std::nullopt;
          return inner();
        };
      }
    }
    const double seconds = options.seconds / static_cast<double>(setups);
    const auto origin = Clock::now();
    const auto window =
        std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>{seconds});
    LoopResult timed = drive(connections, std::move(sources), workload.depth, origin,
                             origin + window);
    const double elapsed =
        options.smoke ? std::chrono::duration<double>(Clock::now() - origin).count() : seconds;
    const std::optional<std::string> after_text = control(*control_connection, "metrics");
    attempted += timed.sent;
    failed += timed.failed();
    timed_received += timed.received;
    timed_failed += timed.failed();
    if (!before_text || !after_text) ++failed;
    const Scrape before = parse_metrics(before_text.value_or(""));
    const Scrape after = parse_metrics(after_text.value_or(""));
    for (const char* name : kCounters) counter_deltas[name] += total(after, name) - total(before, name);
    for (KeptReply& reply : timed.kept) kept.push_back(std::move(reply));
    segments.push_back({std::move(timed.samples), elapsed});
  }

  std::vector<std::string> lines;
  Metrics metrics;
  if (!options.trace) {
    const PhaseStats stats = summarize(segments);
    double elapsed = 0.0;
    for (const Segment& segment : segments) elapsed += segment.seconds;
    const auto delta = [&](const char* name) { return fixed(counter_deltas[name], 0); };
    lines.push_back("timed phase: " + std::to_string(timed_received) + " replies in " +
                    fixed(elapsed, 3) + " s over " + std::to_string(segments.size()) +
                    " servers, " + std::to_string(timed_failed) +
                    " failed; throughput, p50 and p99 are medians over " +
                    std::to_string(stats.slices) + " slices");
    lines.push_back("latency_p50_us " + fixed(stats.p50_us, 1) + " (n=" +
                    std::to_string(stats.samples) + "), latency_p99_us " + fixed(stats.p99_us, 1) +
                    " (n=" + std::to_string(stats.samples) + "); diagnostics only: p999 " +
                    fixed(stats.p999_us, 1) + " us, max " + fixed(stats.max_us, 1) + " us");
    lines.push_back("server counters over the timed phase: cache hits " +
                    delta("spivar_cache_hits_total") + ", misses " +
                    delta("spivar_cache_misses_total") + ", evictions " +
                    delta("spivar_cache_evictions_total") + ", backpressure waits " +
                    delta("spivar_stream_backpressure_waits_total") + ", executor tasks " +
                    delta("spivar_executor_completed_total"));
    metrics.push_back({"throughput_rps", {stats.throughput_rps, "1/s"}});
    metrics.push_back({"latency_p50_us", {stats.p50_us, "us"}});
    metrics.push_back({"latency_p99_us", {stats.p99_us, "us"}});
    metrics.push_back({"setup_s", {median(setup_s), "s"}});
  } else {
    TracedResult traced = traced_pass({.workload = workload,
                                       .seed = options.seed,
                                       .seconds = options.smoke ? 0.3 : options.seconds,
                                       .smoke = options.smoke,
                                       .connections = connections,
                                       .control = *control_connection,
                                       .warmup = warmup},
                                      options.spans);
    attempted += traced.attempted;
    failed += traced.failed;
    lines.insert(lines.end(), traced.notes.begin(), traced.notes.end());
    metrics = std::move(traced.metrics);
  }

  std::string table1;
  const bool table1_ok = table1_reproduced(*connections.front(), &table1);
  ++attempted;
  failed += table1_ok ? 0 : 1;
  connections.clear();
  control_connection.reset();
  server->stop();

  const std::uint64_t mismatches = check_replies(workload, kept);
  failed += mismatches;

  std::cout << "perfbench " << workload.name << " seed " << options.seed
            << (options.trace ? " (traced pass)" : "") << "\n";
  std::cout << "  setup_s samples:";
  for (const double s : setup_s) std::cout << " " << fixed(s, 4);
  std::cout << "\n";
  for (const std::string& line : lines) std::cout << "  " << line << "\n";
  std::cout << "  output check: " << kept.size() << " replies compared byte for byte, "
            << mismatches << " mismatches; compare fig2 costs " << table1
            << (table1_ok ? " (Table 1 reproduced)" : " (expected 34/38/57/41)") << "\n";
  for (const auto& [name, metric] : metrics) {
    std::cout << "  " << name << " " << metric.value << " " << metric.unit << "\n";
  }

  support::JsonWriter json{0};
  json.begin_object();
  json.key("correct").value(failed == 0);
  json.key("attempted").value(attempted);
  json.key("failed").value(failed);
  json.key("metrics").begin_object();
  for (const auto& [name, metric] : metrics) {
    json.key(name).begin_object();
    json.key("value").value(metric.value);
    json.key("unit").value(metric.unit);
    json.end_object();
  }
  json.end_object();
  json.end_object();
  std::cout << json.str() << std::endl;
  return 0;
}
