// spivar_loadgen — pipelined load generator for spivar_serve, the tool the
// serve-path perf baseline (BENCH_serve.json) comes from.
//
// Drives N concurrent connections of mixed request kinds against a running
// server, every request a `request v2` frame tagged with a frame id, and
// measures per-request latency from send to tagged reply with a log-bucketed
// (HDR-style) histogram — so p50/p99/p999 stay meaningful at any scale
// without storing per-request samples.
//
//   spivar_loadgen --endpoint 127.0.0.1:7777                 closed loop
//   spivar_loadgen --endpoint ... --rate 2000 --duration-ms 5000   paced
//
// Closed loop (default): each connection keeps `--depth` requests in flight
// and sends the next the moment a reply lands — measures the server's
// capacity at a fixed concurrency. Paced mode sends at a fixed aggregate
// rate on a writer thread per connection while a reader thread drains
// replies — measures latency at an offered load, queueing included.
//
// Paced latency is *coordinated-omission corrected*: each request's clock
// starts at its intended schedule slot, not at the moment the (possibly
// backpressured) writer actually got it onto the wire — a stalled writer
// therefore bills its stall to the server's percentiles instead of silently
// thinning the sample. The uncorrected send-to-reply histogram is reported
// alongside; the gap between the two is the coordination the fix exposes.
//
// The request mix cycles kinds (--kinds) over targets (--targets); targets
// are model specs resolved server-side, so `sweep/...` corpus names mint
// synthetic models on first use. Simulate seeds cycle through --seed-space
// values, mixing result-cache hits and misses.
//
// --tenants N spreads the connections across N tenants (hello-bound as
// t0..tN-1 before the first request) and reports per-tenant percentiles —
// the mixed-tenant isolation workload the multi-tenancy tests and docs
// reference.
//
// --json FILE appends nothing and overwrites FILE with a flat summary object
// (throughput, error count, latency percentiles) for CI trending.
#include <atomic>
#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iostream>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <variant>
#include <vector>

#include "api/api.hpp"
#include "api/wire.hpp"
#include "service/service.hpp"
#include "service/tcp.hpp"
#include "support/json.hpp"
#include "support/latency_histogram.hpp"
#include "support/table.hpp"

namespace {

using namespace spivar;
using Clock = std::chrono::steady_clock;

int usage() {
  std::cerr
      << "usage: spivar_loadgen --endpoint HOST:PORT [--connections N] [--depth K]\n"
         "                      [--requests N] [--rate R] [--duration-ms M]\n"
         "                      [--targets a,b,...] [--kinds simulate,analyze,...]\n"
         "                      [--seed-space N] [--tenants N] [--json FILE]\n"
         "       closed loop by default: each connection keeps --depth requests in\n"
         "       flight until --requests (total) have completed. --rate switches to\n"
         "       paced mode: R requests/s aggregate for --duration-ms, latencies\n"
         "       coordinated-omission corrected (clocked from the intended send\n"
         "       slot) with the raw send-to-reply histogram alongside. --tenants\n"
         "       spreads connections across N hello-bound tenants (t0..tN-1) and\n"
         "       reports per-tenant percentiles. --json writes the summary for CI\n"
         "       trending.\n";
  return 2;
}

struct Options {
  std::string endpoint;
  std::size_t connections = 4;
  std::size_t depth = 8;           ///< closed-loop in-flight per connection
  std::uint64_t requests = 1000;   ///< closed-loop total across connections
  double rate = 0.0;               ///< > 0 switches to paced mode (req/s aggregate)
  std::uint64_t duration_ms = 5000;
  std::string targets = "fig1,fig2,sweep/i2v2c2-s7";
  std::string kinds = "simulate,analyze";
  std::uint64_t seed_space = 16;
  std::uint64_t tenants = 0;  ///< > 0: hello-bind connection w to tenant t(w % N)
  std::string json;
};

/// The repository's short commit sha, when the tool happens to run inside a
/// git checkout with git on PATH; "" otherwise. Best-effort provenance for
/// the --json summary, so a CI artifact says which tree produced it.
std::string git_sha() {
  FILE* pipe = ::popen("git rev-parse --short HEAD 2>/dev/null", "r");
  if (pipe == nullptr) return {};
  char buffer[64] = {};
  std::string sha;
  if (std::fgets(buffer, sizeof buffer, pipe) != nullptr) sha = buffer;
  ::pclose(pipe);
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) sha.pop_back();
  return sha;
}

/// UTC wall-clock timestamp (ISO 8601) for the --json summary.
std::string utc_timestamp() {
  const std::time_t now = std::chrono::system_clock::to_time_t(std::chrono::system_clock::now());
  std::tm tm{};
  ::gmtime_r(&now, &tm);
  char text[32];
  std::strftime(text, sizeof text, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return text;
}

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream is{text};
  std::string item;
  while (std::getline(is, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

/// The cycling request mix: one envelope per (kind, target) pair.
std::vector<api::AnyRequest> build_mix(const Options& options) {
  std::vector<api::AnyRequest> mix;
  for (const std::string& kind : split_csv(options.kinds)) {
    api::RequestPayload payload;
    if (kind == "simulate") {
      payload = api::SimulateRequest{};
    } else if (kind == "analyze") {
      payload = api::AnalyzeRequest{};
    } else if (kind == "explore") {
      payload = api::ExploreRequest{};
    } else if (kind == "pareto") {
      payload = api::ParetoRequest{};
    } else if (kind == "compare") {
      payload = api::CompareRequest{};
    } else {
      std::cerr << "error: unknown kind '" << kind
                << "' (simulate|analyze|explore|pareto|compare)\n";
      std::exit(usage());
    }
    for (const std::string& target : split_csv(options.targets)) {
      api::AnyRequest envelope;
      envelope.payload = payload;
      envelope.target = target;
      mix.push_back(std::move(envelope));
    }
  }
  if (mix.empty()) {
    std::cerr << "error: empty request mix (need at least one kind and target)\n";
    std::exit(usage());
  }
  return mix;
}

/// The i-th request of a connection: mix entry cycled by global index, with
/// the simulate seed cycled through the seed space so runs mix result-cache
/// hits with genuinely new evaluations.
std::string encode_nth(const std::vector<api::AnyRequest>& mix, std::uint64_t index,
                       std::uint64_t seed_space, std::uint64_t frame_id) {
  api::AnyRequest envelope = mix[index % mix.size()];
  if (auto* simulate = std::get_if<api::SimulateRequest>(&envelope.payload)) {
    simulate->options.seed = 1 + index % std::max<std::uint64_t>(seed_space, 1);
  }
  return api::wire::encode(envelope, frame_id);
}

/// Cheap error check on the header line ("response v2 <id> ok|error ...")
/// — decoding full response bodies would bill server-side wins to the
/// client's parsing speed.
bool reply_is_error(const std::string& frame) {
  const std::string_view head{frame.data(), std::min(frame.find('\n'), frame.size())};
  return head.find(" error") != std::string_view::npos;
}

struct WorkerResult {
  support::LatencyHistogram histogram;  ///< send-to-reply (uncorrected)
  /// Paced mode only: intended-slot-to-reply — the coordinated-omission
  /// corrected view. Empty in closed loop (there is no schedule to miss).
  support::LatencyHistogram corrected;
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  std::uint64_t errors = 0;
  bool connect_failed = false;
  bool connection_lost = false;
};

/// Binds the fresh connection to its tenant and consumes the hello reply
/// frame, so the load loop's sent/received accounting never sees it.
bool send_hello(std::istream& in, std::ostream& out, const std::string& tenant) {
  if (tenant.empty()) return true;
  out << api::wire::hello_frame(tenant) << std::flush;
  return api::wire::read_frame(in).has_value();
}

WorkerResult run_closed_loop(const service::Endpoint& endpoint, const Options& options,
                             const std::vector<api::AnyRequest>& mix, std::size_t worker,
                             std::uint64_t quota, const std::string& tenant) {
  WorkerResult result;
  service::Socket sock = service::connect_to(endpoint);
  if (!sock.valid()) {
    result.connect_failed = true;
    return result;
  }
  service::FdStreamBuf buffer{sock.fd()};
  std::istream in{&buffer};
  std::ostream out{&buffer};
  if (!send_hello(in, out, tenant)) {
    result.connection_lost = true;
    return result;
  }

  std::unordered_map<std::uint64_t, Clock::time_point> inflight;
  inflight.reserve(options.depth * 2);
  std::uint64_t next_id = 0;
  const auto send_one = [&] {
    // Stagger workers through the mix so connections exercise different
    // kinds at the same moment.
    const std::uint64_t index = worker + result.sent * options.connections;
    const std::uint64_t id = ++next_id;
    const std::string frame = encode_nth(mix, index, options.seed_space, id);
    const auto sent_at = Clock::now();
    out << frame << std::flush;
    inflight.emplace(id, sent_at);
    ++result.sent;
  };

  for (std::uint64_t i = 0; i < std::min<std::uint64_t>(options.depth, quota); ++i) send_one();
  while (result.received < quota) {
    const auto frame = api::wire::read_frame(in);
    if (!frame) {
      result.connection_lost = true;
      break;
    }
    const auto received_at = Clock::now();
    const auto id = api::wire::response_frame_id(*frame);
    if (!id) continue;  // not a tagged reply (shouldn't happen on this stream)
    if (const auto started = inflight.find(*id); started != inflight.end()) {
      const auto micros = std::chrono::duration_cast<std::chrono::microseconds>(
          received_at - started->second);
      result.histogram.record(static_cast<std::uint64_t>(micros.count()));
      inflight.erase(started);
    }
    ++result.received;
    if (result.errors += reply_is_error(*frame) ? 1 : 0; result.sent < quota) send_one();
  }
  return result;
}

WorkerResult run_paced(const service::Endpoint& endpoint, const Options& options,
                       const std::vector<api::AnyRequest>& mix, std::size_t worker,
                       const std::string& tenant) {
  WorkerResult result;
  service::Socket sock = service::connect_to(endpoint);
  if (!sock.valid()) {
    result.connect_failed = true;
    return result;
  }
  service::FdStreamBuf buffer{sock.fd()};  // separate in/out buffers: 1 reader + 1 writer
  std::istream in{&buffer};
  std::ostream out{&buffer};
  if (!send_hello(in, out, tenant)) {
    result.connection_lost = true;
    return result;
  }

  /// When the clock started for one in-flight request: the schedule slot it
  /// was *meant* to go out at (the coordinated-omission-corrected origin)
  /// and when the writer actually put it on the wire.
  struct Origin {
    Clock::time_point slot;
    Clock::time_point sent_at;
  };
  std::mutex inflight_mutex;
  std::unordered_map<std::uint64_t, Origin> inflight;
  std::atomic<std::uint64_t> sent{0};
  std::atomic<bool> writer_done{false};

  const double per_connection = options.rate / static_cast<double>(options.connections);
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>{1.0 / std::max(per_connection, 1e-9)});
  const auto deadline = Clock::now() + std::chrono::milliseconds{options.duration_ms};

  std::thread writer{[&] {
    const auto start = Clock::now();
    std::uint64_t id = 0;
    for (std::uint64_t i = 0;; ++i) {
      const auto slot = start + interval * i;
      if (slot >= deadline) break;
      // sleep_until returns immediately once the writer has fallen behind
      // schedule (a blocking flush under server backpressure); the slot
      // timestamp — not the late send — is what the corrected histogram
      // clocks from, so that stall shows up in the percentiles instead of
      // being coordinated away.
      std::this_thread::sleep_until(slot);
      const std::uint64_t index = worker + i * options.connections;
      const std::string frame = encode_nth(mix, index, options.seed_space, ++id);
      {
        std::lock_guard lock{inflight_mutex};
        inflight.emplace(id, Origin{slot, Clock::now()});
      }
      out << frame << std::flush;
      sent.fetch_add(1, std::memory_order_release);
    }
    writer_done.store(true, std::memory_order_release);
  }};

  while (!(writer_done.load(std::memory_order_acquire) &&
           result.received == sent.load(std::memory_order_acquire))) {
    if (result.received == sent.load(std::memory_order_acquire)) {
      // Nothing in flight: the writer is between sends. Don't block in read
      // (a paced lull could stall us past the deadline); yield instead.
      std::this_thread::sleep_for(std::chrono::microseconds{100});
      continue;
    }
    const auto frame = api::wire::read_frame(in);
    if (!frame) {
      result.connection_lost = true;
      break;
    }
    const auto received_at = Clock::now();
    if (const auto id = api::wire::response_frame_id(*frame)) {
      std::lock_guard lock{inflight_mutex};
      if (const auto started = inflight.find(*id); started != inflight.end()) {
        const auto raw = std::chrono::duration_cast<std::chrono::microseconds>(
            received_at - started->second.sent_at);
        const auto from_slot = std::chrono::duration_cast<std::chrono::microseconds>(
            received_at - started->second.slot);
        result.histogram.record(static_cast<std::uint64_t>(raw.count()));
        result.corrected.record(static_cast<std::uint64_t>(std::max<std::int64_t>(
            from_slot.count(), 0)));
        inflight.erase(started);
      }
    }
    ++result.received;
    result.errors += reply_is_error(*frame) ? 1 : 0;
  }
  writer.join();
  result.sent = sent.load(std::memory_order_acquire);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  Options options;
  const auto value_of = [&](std::size_t& i) -> std::string {
    if (i + 1 >= args.size()) {
      std::cerr << "error: '" << args[i] << "' requires a value\n";
      std::exit(usage());
    }
    return args[++i];
  };
  const auto number_of = [&](std::size_t& i, std::uint64_t max) -> std::uint64_t {
    const std::string flag = args[i];
    const std::string text = value_of(i);
    std::uint64_t value = 0;
    const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
    if (ec != std::errc{} || end != text.data() + text.size() || value > max) {
      std::cerr << "error: invalid value '" << text << "' for " << flag << "\n";
      std::exit(usage());
    }
    return value;
  };
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--endpoint") {
      options.endpoint = value_of(i);
    } else if (args[i] == "--connections") {
      options.connections = std::max<std::uint64_t>(number_of(i, 1'024), 1);
    } else if (args[i] == "--depth") {
      options.depth = std::max<std::uint64_t>(number_of(i, 1'048'576), 1);
    } else if (args[i] == "--requests") {
      options.requests = number_of(i, std::numeric_limits<std::uint64_t>::max());
    } else if (args[i] == "--rate") {
      const std::string text = value_of(i);
      try {
        options.rate = std::stod(text);
      } catch (...) {
        options.rate = -1.0;
      }
      if (options.rate <= 0.0) {
        std::cerr << "error: invalid value '" << text << "' for --rate\n";
        return usage();
      }
    } else if (args[i] == "--duration-ms") {
      options.duration_ms = number_of(i, 86'400'000);
    } else if (args[i] == "--targets") {
      options.targets = value_of(i);
    } else if (args[i] == "--kinds") {
      options.kinds = value_of(i);
    } else if (args[i] == "--seed-space") {
      options.seed_space = std::max<std::uint64_t>(number_of(i, 1'000'000'000), 1);
    } else if (args[i] == "--tenants") {
      options.tenants = number_of(i, service::kMaxAdhocTenants);
    } else if (args[i] == "--json") {
      options.json = value_of(i);
    } else {
      std::cerr << "error: unknown option '" << args[i] << "'\n";
      return usage();
    }
  }
  if (options.endpoint.empty()) {
    std::cerr << "error: '--endpoint' is required\n";
    return usage();
  }
  const auto endpoint = service::parse_endpoint(options.endpoint);
  if (!endpoint) {
    std::cerr << "error: invalid endpoint '" << options.endpoint << "' (expected host:port)\n";
    return 2;
  }
  std::signal(SIGPIPE, SIG_IGN);  // a dying server shows up as an error, not a kill

  const std::vector<api::AnyRequest> mix = build_mix(options);
  const bool paced = options.rate > 0.0;

  std::vector<WorkerResult> results(options.connections);
  std::vector<std::thread> workers;
  workers.reserve(options.connections);
  const auto started_at = Clock::now();
  for (std::size_t w = 0; w < options.connections; ++w) {
    // Closed loop splits the request total across connections (remainder to
    // the low workers) so `--requests` means what it says in aggregate.
    const std::uint64_t quota = options.requests / options.connections +
                                (w < options.requests % options.connections ? 1 : 0);
    // Connection w belongs to tenant t(w % N); with --tenants 0 every
    // connection stays the (hello-less) default tenant.
    const std::string tenant =
        options.tenants > 0 ? "t" + std::to_string(w % options.tenants) : std::string{};
    workers.emplace_back([&, w, quota, tenant] {
      results[w] = paced ? run_paced(*endpoint, options, mix, w, tenant)
                         : run_closed_loop(*endpoint, options, mix, w, quota, tenant);
    });
  }
  for (std::thread& worker : workers) worker.join();
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - started_at).count();

  /// Per-tenant rollup (index = tenant number; one "default" row when
  /// --tenants is off, though it only prints with real tenants).
  struct TenantRollup {
    support::LatencyHistogram latency;
    support::LatencyHistogram corrected;
    std::uint64_t received = 0;
    std::uint64_t errors = 0;
  };
  std::vector<TenantRollup> by_tenant(std::max<std::uint64_t>(options.tenants, 1));

  support::LatencyHistogram latency;
  support::LatencyHistogram corrected;
  std::uint64_t sent = 0, received = 0, errors = 0;
  bool lost = false;
  for (std::size_t w = 0; w < results.size(); ++w) {
    const WorkerResult& result = results[w];
    if (result.connect_failed) {
      std::cerr << "error: cannot connect to " << options.endpoint << "\n";
      return 1;
    }
    latency.merge(result.histogram);
    corrected.merge(result.corrected);
    sent += result.sent;
    received += result.received;
    errors += result.errors;
    lost = lost || result.connection_lost;
    TenantRollup& rollup = by_tenant[options.tenants > 0 ? w % options.tenants : 0];
    rollup.latency.merge(result.histogram);
    rollup.corrected.merge(result.corrected);
    rollup.received += result.received;
    rollup.errors += result.errors;
  }
  const double throughput = elapsed_ms > 0.0 ? received / (elapsed_ms / 1000.0) : 0.0;

  std::cout << "spivar_loadgen: "
            << (paced ? "paced " + support::format_double(options.rate, 1) + " req/s"
                      : "closed-loop depth " + std::to_string(options.depth))
            << ", " << options.connections << " connection(s), " << received << "/" << sent
            << " replies, " << errors << " error(s)"
            << (lost ? " [connection lost]" : "") << "\n";
  std::cout << "  elapsed " << support::format_double(elapsed_ms / 1000.0, 3)
            << " s, throughput " << support::format_double(throughput, 1) << " req/s\n";
  const auto print_latency = [](const std::string& label, const support::LatencyHistogram& h) {
    std::cout << "  " << label << " us: min " << h.min() << "  mean "
              << support::format_double(h.mean(), 1) << "  p50 " << h.quantile(0.50) << "  p90 "
              << h.quantile(0.90) << "  p99 " << h.quantile(0.99) << "  p999 "
              << h.quantile(0.999) << "  max " << h.max() << "\n";
  };
  print_latency("latency", latency);
  if (paced) print_latency("latency (corrected)", corrected);
  if (options.tenants > 0) {
    for (std::size_t t = 0; t < by_tenant.size(); ++t) {
      const TenantRollup& rollup = by_tenant[t];
      std::cout << "  tenant t" << t << ": " << rollup.received << " replies, " << rollup.errors
                << " error(s), p50 " << rollup.latency.quantile(0.50) << " us, p99 "
                << rollup.latency.quantile(0.99) << " us\n";
    }
  }

  if (!options.json.empty()) {
    support::JsonWriter json;
    json.begin_object();
    json.key("tool").value("spivar_loadgen");
    // Run provenance: enough to tell which tree and shape produced this
    // artifact without consulting CI logs (ci/rebaseline_bench.py copies it
    // into the regenerated baseline's comment).
    json.key("meta").begin_object();
    json.key("git_sha").value(git_sha());
    json.key("timestamp_utc").value(utc_timestamp());
    json.key("endpoint").value(options.endpoint);
    json.key("mode").value(paced ? "paced" : "closed-loop");
    json.key("connections").value(options.connections);
    json.key("tenants").value(options.tenants);
    json.key("seed_space").value(options.seed_space);
    json.end_object();
    json.key("mode").value(paced ? "paced" : "closed-loop");
    json.key("connections").value(options.connections);
    if (paced) {
      json.key("rate_rps").value(options.rate);
      json.key("duration_ms").value(options.duration_ms);
    } else {
      json.key("depth").value(options.depth);
    }
    json.key("kinds").value(options.kinds);
    json.key("targets").value(options.targets);
    json.key("sent").value(sent);
    json.key("received").value(received);
    json.key("errors").value(errors);
    json.key("connection_lost").value(lost);
    json.key("elapsed_ms").value(elapsed_ms);
    json.key("throughput_rps").value(throughput);
    const auto write_histogram = [&json](const support::LatencyHistogram& h) {
      json.begin_object();
      json.key("min").value(h.min());
      json.key("mean").value(h.mean());
      json.key("p50").value(h.quantile(0.50));
      json.key("p90").value(h.quantile(0.90));
      json.key("p99").value(h.quantile(0.99));
      json.key("p999").value(h.quantile(0.999));
      json.key("max").value(h.max());
      json.end_object();
    };
    json.key("latency_us");
    write_histogram(latency);
    if (paced) {
      // The uncorrected histogram above is what legacy trending compares;
      // the corrected one is the honest view under backpressure.
      json.key("latency_corrected_us");
      write_histogram(corrected);
    }
    if (options.tenants > 0) {
      json.key("tenants").begin_array();
      for (std::size_t t = 0; t < by_tenant.size(); ++t) {
        const TenantRollup& rollup = by_tenant[t];
        json.begin_object();
        json.key("name").value("t" + std::to_string(t));
        json.key("received").value(rollup.received);
        json.key("errors").value(rollup.errors);
        json.key("latency_us");
        write_histogram(rollup.latency);
        if (paced) {
          json.key("latency_corrected_us");
          write_histogram(rollup.corrected);
        }
        json.end_object();
      }
      json.end_array();
    }
    json.end_object();
    std::ofstream file{options.json};
    if (!file) {
      std::cerr << "error: cannot write '" << options.json << "'\n";
      return 1;
    }
    file << json.str() << "\n";
  }
  return errors == 0 && !lost && received == sent ? 0 : 1;
}
