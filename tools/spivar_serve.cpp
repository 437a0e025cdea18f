// spivar_serve — the cross-process service front end: a wire-protocol
// request/response loop over one shared ModelStore + executor. The loop
// itself lives in src/service/service.{hpp,cpp}; this file is argument
// parsing and the TCP accept loop.
//
//   spivar_serve                          frames on stdin/stdout
//   spivar_serve --port N                 TCP on 127.0.0.1:N (0 = ephemeral;
//                                         prints "listening on 127.0.0.1:P")
//   spivar_serve --replay FILE            replay a recorded request log to
//                                         stdout, then exit
//
// Options: --jobs N (executor workers), --cache N (result-cache capacity),
// --once (exit after the first connection closes), --record FILE (append
// every received frame — the log --replay consumes), --max-inflight N
// (per-connection cap on pipelined v2 frames evaluating at once; the reader
// stops consuming the socket until a slot drains).
//
// Persistence: --cache-dir DIR attaches a durable second cache tier under
// DIR (entries keyed by model *content* fingerprint, so a restarted server
// re-hits results its earlier life computed); --warm FILE replays a
// --record log against the shared session *before* accepting connections,
// pre-populating both tiers. The record log is written through the OS per
// frame (one write() each), so a killed server still leaves a usable
// --warm/--replay input; --fsync additionally fsyncs the log and makes
// every cache entry write synchronous + fsynced (without it spills drain on
// a background thread, off the request path).
//
// Multi-tenancy: --tenants FILE|SPEC pre-provisions tenants with quotas and
// tokens. SPEC is comma-separated `name[:key=value...]` entries with keys
// token, max-models, cache-entries, max-inflight; FILE holds one such entry
// per line ('#' comments). Clients bind with a `hello v1 <tenant> [token]`
// frame; unknown tenants are admitted ad hoc with unlimited quotas, up to
// service::kMaxAdhocTenants (1024) of them, and a hello past that is
// refused with an error reply.
// --overload-miss-rate X sheds requests (typed api-overload + retry-after)
// while the executor's projected deadline-miss rate sits at or above X;
// --overload-retry-after-ms sets the hint on those replies.
//
// Observability: --metrics-port N serves the Prometheus text exposition on
// 127.0.0.1:N (0 = ephemeral, printed as "metrics on 127.0.0.1:P"); the
// same text answers the `metrics` wire control. --trace-log FILE appends a
// JSONL record for every request at least --trace-slow-us microseconds
// end-to-end; --trace-ring N sizes the ring the `trace last|slowest|<id>`
// control browses.
//
// Graceful drain: SIGTERM stops the accept loop, lets live connections run
// to their natural end for up to --drain-timeout-ms, then shuts the
// stragglers' read sides (their in-flight replies still stream out),
// flushes queued cache spills, persists the memory tier and exits 0 — a
// drained server loses no reply and warm-restarts byte-identically.
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/exposition.hpp"
#include "service/service.hpp"
#include "service/tcp.hpp"

namespace {

using namespace spivar;

int usage() {
  std::cerr << "usage: spivar_serve [--port N] [--jobs N] [--cache N] [--once]\n"
               "                    [--max-inflight N] [--cache-dir DIR] [--cache-bytes N]\n"
               "                    [--fsync] [--record FILE] [--replay FILE] [--warm FILE]\n"
               "                    [--tenants FILE|SPEC] [--overload-miss-rate X]\n"
               "                    [--overload-retry-after-ms N] [--drain-timeout-ms N]\n"
               "                    [--metrics-port N] [--trace-log FILE] [--trace-slow-us N]\n"
               "                    [--trace-ring N]\n"
               "       default: wire frames on stdin/stdout; --port serves TCP on\n"
               "       127.0.0.1:N (0 picks an ephemeral port); --replay processes a\n"
               "       recorded request log and writes the responses to stdout;\n"
               "       --cache-dir persists cached results under DIR (implies --cache);\n"
               "       --warm replays a recorded request log into the cache tiers\n"
               "       before serving; --max-inflight caps pipelined (request v2)\n"
               "       frames evaluating per connection; --tenants pre-provisions\n"
               "       tenants ('name[:token=T][:max-models=N][:cache-entries=N]\n"
               "       [:max-inflight=N]', comma-separated, or a file with one per\n"
               "       line); a hello naming any other tenant creates it with\n"
               "       unlimited quotas, up to "
            << service::kMaxAdhocTenants
            << " such tenants; --overload-miss-rate\n"
               "       sheds load above the projected deadline-miss-rate bound;\n"
               "       SIGTERM drains gracefully within --drain-timeout-ms;\n"
               "       --metrics-port serves the Prometheus text\n"
               "       exposition on 127.0.0.1:N (0 picks an ephemeral port, printed\n"
               "       as 'metrics on 127.0.0.1:P'); --trace-log appends a JSONL\n"
               "       record for every request at least --trace-slow-us micros\n"
               "       end-to-end; --trace-ring sets how many completed traces the\n"
               "       'trace' control can browse\n";
  return 2;
}

struct ServeOptions {
  service::ServiceOptions service;
  std::optional<std::uint16_t> port;
  bool once = false;
  std::string replay;
  std::string warm;  ///< request log replayed before serving
  std::chrono::milliseconds drain_timeout{5'000};  ///< SIGTERM natural-EOF grace
  std::optional<std::uint16_t> metrics_port;       ///< scrape endpoint (0 = ephemeral)
};

/// Parses one `name[:key=value...]` tenant entry. Returns false (with
/// *error set) on a malformed entry.
bool parse_tenant_entry(const std::string& text, service::ServiceOptions::TenantSpec& spec,
                        std::string* error) {
  std::size_t pos = text.find(':');
  spec.name = text.substr(0, pos);
  if (spec.name.empty()) {
    *error = "empty tenant name in '" + text + "'";
    return false;
  }
  while (pos != std::string::npos) {
    const std::size_t next = text.find(':', pos + 1);
    const std::string field =
        text.substr(pos + 1, next == std::string::npos ? std::string::npos : next - pos - 1);
    pos = next;
    const std::size_t eq = field.find('=');
    if (eq == std::string::npos || eq == 0) {
      *error = "tenant field '" + field + "' is not key=value";
      return false;
    }
    const std::string key = field.substr(0, eq);
    const std::string value = field.substr(eq + 1);
    if (key == "token") {
      spec.quota.token = value;
      continue;
    }
    std::uint64_t number = 0;
    const auto [end, ec] = std::from_chars(value.data(), value.data() + value.size(), number);
    if (ec != std::errc{} || end != value.data() + value.size()) {
      *error = "tenant field '" + field + "' needs a numeric value";
      return false;
    }
    if (key == "max-models") {
      spec.quota.max_models = static_cast<std::size_t>(number);
    } else if (key == "cache-entries") {
      spec.quota.max_cache_entries = static_cast<std::size_t>(number);
    } else if (key == "max-inflight") {
      spec.quota.max_inflight = static_cast<std::size_t>(number);
    } else {
      *error = "unknown tenant quota key '" + key + "'";
      return false;
    }
  }
  return true;
}

/// --tenants value: a readable file (one entry per line, '#' comments) or an
/// inline comma-separated entry list.
bool parse_tenants(const std::string& value,
                   std::vector<service::ServiceOptions::TenantSpec>& tenants,
                   std::string* error) {
  std::vector<std::string> entries;
  if (std::ifstream file{value}; file) {
    std::string line;
    while (std::getline(file, line)) {
      if (const std::size_t hash = line.find('#'); hash != std::string::npos) {
        line.erase(hash);
      }
      while (!line.empty() && (line.back() == ' ' || line.back() == '\t' || line.back() == '\r')) {
        line.pop_back();
      }
      while (!line.empty() && (line.front() == ' ' || line.front() == '\t')) line.erase(0, 1);
      if (!line.empty()) entries.push_back(line);
    }
  } else {
    std::size_t start = 0;
    while (start <= value.size()) {
      const std::size_t comma = value.find(',', start);
      const std::string entry =
          value.substr(start, comma == std::string::npos ? std::string::npos : comma - start);
      if (!entry.empty()) entries.push_back(entry);
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
  }
  if (entries.empty()) {
    *error = "'" + value + "' names no tenants";
    return false;
  }
  for (const std::string& entry : entries) {
    service::ServiceOptions::TenantSpec spec;
    if (!parse_tenant_entry(entry, spec, error)) return false;
    tenants.push_back(std::move(spec));
  }
  return true;
}

// SIGTERM drain plumbing. The handler may only touch async-signal-safe
// state: it raises the flag and shuts the listener down, which unblocks
// accept() so the loop can notice the flag.
std::atomic<int> g_listener_fd{-1};
volatile std::sig_atomic_t g_drain_requested = 0;

void on_sigterm(int) {
  g_drain_requested = 1;
  const int fd = g_listener_fd.load(std::memory_order_relaxed);
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
}

int serve_tcp(service::Service& svc, const ServeOptions& options) {
  service::Socket listener = service::listen_loopback(*options.port);
  if (!listener.valid()) {
    std::cerr << "error: cannot listen on 127.0.0.1:" << *options.port << "\n";
    return 1;
  }
  std::cout << "listening on 127.0.0.1:" << service::bound_port(listener) << "\n" << std::flush;

  g_listener_fd.store(listener.fd(), std::memory_order_relaxed);
  std::signal(SIGTERM, on_sigterm);

  // Shutdown must unblock *everything*: the accept loop below and every
  // connection thread parked in a blocking read on its own socket (an idle
  // client would otherwise keep the process alive forever).
  std::mutex clients_mutex;
  std::vector<int> client_fds;
  svc.on_shutdown = [&] {
    ::shutdown(listener.fd(), SHUT_RDWR);
    std::lock_guard lock{clients_mutex};
    for (const int fd : client_fds) ::shutdown(fd, SHUT_RDWR);
  };

  /// One connection thread plus its completion flag, so the accept loop
  /// can reap finished connections instead of accumulating joinable
  /// threads for the life of the process.
  struct Connection {
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> done;
  };
  std::vector<Connection> connections;
  const auto reap_finished = [&connections] {
    std::erase_if(connections, [](Connection& connection) {
      if (!connection.done->load(std::memory_order_acquire)) return false;
      connection.thread.join();
      return true;
    });
  };

  while (!svc.shutdown_requested() && !g_drain_requested) {
    service::Socket client = service::accept_client(listener);
    if (!client.valid()) {
      if (svc.shutdown_requested() || g_drain_requested) break;
      // Transient accept failures (client reset before accept, fd
      // pressure, signals) must not kill a long-running service; only an
      // unexpected listener failure ends the loop.
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EMFILE || errno == ENFILE) {
        std::this_thread::sleep_for(std::chrono::milliseconds{50});
        continue;
      }
      std::cerr << "error: accept failed: " << std::strerror(errno) << "\n";
      break;
    }
    reap_finished();
    {
      std::lock_guard lock{clients_mutex};
      client_fds.push_back(client.fd());
    }
    auto done = std::make_shared<std::atomic<bool>>(false);
    connections.push_back(
        {std::thread{[&svc, &clients_mutex, &client_fds, done,
                      client = std::move(client)]() mutable {
           service::FdStreamBuf buffer{client.fd()};
           std::istream in{&buffer};
           std::ostream out{&buffer};
           svc.serve_stream(in, out);
           // Deregister before the socket closes, so a concurrent shutdown
           // sweep never touches a recycled descriptor.
           {
             std::lock_guard lock{clients_mutex};
             std::erase(client_fds, client.fd());
           }
           done->store(true, std::memory_order_release);
         }},
         done});
    if (options.once || svc.shutdown_requested() || g_drain_requested) break;
  }
  if (g_drain_requested && !svc.shutdown_requested()) {
    // Graceful drain: no new connections (the listener is already shut),
    // live ones run to their natural end within the grace period. Whatever
    // is still connected after it gets its *read* side shut — the reader
    // sees EOF, serve_stream waits out the in-flight slots, and every
    // pending reply still streams to the client before the thread exits.
    std::cerr << "draining: waiting up to " << options.drain_timeout.count()
              << "ms for open connections\n";
    const auto deadline = std::chrono::steady_clock::now() + options.drain_timeout;
    while (std::chrono::steady_clock::now() < deadline) {
      reap_finished();
      if (connections.empty()) break;
      std::this_thread::sleep_for(std::chrono::milliseconds{10});
    }
    std::lock_guard lock{clients_mutex};
    for (const int fd : client_fds) ::shutdown(fd, SHUT_RD);
  }
  for (Connection& connection : connections) connection.thread.join();
  // Everything a restart must not lose: queued spills drained, memory tier
  // persisted. Idempotent after a shutdown control already ran it.
  svc.finish();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  ServeOptions options;
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
    if (args[i] == "--port") {
      options.port = static_cast<std::uint16_t>(number_of(i, 65'535));
    } else if (args[i] == "--jobs") {
      options.service.jobs = number_of(i, 1'024);
    } else if (args[i] == "--cache") {
      options.service.cache = number_of(i, std::numeric_limits<std::uint64_t>::max());
    } else if (args[i] == "--once") {
      options.once = true;
    } else if (args[i] == "--record") {
      options.service.record = value_of(i);
    } else if (args[i] == "--replay") {
      options.replay = value_of(i);
    } else if (args[i] == "--cache-dir") {
      options.service.cache_dir = value_of(i);
    } else if (args[i] == "--cache-bytes") {
      options.service.cache_bytes = number_of(i, std::numeric_limits<std::uint64_t>::max());
    } else if (args[i] == "--fsync") {
      options.service.fsync = true;
    } else if (args[i] == "--warm") {
      options.warm = value_of(i);
    } else if (args[i] == "--max-inflight") {
      options.service.max_inflight =
          static_cast<std::size_t>(number_of(i, 1'048'576));
    } else if (args[i] == "--tenants") {
      std::string error;
      if (!parse_tenants(value_of(i), options.service.tenants, &error)) {
        std::cerr << "error: --tenants: " << error << "\n";
        return usage();
      }
    } else if (args[i] == "--overload-miss-rate") {
      const std::string text = value_of(i);
      char* end = nullptr;
      const double rate = std::strtod(text.c_str(), &end);
      if (end != text.c_str() + text.size() || !(rate >= 0.0)) {
        std::cerr << "error: invalid value '" << text << "' for --overload-miss-rate\n";
        return usage();
      }
      options.service.overload_miss_rate = rate;
    } else if (args[i] == "--overload-retry-after-ms") {
      options.service.overload_retry_after =
          std::chrono::milliseconds{number_of(i, 3'600'000)};
    } else if (args[i] == "--drain-timeout-ms") {
      options.drain_timeout = std::chrono::milliseconds{number_of(i, 3'600'000)};
    } else if (args[i] == "--metrics-port") {
      options.metrics_port = static_cast<std::uint16_t>(number_of(i, 65'535));
    } else if (args[i] == "--trace-log") {
      options.service.trace_log = value_of(i);
    } else if (args[i] == "--trace-slow-us") {
      options.service.trace_slow_us = number_of(i, std::numeric_limits<std::uint64_t>::max());
    } else if (args[i] == "--trace-ring") {
      options.service.trace_ring = static_cast<std::size_t>(number_of(i, 1'048'576));
    } else if (args[i] == "--stdio") {
      options.port.reset();
    } else {
      std::cerr << "error: unknown option '" << args[i] << "'\n";
      return usage();
    }
  }
  if (!options.replay.empty() && options.port) {
    std::cerr << "error: '--replay' and '--port' are mutually exclusive\n";
    return usage();
  }
  if (!options.replay.empty() && !options.service.record.empty()) {
    // Recording a replay would re-append every frame being read — with the
    // same file on both sides, an unbounded feedback loop.
    std::cerr << "error: '--replay' and '--record' are mutually exclusive\n";
    return usage();
  }
  if (!options.warm.empty() && !options.replay.empty()) {
    // Warming is a replay with the responses discarded; asking for both is
    // ambiguous about which log drives the output.
    std::cerr << "error: '--warm' and '--replay' are mutually exclusive\n";
    return usage();
  }

  // A client vanishing mid-reply must not kill the server.
  std::signal(SIGPIPE, SIG_IGN);

  service::Service svc{options.service};
  // The scrape endpoint is its own loopback listener on its own thread, so
  // it works identically for stdio, TCP and even --replay runs, and a stuck
  // scraper can never touch the serve path.
  std::unique_ptr<obs::MetricsServer> metrics;
  if (options.metrics_port) {
    metrics = std::make_unique<obs::MetricsServer>(*options.metrics_port,
                                                   [&svc] { return svc.metrics_text(); });
    if (!metrics->ok()) {
      std::cerr << "error: cannot bind metrics port 127.0.0.1:" << *options.metrics_port << "\n";
      return 1;
    }
    std::cout << "metrics on 127.0.0.1:" << metrics->port() << "\n" << std::flush;
  }
  if (!options.warm.empty()) {
    std::ifstream log{options.warm};
    if (!log) {
      std::cerr << "error: cannot open warm log '" << options.warm << "'\n";
      return 1;
    }
    svc.warm(log);
  }
  if (!options.replay.empty()) {
    std::ifstream log{options.replay};
    if (!log) {
      std::cerr << "error: cannot open replay log '" << options.replay << "'\n";
      return 1;
    }
    svc.serve_stream(log, std::cout, service::Service::StreamMode::kOrdered);
    return 0;
  }
  if (options.port) return serve_tcp(svc, options);
  svc.serve_stream(std::cin, std::cout);
  svc.finish();
  return 0;
}
