// Talking to spivar_serve: the server process, loopback connections, the
// closed request loop, control round trips and metrics scrapes.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "service/tcp.hpp"
#include "workloads.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// A spivar_serve child (`--port 0 --jobs 2 --cache 4096`). The destructor
/// stops it and waits until it has exited.
class ServerProcess {
 public:
  /// Spawns `binary` and waits for its "listening on" line; nullptr (and
  /// *error set) when it does not come up.
  static std::unique_ptr<ServerProcess> start(const std::string& binary, std::string* error);
  ~ServerProcess();

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  /// SIGTERM (the server's graceful drain), SIGKILL if it lingers; waits.
  void stop();

 private:
  ServerProcess(pid_t pid, int stdout_fd, std::uint16_t port)
      : pid_(pid), stdout_fd_(stdout_fd), port_(port) {}

  pid_t pid_;
  int stdout_fd_;
  std::uint16_t port_;
};

/// One loopback connection with its frame-id counter.
struct Connection {
  explicit Connection(spivar::service::Socket s)
      : socket(std::move(s)), buffer(socket.fd()), in(&buffer), out(&buffer) {}
  spivar::service::Socket socket;
  spivar::service::FdStreamBuf buffer;
  std::istream in;
  std::ostream out;
  std::uint64_t next_id = 0;
};

[[nodiscard]] std::unique_ptr<Connection> connect_loopback(std::uint16_t port);

/// One reply received: when it completed (ns after the phase origin), its
/// latency from send, and the request kind.
struct Sample {
  std::int64_t done_ns = 0;
  std::int64_t latency_ns = 0;
  spivar::api::RequestKind kind = spivar::api::RequestKind::kSimulate;
};

/// A reply kept for the output check, with the frame id it was tagged with.
struct KeptReply {
  Issued issued;
  std::uint64_t frame_id = 0;
  std::string frame;
};

struct LoopResult {
  /// Replies that completed before the stop time. A deque, so a long phase
  /// never stalls the loop on one large reallocation.
  std::deque<Sample> samples;
  std::vector<KeptReply> kept;
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  std::uint64_t errors = 0;  ///< error replies
  bool lost = false;         ///< the connection closed with requests in flight

  void merge(LoopResult&& other);
  /// Requests that got no good reply.
  [[nodiscard]] std::uint64_t failed() const noexcept { return errors + (sent - received); }
};

/// Next request of a connection's stream; nullopt when the stream is done.
using Source = std::function<std::optional<Issued>()>;

/// Closed loop over each connection concurrently (one thread each): keeps
/// `depth` requests in flight per connection, sends the next the moment a
/// reply lands, stops sending when its source runs dry or `stop_at` passes,
/// then drains what is in flight.
[[nodiscard]] LoopResult drive(std::vector<std::unique_ptr<Connection>>& connections,
                               std::vector<Source> sources, std::size_t depth,
                               Clock::time_point origin, Clock::time_point stop_at);

/// A fixed request list split round-robin over the connections, run to
/// completion.
[[nodiscard]] LoopResult drive_list(std::vector<std::unique_ptr<Connection>>& connections,
                                    std::vector<Issued> requests, std::size_t depth);

/// One request at depth 1; nullopt when the connection failed.
[[nodiscard]] std::optional<std::string> round_trip(Connection& connection, const Issued& issued,
                                                    std::uint64_t* frame_id);

/// `control v1 <command>` round trip; the reply's info text, nullopt on
/// failure.
[[nodiscard]] std::optional<std::string> control(Connection& connection,
                                                 std::string_view command);

/// Prometheus text exposition parsed to `series{labels}` -> value.
using Scrape = std::map<std::string, double>;
[[nodiscard]] Scrape parse_metrics(const std::string& text);
/// Sum of every series of metric `name`, whatever its labels.
[[nodiscard]] double total(const Scrape& scrape, std::string_view name);

/// The timed phase on one server: its replies and how long it ran.
struct Segment {
  std::deque<Sample> samples;
  double seconds = 0.0;
};

/// Client-side summary of the timed phase. Each segment is cut into up to
/// kSlicesPerSegment equal slices of at least kSliceReplies replies, and
/// throughput, p50 and p99 are the medians over the slices of all segments.
/// The host's speed drifts over seconds, so many short slices spread over
/// the run and over several server processes steady a run more than a few
/// long slices from one; no disturbed slice can move the medians on its own.
inline constexpr std::size_t kSliceReplies = 400;
inline constexpr std::size_t kSlicesPerSegment = 8;
struct PhaseStats {
  double throughput_rps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;  ///< whole phase; diagnostic only
  double max_us = 0.0;   ///< whole phase; diagnostic only
  std::size_t samples = 0;
  std::size_t slices = 0;
};
[[nodiscard]] PhaseStats summarize(const std::vector<Segment>& segments);

/// Exact quantile of `values` (nearest rank); 0 when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);
/// Median (mean of the middle two for an even count); 0 when empty.
[[nodiscard]] double median(std::vector<double> values);

}  // namespace perfbench
