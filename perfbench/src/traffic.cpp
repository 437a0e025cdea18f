#include "traffic.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <thread>
#include <unordered_map>

#include "api/wire.hpp"

extern char** environ;

namespace perfbench {
namespace {

using namespace spivar;

std::int64_t nanos(Clock::duration d) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
}

/// Header-line check ("response v2 <id> ok|error ..."): decoding every body
/// would bill the client's parsing to the server.
bool reply_is_error(const std::string& frame) {
  const std::string_view head{frame.data(), std::min(frame.find('\n'), frame.size())};
  return head.find(" error") != std::string_view::npos;
}

/// Reads the server's stdout until its "listening on 127.0.0.1:P" line.
std::optional<std::uint16_t> read_port(int fd, std::chrono::seconds timeout) {
  static constexpr std::string_view kPrefix = "listening on 127.0.0.1:";
  const auto deadline = Clock::now() + timeout;
  std::string text;
  while (Clock::now() < deadline) {
    pollfd pfd{fd, POLLIN, 0};
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(deadline - Clock::now());
    if (::poll(&pfd, 1, static_cast<int>(std::max<std::int64_t>(left.count(), 1))) <= 0) continue;
    char chunk[256];
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n <= 0) return std::nullopt;
    text.append(chunk, static_cast<std::size_t>(n));
    const std::size_t at = text.find(kPrefix);
    const std::size_t eol = at == std::string::npos ? at : text.find('\n', at);
    if (eol != std::string::npos) {
      const int port = std::atoi(text.c_str() + at + kPrefix.size());
      if (port <= 0 || port > 65535) return std::nullopt;
      return static_cast<std::uint16_t>(port);
    }
  }
  return std::nullopt;
}

LoopResult drive_one(Connection& connection, const Source& next, std::size_t depth,
                     Clock::time_point origin, Clock::time_point stop_at) {
  LoopResult result;
  struct Pending {
    Clock::time_point sent_at;
    Issued issued;
  };
  std::unordered_map<std::uint64_t, Pending> inflight;
  bool exhausted = false;
  const auto send_one = [&] {
    if (exhausted) return;
    std::optional<Issued> issued;
    if (Clock::now() >= stop_at || !(issued = next())) {
      exhausted = true;
      return;
    }
    const std::uint64_t id = ++connection.next_id;
    const std::string frame = api::wire::encode(issued->request, id);
    const auto sent_at = Clock::now();
    connection.out << frame << std::flush;
    if (!connection.out) {
      exhausted = true;
      result.lost = true;
      return;
    }
    inflight.emplace(id, Pending{sent_at, std::move(*issued)});
    ++result.sent;
  };

  for (std::size_t i = 0; i < depth; ++i) send_one();
  while (!inflight.empty()) {
    std::optional<std::string> frame = api::wire::read_frame(connection.in);
    if (!frame) {
      result.lost = true;
      break;
    }
    const auto done = Clock::now();
    const auto id = api::wire::response_frame_id(*frame);
    const auto it = id ? inflight.find(*id) : inflight.end();
    if (it == inflight.end()) continue;
    ++result.received;
    const bool error = reply_is_error(*frame);
    result.errors += error ? 1 : 0;
    if (done <= stop_at) {
      result.samples.push_back({nanos(done - origin), nanos(done - it->second.sent_at),
                                api::kind_of(it->second.issued.request)});
    }
    if (it->second.issued.keep) {
      result.kept.push_back({std::move(it->second.issued), *id, std::move(*frame)});
    }
    inflight.erase(it);
    send_one();
  }
  return result;
}

}  // namespace

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2.0;
}

std::unique_ptr<ServerProcess> ServerProcess::start(const std::string& binary,
                                                    std::string* error) {
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) {
    *error = "pipe failed";
    return nullptr;
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, pipe_fds[1], STDOUT_FILENO);
  const std::string jobs = std::to_string(kServerJobs);
  const std::string cache = std::to_string(kServerCache);
  const char* argv[] = {binary.c_str(), "--port", "0", "--jobs", jobs.c_str(),
                        "--cache",      cache.c_str(), nullptr};
  pid_t pid = -1;
  const int spawned = ::posix_spawn(&pid, binary.c_str(), &actions, nullptr,
                                    const_cast<char* const*>(argv), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(pipe_fds[1]);
  if (spawned != 0) {
    ::close(pipe_fds[0]);
    *error = "cannot start " + binary;
    return nullptr;
  }
  const std::optional<std::uint16_t> port = read_port(pipe_fds[0], std::chrono::seconds{30});
  std::unique_ptr<ServerProcess> server{new ServerProcess{pid, pipe_fds[0], port.value_or(0)}};
  if (!port) {
    *error = binary + " did not report a listening port";
    return nullptr;  // the destructor stops the child
  }
  return server;
}

ServerProcess::~ServerProcess() { stop(); }

void ServerProcess::stop() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGTERM);
  const auto deadline = Clock::now() + std::chrono::seconds{10};
  int status = 0;
  pid_t reaped = 0;
  while ((reaped = ::waitpid(pid_, &status, WNOHANG)) == 0 && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds{2});
  }
  if (reaped == 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
  }
  ::close(stdout_fd_);
  pid_ = -1;
}

std::unique_ptr<Connection> connect_loopback(std::uint16_t port) {
  service::Socket socket = service::connect_to({"127.0.0.1", port});
  if (!socket.valid()) return nullptr;
  return std::make_unique<Connection>(std::move(socket));
}

void LoopResult::merge(LoopResult&& other) {
  samples.insert(samples.end(), other.samples.begin(), other.samples.end());
  for (KeptReply& reply : other.kept) kept.push_back(std::move(reply));
  sent += other.sent;
  received += other.received;
  errors += other.errors;
  lost = lost || other.lost;
}

LoopResult drive(std::vector<std::unique_ptr<Connection>>& connections,
                 std::vector<Source> sources, std::size_t depth, Clock::time_point origin,
                 Clock::time_point stop_at) {
  std::vector<LoopResult> results(connections.size());
  std::vector<std::thread> threads;
  threads.reserve(connections.size());
  for (std::size_t i = 0; i < connections.size(); ++i) {
    threads.emplace_back([&, i] {
      results[i] = drive_one(*connections[i], sources[i], depth, origin, stop_at);
    });
  }
  for (std::thread& thread : threads) thread.join();
  LoopResult merged;
  for (LoopResult& result : results) merged.merge(std::move(result));
  return merged;
}

LoopResult drive_list(std::vector<std::unique_ptr<Connection>>& connections,
                      std::vector<Issued> requests, std::size_t depth) {
  std::vector<std::vector<Issued>> shares(connections.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    shares[i % connections.size()].push_back(std::move(requests[i]));
  }
  std::vector<Source> sources;
  for (std::vector<Issued>& mine : shares) {
    sources.push_back([&mine, next = std::size_t{0}]() mutable -> std::optional<Issued> {
      if (next >= mine.size()) return std::nullopt;
      return std::move(mine[next++]);
    });
  }
  const auto now = Clock::now();
  return drive(connections, std::move(sources), depth, now, Clock::time_point::max());
}

std::optional<std::string> round_trip(Connection& connection, const Issued& issued,
                                      std::uint64_t* frame_id) {
  const std::uint64_t id = ++connection.next_id;
  connection.out << api::wire::encode(issued.request, id) << std::flush;
  while (connection.out) {
    std::optional<std::string> frame = api::wire::read_frame(connection.in);
    if (!frame) return std::nullopt;
    if (api::wire::response_frame_id(*frame) == id) {
      if (frame_id != nullptr) *frame_id = id;
      return frame;
    }
  }
  return std::nullopt;
}

std::optional<std::string> control(Connection& connection, std::string_view command) {
  connection.out << api::wire::control_frame(command) << std::flush;
  const std::optional<std::string> frame = api::wire::read_frame(connection.in);
  if (!frame) return std::nullopt;
  api::Result<std::string> info = api::wire::decode_info(*frame);
  if (!info.ok()) return std::nullopt;
  return std::move(info).value();
}

Scrape parse_metrics(const std::string& text) {
  Scrape scrape;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string_view line{text.data() + start, end - start};
    start = end + 1;
    if (line.empty() || line.front() == '#') continue;
    const std::size_t space = line.rfind(' ');
    if (space == std::string_view::npos) continue;
    scrape[std::string{line.substr(0, space)}] =
        std::strtod(std::string{line.substr(space + 1)}.c_str(), nullptr);
  }
  return scrape;
}

double total(const Scrape& scrape, std::string_view name) {
  double sum = 0.0;
  for (const auto& [series, value] : scrape) {
    if (series == name || (series.size() > name.size() && series.starts_with(name) &&
                           series[name.size()] == '{')) {
      sum += value;
    }
  }
  return sum;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
  const std::size_t index = std::min(values.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(index),
                   values.end());
  return values[index];
}

PhaseStats summarize(const std::vector<Segment>& segments) {
  PhaseStats stats;
  std::vector<double> all;
  std::vector<double> rates, p50s, p99s;
  for (const Segment& segment : segments) {
    const std::size_t slices =
        std::clamp<std::size_t>(segment.samples.size() / kSliceReplies, 1, kSlicesPerSegment);
    const double slice_ns = segment.seconds * 1e9 / static_cast<double>(slices);
    std::vector<std::vector<double>> by_slice(slices);
    for (const Sample& sample : segment.samples) {
      const double micros = static_cast<double>(sample.latency_ns) / 1e3;
      const auto slice = static_cast<std::size_t>(static_cast<double>(sample.done_ns) / slice_ns);
      by_slice[std::min(slice, slices - 1)].push_back(micros);
      all.push_back(micros);
    }
    for (const std::vector<double>& slice : by_slice) {
      rates.push_back(static_cast<double>(slice.size()) / (slice_ns / 1e9));
      p50s.push_back(quantile(slice, 0.50));
      p99s.push_back(quantile(slice, 0.99));
    }
    stats.slices += slices;
  }
  stats.samples = all.size();
  stats.throughput_rps = median(rates);
  stats.p50_us = median(p50s);
  stats.p99_us = median(p99s);
  stats.p999_us = quantile(all, 0.999);
  stats.max_us = all.empty() ? 0.0 : *std::max_element(all.begin(), all.end());
  return stats;
}

}  // namespace perfbench
