// The traced pass: per-layer numbers, never taken from the timed runs.
//
// Layers are timed from outside, by calling each module's public functions
// from the benchmark; every call is a span (name, start, end, parent) and
// all spans of one request share a trace id. Spans stay in memory and are
// written as JSON lines when the pass ends.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "traffic.hpp"
#include "workloads.hpp"

namespace perfbench {

struct Span {
  std::uint64_t trace = 0;
  std::int64_t parent = -1;  ///< index of the parent span, -1 for a root
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = -1;
};

class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  std::uint64_t next_trace() { return ++traces_; }
  /// Opens a span now; returns its index for end() and for children.
  std::int64_t begin(std::uint64_t trace, std::string name, std::int64_t parent = -1);
  void end(std::int64_t span);

  /// Per trace, the summed self time (duration minus the children's) of
  /// the spans named `name`, in microseconds.
  [[nodiscard]] std::vector<double> self_us(std::string_view name) const;
  [[nodiscard]] bool write_jsonl(const std::string& path) const;
  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }

 private:
  Clock::time_point origin_;
  std::uint64_t traces_ = 0;
  std::vector<Span> spans_;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<std::pair<std::string, Metric>>;

/// What the traced pass is handed: a set-up server with its connections.
struct TracedInputs {
  const Workload& workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool smoke = false;
  std::vector<std::unique_ptr<Connection>>& connections;
  Connection& control;
  /// Every request of the warm-up, in order (the mirror session replays
  /// them so its cache holds what the server's does).
  const std::vector<Issued>& warmup;
};

struct TracedResult {
  Metrics metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> notes;  ///< human-readable lines
};

/// Runs the loaded phase with counter scrapes around it, the depth-1 traced
/// requests, and the in-process layer probes; writes the spans to
/// `spans_path`.
[[nodiscard]] TracedResult traced_pass(const TracedInputs& inputs, const std::string& spans_path);

}  // namespace perfbench
