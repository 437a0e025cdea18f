// obs — per-request trace spans.
//
// A TraceContext is minted at the wire/session boundary (one per request,
// carrying the request id) and rides the request envelope through
// Session::call/submit onto the executor task that evaluates it. Span
// timings are recorded at the seams the request actually crosses:
//
//   queue-wait    submission → the executor task starting (submit paths;
//                 a memory-tier hit answered inside submit has none)
//   cache-probe   the result-cache lookup (detail::with_cache), or for a
//                 memory-tier hit answered inside submit, that probe
//   eval          the evaluation itself, cache misses only
//   spill         a synchronous persistent-tier write on the request path
//
// Propagation across the cache/persist layers is by thread-local pointer
// (TraceScope installs the context around the evaluation), so the deep
// seams need no signature changes — and when no trace is installed, the
// instrumentation is one thread-local load and a branch.
//
// Completed traces land in the Tracer: a bounded ring buffer behind the
// `trace last|slowest|<id>` admin control, plus an optional JSONL sink that
// logs requests whose total latency crosses a threshold (the slow-request
// log). finish() is idempotent per context — a request is recorded, and
// slow-logged, exactly once.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace spivar::obs {

enum class SpanKind : std::uint8_t {
  kQueueWait,
  kCacheProbe,
  kEval,
  kSpill,
};

[[nodiscard]] constexpr const char* to_string(SpanKind kind) noexcept {
  switch (kind) {
    case SpanKind::kQueueWait: return "queue-wait";
    case SpanKind::kCacheProbe: return "cache-probe";
    case SpanKind::kEval: return "eval";
    case SpanKind::kSpill: return "spill";
  }
  return "?";
}

/// One recorded span, offsets relative to the trace's birth.
struct Span {
  SpanKind kind = SpanKind::kEval;
  std::uint64_t start_us = 0;
  std::uint64_t duration_us = 0;
};

/// Per-request trace state. Spans may be appended from the minting thread
/// and the executor worker that evaluates the request; a small mutex keeps
/// the vector coherent (appends are rare — a handful per request).
class TraceContext {
 public:
  TraceContext(std::uint64_t id, std::string tenant, std::string kind, std::string target);

  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }
  [[nodiscard]] const std::string& tenant() const noexcept { return tenant_; }
  [[nodiscard]] const std::string& kind() const noexcept { return kind_; }
  [[nodiscard]] const std::string& target() const noexcept { return target_; }
  [[nodiscard]] std::chrono::steady_clock::time_point born() const noexcept { return born_; }

  /// Marks the moment the request entered an executor queue; the matching
  /// end_queue_wait() (called as the task starts) records the queue-wait
  /// span. Unmatched marks record nothing.
  void mark_queued() noexcept { queued_at_ = std::chrono::steady_clock::now(); }
  void end_queue_wait();

  /// Records one span from explicit clock readings (offsets computed
  /// against the trace's birth).
  void add_span(SpanKind kind, std::chrono::steady_clock::time_point start,
                std::chrono::steady_clock::time_point end);

  [[nodiscard]] std::vector<Span> spans() const;

  /// The finish() idempotence latch: true exactly once.
  [[nodiscard]] bool try_finish() noexcept {
    return !finished_.test_and_set(std::memory_order_acq_rel);
  }

 private:
  std::uint64_t id_;
  std::string tenant_;
  std::string kind_;
  std::string target_;
  std::chrono::steady_clock::time_point born_;
  std::chrono::steady_clock::time_point queued_at_{};

  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::atomic_flag finished_ = ATOMIC_FLAG_INIT;
};

// --- thread-local propagation ------------------------------------------------

/// The trace of the request currently evaluating on this thread (null when
/// none) — what the cache and persist seams record spans against.
[[nodiscard]] TraceContext* current_trace() noexcept;

/// RAII installer for current_trace(); nests (restores the previous value).
/// Null contexts install nothing, so untraced paths stay branch-cheap.
class TraceScope {
 public:
  explicit TraceScope(TraceContext* trace) noexcept;
  ~TraceScope();
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  TraceContext* previous_;
};

/// Records one span on the current trace, timed over this object's
/// lifetime. When no trace is installed the constructor is a thread-local
/// load and a branch — no clock reads.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanKind kind) noexcept
      : trace_(current_trace()), kind_(kind),
        start_(trace_ != nullptr ? std::chrono::steady_clock::now()
                                 : std::chrono::steady_clock::time_point{}) {}
  ~ScopedSpan() {
    if (trace_ != nullptr) trace_->add_span(kind_, start_, std::chrono::steady_clock::now());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  TraceContext* trace_;
  SpanKind kind_;
  std::chrono::steady_clock::time_point start_;
};

// --- the collector -----------------------------------------------------------

/// One completed request, as kept in the ring and rendered by the control.
struct TraceRecord {
  std::uint64_t id = 0;
  std::string tenant;
  std::string kind;
  std::string target;
  std::uint64_t total_us = 0;
  bool ok = true;
  std::vector<Span> spans;
};

struct TracerConfig {
  /// Completed traces kept for the `trace` control; clamped to >= 1.
  std::size_t ring = 256;
  /// A finished request whose total latency reaches this lands in the JSONL
  /// sink (0 logs every request). Meaningless without `log_path`.
  std::uint64_t slow_threshold_us = 0;
  /// JSONL slow-request log ("" = off). One object per line: id, tenant,
  /// kind, target, total_us, ok, spans[].
  std::string log_path;
};

class Tracer {
 public:
  explicit Tracer(TracerConfig config = {});
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Mints the next request id and its trace context.
  [[nodiscard]] std::shared_ptr<TraceContext> begin(std::string tenant, std::string kind,
                                                    std::string target);

  /// Completes a trace: pushes its record into the ring and slow-logs it
  /// when over the threshold. Idempotent per context (the ring receives the
  /// record, and the sink its line, exactly once); returns the total
  /// microseconds on the recording call, nullopt on repeats.
  std::optional<std::uint64_t> finish(const std::shared_ptr<TraceContext>& trace, bool ok);

  [[nodiscard]] std::optional<TraceRecord> last() const;
  [[nodiscard]] std::optional<TraceRecord> slowest() const;
  [[nodiscard]] std::optional<TraceRecord> find(std::uint64_t id) const;

  /// Requests minted so far (ids start at 1).
  [[nodiscard]] std::uint64_t minted() const noexcept {
    return next_id_.load(std::memory_order_relaxed) - 1;
  }

 private:
  void log_slow(const TraceRecord& record);

  TracerConfig config_;
  std::atomic<std::uint64_t> next_id_{1};

  mutable std::mutex mutex_;  ///< guards the ring
  std::vector<TraceRecord> ring_;
  std::size_t next_slot_ = 0;  ///< ring insertion cursor
  std::uint64_t completed_ = 0;
  std::size_t last_slot_ = 0;  ///< most recently written slot

  std::mutex log_mutex_;
  int log_fd_ = -1;  ///< O_APPEND JSONL sink; -1 = off
};

/// Admin-control rendering: a header line plus one `span ...` line each.
[[nodiscard]] std::string render(const TraceRecord& record);

/// The JSONL line (no trailing newline) the slow-request sink writes.
[[nodiscard]] std::string to_json(const TraceRecord& record);

}  // namespace spivar::obs
