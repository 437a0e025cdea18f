// api::AdmissionController — lateness-driven overload shedding.
//
// The executor already records deadline-miss telemetry (ExecutorStats); this
// controller turns it into an admit/shed decision: a rolling window over
// stats deltas projects the deadline-miss rate the *next* request would see,
// and once that projection crosses a configured bound the controller sheds —
// the caller replies with a typed `api-overload` failure carrying a
// retry-after hint instead of queueing work it cannot finish on time.
//
// Shedding early is the whole point: a request admitted into an overloaded
// queue still burns a worker and still misses its deadline, so the tail only
// recovers when excess work is refused *before* submission. The telemetry is
// the executor's own, so it covers only work the executor runs: submit
// answers memory-tier cache hits on the submitting thread, and those never
// enter the projection (they are still shed under overload — the gate runs
// before the cache probe). The controller
// is deliberately cheap (one mutex, a handful of integers) — it sits on
// every call/submit path.
//
//   api::AdmissionController control{{.max_miss_rate = 0.25}};
//   const auto decision = control.admit(executor.stats());
//   if (!decision.admitted) reply(overload_failure(decision));
//
// Thread-safe: admit() may race from every connection thread.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>

#include "api/executor.hpp"

namespace spivar::api {

struct AdmissionConfig {
  /// Projected deadline-miss-rate bound; a projection at or above it sheds.
  /// >= 1.0 disables shedding entirely (a miss rate can never exceed 1).
  double max_miss_rate = 1.0;
  /// Rolling-window length: stats deltas older than this no longer shape
  /// the projection, so a burst that drained stops shedding within one
  /// window instead of haunting the cumulative average forever.
  std::chrono::milliseconds window{1000};
  /// Completions the window must contain before shedding is allowed — a
  /// cold start or idle period never sheds on one unlucky task.
  std::uint64_t min_samples = 16;
  /// The retry-after hint attached to shed replies.
  std::chrono::milliseconds retry_after{100};
};

/// One admit() verdict plus the evidence behind it.
struct AdmissionDecision {
  bool admitted = true;
  /// Hint for the shed reply: how long the client should back off. Zero
  /// when admitted.
  std::chrono::milliseconds retry_after{0};
  /// The windowed miss-rate projection the verdict was based on.
  double projected_miss_rate = 0.0;
};

class AdmissionController {
 public:
  explicit AdmissionController(AdmissionConfig config = {});

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// Verdict for one incoming request given the executor's current
  /// cumulative telemetry. The caller passes `Executor::stats()`; the
  /// controller differences consecutive snapshots itself.
  [[nodiscard]] AdmissionDecision admit(const ExecutorStats& stats);

  [[nodiscard]] const AdmissionConfig& config() const noexcept { return config_; }

  /// Monotonic verdict counters (for `executor-stats` breakdowns).
  [[nodiscard]] std::uint64_t admitted() const noexcept;
  [[nodiscard]] std::uint64_t rejected() const noexcept;

 private:
  AdmissionConfig config_;

  mutable std::mutex mutex_;
  /// Cumulative counters at the start of the current window.
  std::uint64_t base_completed_ = 0;
  std::uint64_t base_misses_ = 0;
  std::chrono::steady_clock::time_point window_start_{};
  bool primed_ = false;  ///< window_start_/base_* hold a real snapshot

  std::uint64_t admitted_ = 0;
  std::uint64_t rejected_ = 0;
};

}  // namespace spivar::api
