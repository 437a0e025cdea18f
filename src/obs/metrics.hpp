// obs::MetricsRegistry — the one observability surface every subsystem
// publishes through (ROADMAP: "a serving stack at this complexity needs one
// observability layer").
//
// Three instrument kinds, all safe for concurrent writers:
//
//   * Counter   — a monotonic u64; add() is one relaxed fetch_add.
//   * Gauge     — a settable i64 point-in-time value.
//   * Histogram — the log-bucketed LatencyHistogram shape with atomic
//                 buckets, so request threads record() concurrently and a
//                 scrape snapshots into a plain support::LatencyHistogram
//                 for quantiles.
//
// Registration happens once (name + label set → one instrument, deduped),
// and callers keep the returned handle — the hot path never touches the
// registry's mutex again, it pays exactly one atomic add:
//
//   obs::Counter& hits = registry.counter("spivar_cache_hits_total",
//                                         "lookups served from cache");
//   ...
//   hits.add();                            // the hot path
//
// Subsystems that already keep their own stats structs (ExecutorStats,
// CacheStats, ...) re-publish through *collectors*: a collector callback
// registered with add_collector() runs at the start of every render() and
// set()s gauges / counters from one consistent stats() snapshot — the
// existing structs stay the single source of truth and the scrape can never
// disagree with the `executor-stats`/`cache-stats` controls sampled at the
// same moment.
//
// render() emits Prometheus text exposition format: counters and gauges as
// single samples, histograms as summaries (quantile series + _sum/_count).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "support/latency_histogram.hpp"

namespace spivar::obs {

/// One `key="value"` label pair. Tenant and request kind are the label
/// dimensions the service uses; arbitrary pairs are allowed.
struct Label {
  std::string key;
  std::string value;

  friend bool operator==(const Label&, const Label&) noexcept = default;
};

using Labels = std::vector<Label>;

/// Monotonic counter. add() is the hot-path entry (one relaxed fetch_add);
/// set() exists for collectors that republish an externally accumulated
/// monotonic total (ExecutorStats::completed and friends).
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept { value_.fetch_add(n, std::memory_order_relaxed); }
  void set(std::uint64_t v) noexcept { value_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Point-in-time value (queue depth, entries held, workers).
class Gauge {
 public:
  void set(std::int64_t v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t n) noexcept { value_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Concurrent-writer histogram: the LatencyHistogram bucket shape with
/// atomic counts. record() is an index computation plus one relaxed
/// fetch_add (plus two CAS loops for min/max — contended only while the
/// extremes are still moving). snapshot() sums the buckets into a plain
/// LatencyHistogram for quantile math; concurrent records may or may not be
/// included, each at-most-once — the usual monitoring contract.
class Histogram {
 public:
  void record(std::uint64_t value) noexcept {
    counts_[support::LatencyHistogram::index_of(value)].fetch_add(1, std::memory_order_relaxed);
    total_.fetch_add(1, std::memory_order_relaxed);
    update_min(value);
    update_max(value);
  }

  [[nodiscard]] std::uint64_t count() const noexcept {
    return total_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] support::LatencyHistogram snapshot() const noexcept;

 private:
  void update_min(std::uint64_t value) noexcept {
    std::uint64_t prev = min_.load(std::memory_order_relaxed);
    while (value < prev &&
           !min_.compare_exchange_weak(prev, value, std::memory_order_relaxed)) {
    }
  }
  void update_max(std::uint64_t value) noexcept {
    std::uint64_t prev = max_.load(std::memory_order_relaxed);
    while (value > prev &&
           !max_.compare_exchange_weak(prev, value, std::memory_order_relaxed)) {
    }
  }

  std::array<std::atomic<std::uint64_t>, support::LatencyHistogram::kSlots> counts_{};
  std::atomic<std::uint64_t> total_{0};
  std::atomic<std::uint64_t> min_{~std::uint64_t{0}};
  std::atomic<std::uint64_t> max_{0};
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Get-or-create: the same (name, labels) always returns the same
  /// instrument, so independent call sites share one handle, found by a
  /// hash lookup however many series a family holds. `help` is kept from
  /// the first registration. Handles stay valid for the registry's lifetime
  /// (instruments live in deques and never move).
  Counter& counter(const std::string& name, const std::string& help, Labels labels = {});
  Gauge& gauge(const std::string& name, const std::string& help, Labels labels = {});
  Histogram& histogram(const std::string& name, const std::string& help, Labels labels = {});

  /// Registers a collector run (outside the registry lock) at the start of
  /// every render() — the hook stats-struct owners use to republish one
  /// consistent snapshot per scrape.
  void add_collector(std::function<void()> collector);

  /// Prometheus text exposition: runs the collectors, then renders every
  /// family sorted by name (# HELP / # TYPE plus one sample per label set;
  /// histograms as summaries with p50/p90/p99/p999 quantile series).
  [[nodiscard]] std::string render();

 private:
  enum class Type { kCounter, kGauge, kHistogram };

  struct LabelsHash {
    std::size_t operator()(const Labels& labels) const noexcept;
  };

  struct Family {
    std::string help;
    Type type = Type::kCounter;
    /// Each label set's index into the per-type deque: the get-or-create
    /// lookup.
    std::unordered_map<Labels, std::size_t, LabelsHash> slots;
    /// The entries of `slots` in creation order, the order render() emits
    /// (a rehash moves no entry).
    std::vector<const std::pair<const Labels, std::size_t>*> created;
  };

  template <typename T>
  T& instrument(const std::string& name, const std::string& help, Labels&& labels, Type type,
                std::deque<T>& storage);

  mutable std::mutex mutex_;  ///< guards families_ and the storage deques' structure
  std::map<std::string, Family> families_;  ///< rendered in name order
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<Histogram> histograms_;

  std::mutex collectors_mutex_;
  std::vector<std::function<void()>> collectors_;
};

}  // namespace spivar::obs
