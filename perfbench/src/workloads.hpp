// The benchmark's three traffic mixes and the seeded streams they draw from.
//
// Every request the client sends comes from a SplitMix64 stream derived
// from the run's --seed; the server sees only the generated frames. Why
// each workload exists, and which layer it isolates, is recorded in
// BENCHMARK.json and perfbench/README.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "api/requests.hpp"

namespace perfbench {

/// SplitMix64 (Steele, Lea, Flood 2014): tiny, seedable, and good enough
/// that consecutive seeds give unrelated streams.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform draw from [0, n); n > 0.
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

/// Independent sub-stream `stream` of `seed` (connections, warm-up, the
/// traced pass and the in-process probes each draw from their own).
[[nodiscard]] inline std::uint64_t substream(std::uint64_t seed, std::uint64_t stream) {
  return SplitMix64{seed ^ (0xa0761d6478bd642fULL * (stream + 1))}.next();
}

/// One request the client sends. `key` numbers the request within the
/// workload's finite key space (hot only; -1 where keys are unbounded).
struct Issued {
  spivar::api::AnyRequest request;
  int key = -1;
  /// Keep the reply for the output check.
  bool keep = false;
};

/// The state of one request stream: its generator, and the slots of the
/// current deck not dealt yet (workloads that deal a fixed mix use it).
struct Stream {
  explicit Stream(std::uint64_t seed) : rng(seed) {}
  SplitMix64 rng;
  std::vector<std::size_t> deck;
};

struct Workload {
  std::string name;
  /// Targets in first-touch order: the warm-up resolves them one at a time
  /// in this order, so store handles are the same on every server and in
  /// the in-process reference.
  std::vector<std::string> targets;
  /// Closed-loop requests in flight per connection.
  std::size_t depth = 8;
  /// Size of the finite key space (0 = unbounded).
  std::size_t key_count = 0;
  /// The next request of `stream`.
  std::function<Issued(Stream& stream)> draw;
  /// The request that first touches target `index` (sent at depth 1).
  std::function<Issued(std::size_t index)> first_touch;
  /// The rest of the warm-up pass: what brings a fresh server into the
  /// state the timed phase measures.
  std::function<std::vector<Issued>(std::uint64_t seed, bool smoke)> warmup;
};

[[nodiscard]] std::optional<Workload> make_workload(std::string_view name);

/// Result-cache capacity the server runs with (`spivar_serve --cache`).
inline constexpr std::size_t kServerCache = 4096;
/// Executor workers the server runs with (`spivar_serve --jobs`).
inline constexpr std::size_t kServerJobs = 2;
/// Closed-loop connections the client drives.
inline constexpr std::size_t kConnections = 2;

}  // namespace perfbench
