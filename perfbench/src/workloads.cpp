#include "workloads.hpp"

#include <iterator>
#include <utility>

namespace perfbench {
namespace {

using namespace spivar;

Issued with_target(api::RequestPayload payload, const std::string& target, int key = -1) {
  Issued issued;
  issued.request.payload = std::move(payload);
  issued.request.target = target;
  issued.key = key;
  return issued;
}

api::SimulateRequest simulate_seeded(std::uint64_t seed) {
  api::SimulateRequest simulate;
  simulate.options.seed = seed;
  return simulate;
}

// hot: 3 targets x 16 simulate seeds + 3 analyze requests = 51 keys, all
// cached by the warm-up, so the timed phase measures the serve path alone.
constexpr std::uint64_t kHotSeeds = 16;

Workload hot() {
  Workload w;
  w.name = "hot";
  w.targets = {"fig1", "fig2", "sweep/i2v2c2-s7"};
  w.depth = 8;
  const std::size_t simulate_keys = w.targets.size() * kHotSeeds;
  w.key_count = simulate_keys + w.targets.size();
  const auto by_key = [targets = w.targets, simulate_keys](std::size_t key) {
    if (key < simulate_keys) {
      return with_target(simulate_seeded(1 + key % kHotSeeds), targets[key / kHotSeeds],
                         static_cast<int>(key));
    }
    return with_target(api::AnalyzeRequest{}, targets[key - simulate_keys],
                       static_cast<int>(key));
  };
  const std::size_t target_count = w.targets.size();
  w.draw = [by_key, target_count, simulate_keys](Stream& stream) {
    SplitMix64& rng = stream.rng;
    if (rng.below(2) == 0) {
      const std::size_t target = rng.below(target_count);
      return by_key(target * kHotSeeds + rng.below(kHotSeeds));
    }
    return by_key(simulate_keys + rng.below(target_count));
  };
  w.first_touch = [by_key, simulate_keys](std::size_t index) {
    return by_key(simulate_keys + index);
  };
  w.warmup = [by_key, keys = w.key_count](std::uint64_t, bool) {
    std::vector<Issued> all;
    for (std::size_t key = 0; key < keys; ++key) all.push_back(by_key(key));
    return all;
  };
  return w;
}

// cold: simulate seeds from a space of 1e6, so every request misses; the
// warm-up fills the cache to capacity, so every timed insert also evicts.
constexpr std::uint64_t kColdSeeds = 1'000'000;

Workload cold() {
  Workload w;
  w.name = "cold";
  w.targets = {"fig1", "fig2", "sweep/i2v2c2-s7"};
  w.depth = 8;
  const auto draw = [targets = w.targets](SplitMix64& rng) {
    const std::string& target = targets[rng.below(targets.size())];
    return with_target(simulate_seeded(1 + rng.below(kColdSeeds)), target);
  };
  w.draw = [draw](Stream& stream) { return draw(stream.rng); };
  w.first_touch = [targets = w.targets](std::size_t index) {
    return with_target(simulate_seeded(1), targets[index]);
  };
  w.warmup = [draw](std::uint64_t seed, bool smoke) {
    SplitMix64 rng{seed};
    std::vector<Issued> fill;
    const std::size_t count = smoke ? 256 : kServerCache;
    for (std::size_t i = 0; i < count; ++i) fill.push_back(draw(rng));
    return fill;
  };
  return w;
}

// explore: the three explore engines and a five-strategy compare, with the
// explore seed drawn from a large space so every request evaluates in synth.
constexpr std::uint64_t kExploreSeeds = 1ULL << 40;
constexpr std::size_t kExploreShapes = 4;  // greedy, annealing, exhaustive, compare

/// One kind of explore request: a shape (index into explore_shape) on a
/// target (index into the workload's targets), and how often it is dealt.
struct Slot {
  std::size_t shape;
  std::size_t target;
  std::size_t count;
};

// Each connection deals its requests from a deck of 32 slots, reshuffled
// from its stream whenever it runs out, so every run sends the same mix
// whatever the seed. Targets: 0 fig2, 1 multistandard_tv, 2 sweep/i2v2c2-s7,
// 3 sweep/p2i2v2c2-s7. The counts put each quantile inside one kind of
// request rather than on the seam between two. 12 requests take under a
// millisecond and 12 take over 2.5 ms, so p50 (rank 16) falls among the 8
// exhaustive searches of multistandard_tv (~2 ms, nearly all synth time;
// sub-millisecond requests are mostly serve path and scheduler jitter).
// The two sweep compares (~43 ms, held by delayed ACK) are the slowest, so
// p99 falls among them. Exhaustive and annealing on sweep/i2v2c2-s7 are
// left out: they take 25-60 ms and would blur the p99 cluster.
constexpr Slot kExploreDeck[] = {
    {0, 0, 2}, {0, 1, 2}, {0, 2, 2}, {0, 3, 2},  // greedy
    {1, 0, 3}, {1, 1, 2}, {1, 3, 3},             // annealing
    {2, 0, 1}, {2, 1, 8}, {2, 3, 2},             // exhaustive
    {3, 0, 2}, {3, 1, 1}, {3, 2, 1}, {3, 3, 1},  // compare
};

api::RequestPayload explore_shape(std::size_t shape, std::uint64_t seed) {
  synth::ExploreOptions options;
  options.seed = seed;
  if (shape == 3) {
    api::CompareRequest compare;
    compare.options = options;
    return compare;
  }
  static constexpr synth::ExploreEngine kEngines[] = {
      synth::ExploreEngine::kGreedy, synth::ExploreEngine::kAnnealing,
      synth::ExploreEngine::kExhaustive};
  options.engine = kEngines[shape];
  api::ExploreRequest explore;
  explore.options = options;
  return explore;
}

Workload explore() {
  Workload w;
  w.name = "explore";
  // No sweep model whose annealing takes ~70 ms (p3i2v3 does): one rare
  // giant request would set p99 on its own.
  w.targets = {"fig2", "multistandard_tv", "sweep/i2v2c2-s7", "sweep/p2i2v2c2-s7"};
  // Depth 1: at depth 4 a request mostly waits behind others, and p50
  // swung by ~20% between repeats of one seed; at depth 1 it is steady.
  w.depth = 1;
  w.draw = [targets = w.targets](Stream& stream) {
    if (stream.deck.empty()) {
      for (std::size_t s = 0; s < std::size(kExploreDeck); ++s) {
        stream.deck.insert(stream.deck.end(), kExploreDeck[s].count, s);
      }
      for (std::size_t i = stream.deck.size() - 1; i > 0; --i) {
        std::swap(stream.deck[i], stream.deck[stream.rng.below(i + 1)]);
      }
    }
    const Slot& slot = kExploreDeck[stream.deck.back()];
    stream.deck.pop_back();
    return with_target(explore_shape(slot.shape, 1 + stream.rng.below(kExploreSeeds)),
                       targets[slot.target]);
  };
  w.first_touch = [targets = w.targets](std::size_t index) {
    return with_target(explore_shape(0, 1), targets[index]);
  };
  w.warmup = [targets = w.targets](std::uint64_t seed, bool) {
    SplitMix64 rng{seed};
    std::vector<Issued> all;
    for (const std::string& target : targets) {
      for (std::size_t shape = 0; shape < kExploreShapes; ++shape) {
        all.push_back(with_target(explore_shape(shape, 1 + rng.below(kExploreSeeds)), target));
      }
    }
    return all;
  };
  return w;
}

}  // namespace

std::optional<Workload> make_workload(std::string_view name) {
  if (name == "hot") return hot();
  if (name == "cold") return cold();
  if (name == "explore") return explore();
  return std::nullopt;
}

}  // namespace perfbench
