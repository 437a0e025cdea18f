// Multi-objective exploration: the cost / worst-chain-latency Pareto front.
//
// System optimization "is usually targeted to minimize the (hardware) cost
// of a system as long as a correct timing behavior can be guaranteed" (§5).
// Beyond the single feasibility threshold, designers want the whole
// trade-off curve: this module enumerates mappings (exhaustively for small
// problems, by seeded sampling above the limit) and keeps the
// non-dominated (cost, latency) points.
#pragma once

#include <cstdint>
#include <vector>

#include "synth/cost.hpp"
#include "synth/mapping.hpp"
#include "synth/schedule.hpp"
#include "synth/target.hpp"

namespace spivar::synth {

struct ParetoPoint {
  Mapping mapping;
  double cost = 0.0;
  support::Duration worst_latency{};  ///< max list-schedule makespan over apps

  friend bool operator==(const ParetoPoint&, const ParetoPoint&) = default;
};

struct ParetoOptions {
  std::size_t exhaustive_limit = 16;  ///< elements; above (or at 64+): random sampling
  std::size_t samples = 4096;         ///< sampled mappings above the limit
  std::uint64_t seed = 1;
};

/// Non-dominated feasible (cost, latency) points, sorted by ascending cost.
/// Feasibility = processor budget only; latency is the reported objective,
/// so per-app deadlines are intentionally ignored here.
[[nodiscard]] std::vector<ParetoPoint> pareto_front(const ImplLibrary& library,
                                                    const std::vector<Application>& apps,
                                                    const ParetoOptions& options = {});

}  // namespace spivar::synth
