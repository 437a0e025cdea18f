#include "synth/pareto.hpp"

#include <algorithm>

#include "support/rng.hpp"

namespace spivar::synth {

namespace {

/// Worst makespan across the applications under one mapping.
support::Duration worst_latency(const ImplLibrary& library,
                                const std::vector<Application>& apps, const Mapping& mapping) {
  support::Duration worst = support::Duration::zero();
  for (const Application& app : apps) {
    worst = std::max(worst, list_schedule(library, app, mapping).makespan);
  }
  return worst;
}

/// Utilization-only feasibility (deadlines are an objective here, not a
/// constraint).
bool utilization_feasible(const ImplLibrary& library, const std::vector<Application>& apps,
                          const Mapping& mapping) {
  for (const Application& app : apps) {
    double load = 0.0;
    for (const std::string& e : app.elements) {
      const ElementImpl& impl = library.at(e);
      if (mapping.at(e) == Target::kSoftware) {
        if (!impl.can_sw) return false;
        load += impl.sw_load;
      } else if (!impl.can_hw) {
        return false;
      }
    }
    if (load > library.processor_budget + 1e-12) return false;
  }
  return true;
}

void insert_if_nondominated(std::vector<ParetoPoint>& front, ParetoPoint candidate) {
  for (const ParetoPoint& p : front) {
    if (p.cost <= candidate.cost + 1e-12 && p.worst_latency <= candidate.worst_latency) {
      return;  // dominated
    }
  }
  std::erase_if(front, [&](const ParetoPoint& p) {
    return candidate.cost <= p.cost + 1e-12 && candidate.worst_latency <= p.worst_latency;
  });
  front.push_back(std::move(candidate));
}

}  // namespace

std::vector<ParetoPoint> pareto_front(const ImplLibrary& library,
                                      const std::vector<Application>& apps,
                                      const ParetoOptions& options) {
  SynthesisProblem tmp;
  tmp.apps = apps;
  const std::vector<std::string> elements = tmp.element_union();

  std::vector<ParetoPoint> front;
  auto consider = [&](const Mapping& mapping) {
    if (!utilization_feasible(library, apps, mapping)) return;
    ParetoPoint point;
    point.mapping = mapping;
    point.worst_latency = worst_latency(library, apps, mapping);
    const CostBreakdown cost = evaluate(library, apps, mapping);
    point.cost = cost.total;
    insert_if_nondominated(front, std::move(point));
  };

  // Enumeration counts 2^n mappings in 64 bits: n >= 64 samples like any n
  // above the limit.
  if (elements.size() <= options.exhaustive_limit && elements.size() < 64) {
    for (std::uint64_t bits = 0; bits < (std::uint64_t{1} << elements.size()); ++bits) {
      Mapping mapping;
      for (std::size_t i = 0; i < elements.size(); ++i) {
        mapping.set(elements[i], (bits >> i) & 1 ? Target::kHardware : Target::kSoftware);
      }
      consider(mapping);
    }
  } else {
    support::SplitMix64 rng{options.seed};
    for (std::size_t s = 0; s < options.samples; ++s) {
      Mapping mapping;
      for (const std::string& e : elements) {
        mapping.set(e, rng.next_below(2) == 0 ? Target::kSoftware : Target::kHardware);
      }
      consider(mapping);
    }
  }

  std::sort(front.begin(), front.end(), [](const ParetoPoint& a, const ParetoPoint& b) {
    if (a.cost != b.cost) return a.cost < b.cost;
    return a.worst_latency < b.worst_latency;
  });
  return front;
}

}  // namespace spivar::synth
