#include "synth/dense.hpp"

#include <algorithm>
#include <map>
#include <string_view>
#include <tuple>

namespace spivar::synth {

using support::TimePoint;

DenseProblem::DenseProblem(const ImplLibrary& library, const std::vector<Application>& apps,
                           const Mapping& fixed)
    : fixed_(fixed), budget_(library.processor_budget), processor_cost_(library.processor_cost) {
  // Ids in name order: the ASIC sum then adds in the reference's std::set
  // order, and list_schedule's name tie-break becomes an id comparison.
  std::map<std::string_view, Id> ids;
  std::vector<std::string_view> first_seen;
  for (const Application& app : apps) {
    for (const std::string& e : app.elements) {
      if (ids.try_emplace(e, 0).second) first_seen.push_back(e);
    }
  }
  const ElementImpl missing;
  names_.reserve(ids.size());
  rows_.reserve(ids.size());
  for (auto& [name, id] : ids) {
    id = static_cast<Id>(names_.size());
    names_.emplace_back(name);
    const auto it = library.elements().find(names_.back());
    const bool found = it != library.elements().end();
    any_missing_ = any_missing_ || !found;
    const ElementImpl& e = found ? it->second : missing;
    rows_.push_back({.load = {{e.sw_load, 0.0}},
                     .asic = {{0.0, e.hw_cost}},
                     .wcet = {{e.sw_wcet, e.hw_wcet}},
                     .allowed = {{e.can_sw, e.can_hw}}});
  }

  initial_.resize(names_.size());
  union_.reserve(first_seen.size());
  for (const std::string_view name : first_seen) {
    const Id id = ids.at(name);
    union_.push_back(id);
    const auto it = fixed.assignments().find(names_[id]);
    if (it != fixed.assignments().end()) {
      initial_[id] = it->second;
    } else {
      free_.push_back(id);
      initial_[id] = allows(id, Target::kSoftware) ? Target::kSoftware : Target::kHardware;
    }
  }

  std::map<std::string_view, std::uint32_t> slots;
  apps_of_.resize(names_.size());
  apps_.reserve(apps.size());
  for (std::uint32_t a = 0; a < apps.size(); ++a) {
    const Application& app = apps[a];
    App dense;
    dense.slot = slots.try_emplace(app.name, static_cast<std::uint32_t>(slots.size()))
                     .first->second;
    dense.deadline = app.deadline;
    dense.begin = static_cast<std::uint32_t>(app_ids_.size());
    for (const std::string& e : app.elements) {
      const Id id = ids.at(e);
      app_ids_.push_back(id);
      std::vector<std::uint32_t>& holders = apps_of_[id];
      if (holders.empty() || holders.back() != a) holders.push_back(a);
    }
    dense.end = static_cast<std::uint32_t>(app_ids_.size());

    if (app.deadline) {
      // list_schedule's priority: chain position (a repeated chain entry
      // keeps its last position), the rest after the chain by name.
      std::map<std::string_view, std::uint32_t> chain_position;
      for (std::size_t i = 0; i < app.chain.size(); ++i) {
        chain_position[app.chain[i]] = static_cast<std::uint32_t>(i);
      }
      std::vector<Step> order;
      order.reserve(app.elements.size());
      for (const std::string& e : app.elements) {
        const auto it = chain_position.find(e);
        order.push_back({ids.at(e), it == chain_position.end() ? kNoPosition : it->second});
      }
      std::sort(order.begin(), order.end(), [](const Step& x, const Step& y) {
        return std::tie(x.position, x.id) < std::tie(y.position, y.id);
      });
      // A chain task waits for position p - 1, so list_schedule never places
      // one whose predecessor is absent (a broken chain), nor any behind it.
      std::vector<bool> placed(app.chain.size());
      dense.steps_begin = static_cast<std::uint32_t>(steps_.size());
      for (const Step& step : order) {
        if (step.position != kNoPosition) {
          if (step.position > 0 && !placed[step.position - 1]) continue;
          placed[step.position] = true;
        }
        steps_.push_back(step);
      }
      dense.steps_end = static_cast<std::uint32_t>(steps_.size());
    }
    apps_.push_back(dense);
  }
  slot_count_ = slots.size();
}

void DenseProblem::require_library(const ImplLibrary& library, bool free_first) const {
  if (!any_missing_) return;
  if (free_first) {
    for (const Id id : free_) (void)library.at(names_[id]);
  }
  for (const Id id : union_) (void)library.at(names_[id]);
}

DenseCost DenseProblem::evaluate(const DenseState& state) const noexcept {
  DenseCost out;
  // Once per id: permission, whether the processor is bought, and the ASIC
  // sum in id order, which is the reference's name order.
  bool any_software = false;
  double asic = 0.0;
  for (std::size_t id = 0; id < rows_.size(); ++id) {
    const DenseRow& row = rows_[id];
    const Target target = state[id];
    out.feasible &= row.allowed[target];
    any_software |= target == Target::kSoftware;
    asic += row.asic[target];
  }
  out.total = (any_software ? processor_cost_ : 0.0) + asic;

  for (const App& app : apps_) {
    double load = 0.0;
    for (std::uint32_t k = app.begin; k < app.end; ++k) {
      const Id id = app_ids_[k];
      load += rows_[id].load[state[id]];
    }
    out.worst_utilization = std::max(out.worst_utilization, load);
    if (load > budget_ + 1e-12) out.feasible = false;
    // The schedule only decides feasibility: skip it once that is lost.
    if (app.deadline && out.feasible && !meets_deadline(app, state)) out.feasible = false;
  }
  return out;
}

bool DenseProblem::meets_deadline(const App& app, const DenseState& state) const noexcept {
  TimePoint processor_free = TimePoint::zero();
  Duration makespan = Duration::zero();
  std::uint32_t position = kNoPosition;  // chain position being placed
  TimePoint before = TimePoint::zero();  // completion of position - 1
  TimePoint done = TimePoint::zero();    // completion of `position` so far
  for (std::uint32_t k = app.steps_begin; k < app.steps_end; ++k) {
    const Step& step = steps_[k];
    const Target target = state[step.id];
    const bool software = target == Target::kSoftware;
    TimePoint start = TimePoint::zero();
    if (step.position != kNoPosition) {
      if (step.position != position) {
        before = done;
        position = step.position;
      }
      if (position > 0) start = before;
    }
    if (software) start = std::max(start, processor_free);
    const TimePoint end = start + rows_[step.id].wcet[target];
    if (software) processor_free = end;
    if (step.position != kNoPosition) done = end;
    makespan = std::max(makespan, end - TimePoint::zero());
  }
  return makespan <= *app.deadline;
}

Mapping DenseProblem::to_mapping(const DenseState& state) const {
  Mapping mapping = fixed_;
  for (const Id id : free_) mapping.set(names_[id], state[id]);
  return mapping;
}

}  // namespace spivar::synth
