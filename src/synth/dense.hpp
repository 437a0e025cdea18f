// Dense synthesis kernel: the exploration engines' inner loop over element
// ids, with names only at the edges.
//
// `DenseProblem` interns one (library, applications, fixed mapping) triple
// once per explore call: element ids in name order, one cost row per
// element, every application's element ids in that application's own order
// and, for applications with a deadline, the list scheduler's (chain
// position, name) priority order. A `DenseState` is one target per id;
// `DenseProblem::evaluate` prices it without touching a string or the heap.
//
// Each element's row holds, per `Target` (`kSoftware` 0, `kHardware` 1),
// the load it adds to every application holding it ({sw_load, 0.0}), the
// ASIC cost it adds ({0.0, hw_cost}), its execution time and whether it may
// sit there ({can_sw, can_hw}). Pricing indexes the rows with the state byte
// instead of branching on it: the engines visit data-dependent bit patterns,
// which a branch mispredicts.
//
// The dense cost is bit-identical to `synth::evaluate`, which stays the
// public reference: software loads add in each application's element order,
// ASIC costs add in name order (the reference's std::set order), and
// `Duration` is integer microseconds, so the list schedule is exact. The
// zeros a row adds are +0.0 into sums that start at +0.0, and such a sum is
// never -0.0, so each one leaves the sum's bits as they were. Permission is
// checked once per id rather than once per occurrence; every id occurs in
// some application, so the verdict is the same. The engines convert only
// their final state back to a `Mapping` and price it once through
// `evaluate` for the name lists and the infeasibility text. Cost is a plain
// function over the state: a second objective is a second function, not a
// second explorer.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "synth/mapping.hpp"
#include "synth/target.hpp"

namespace spivar::synth {

/// One target per element id.
using DenseState = std::vector<Target>;

/// Two values of one kind, indexed by `Target`.
template <typename T>
struct PerTarget {
  std::array<T, 2> values{};

  [[nodiscard]] const T& operator[](Target target) const noexcept {
    return values[static_cast<std::uint8_t>(target)];
  }
};

/// What one element adds to a state at each target.
struct DenseRow {
  PerTarget<double> load;    ///< to each application holding it: {sw_load, +0.0}
  PerTarget<double> asic;    ///< to the ASIC sum: {+0.0, hw_cost}
  PerTarget<Duration> wcet;  ///< one firing: {sw_wcet, hw_wcet}
  PerTarget<bool> allowed;   ///< {can_sw, can_hw}
};

/// What the engines compare: a `CostBreakdown` without the name lists.
struct DenseCost {
  double total = 0.0;
  double worst_utilization = 0.0;
  bool feasible = true;
};

class DenseProblem {
 public:
  using Id = std::uint32_t;

  /// Interns `apps` over `library`; entries of `fixed` keep their target.
  /// Elements missing from the library are recorded, not thrown on:
  /// `require_library` raises the reference engines' error for them.
  DenseProblem(const ImplLibrary& library, const std::vector<Application>& apps,
               const Mapping& fixed);

  /// Throws the library's "no entry" error for the element an engine meets
  /// first: the greedy family (`free_first`) resolves the free elements'
  /// start targets before its first evaluation, and `evaluate` walks every
  /// element in first-seen order.
  void require_library(const ImplLibrary& library, bool free_first) const;

  [[nodiscard]] const DenseRow& row(Id id) const noexcept { return rows_[id]; }
  [[nodiscard]] const std::string& name(Id id) const noexcept { return names_[id]; }
  [[nodiscard]] double processor_budget() const noexcept { return budget_; }

  /// The ids not fixed, in `SynthesisProblem::element_union` (first-seen)
  /// order: the annealing draw and the exhaustive bit `i` index this list.
  [[nodiscard]] const std::vector<Id>& free() const noexcept { return free_; }

  [[nodiscard]] std::size_t app_count() const noexcept { return apps_.size(); }
  /// Element ids of application `app`, in its own order (repeats kept).
  [[nodiscard]] std::span<const Id> app_elements(std::size_t app) const noexcept {
    return {app_ids_.data() + apps_[app].begin, app_ids_.data() + apps_[app].end};
  }
  /// Applications containing `id`, ascending, each once.
  [[nodiscard]] const std::vector<std::uint32_t>& apps_of(Id id) const noexcept {
    return apps_of_[id];
  }
  /// Applications sharing a name share a slot (greedy keys its per-app
  /// overload by name); `slot_count` slots in all.
  [[nodiscard]] std::uint32_t app_slot(std::size_t app) const noexcept {
    return apps_[app].slot;
  }
  [[nodiscard]] std::size_t slot_count() const noexcept { return slot_count_; }

  [[nodiscard]] bool allows(Id id, Target target) const noexcept {
    return rows_[id].allowed[target];
  }

  /// Fixed ids at their fixed target; free ids in software where possible.
  [[nodiscard]] const DenseState& initial_state() const noexcept { return initial_; }

  /// Total cost, worst per-application utilization and feasibility of
  /// `state`; bit-identical to `synth::evaluate` on `to_mapping(state)`.
  /// Allocation-free.
  [[nodiscard]] DenseCost evaluate(const DenseState& state) const noexcept;

  /// The state by name: every fixed entry plus the free elements.
  [[nodiscard]] Mapping to_mapping(const DenseState& state) const;

 private:
  static constexpr std::uint32_t kNoPosition = UINT32_MAX;

  struct App {
    std::uint32_t begin = 0;  ///< range in app_ids_
    std::uint32_t end = 0;
    std::uint32_t steps_begin = 0;  ///< range in steps_ (deadline apps only)
    std::uint32_t steps_end = 0;
    std::uint32_t slot = 0;
    std::optional<Duration> deadline;
  };

  /// One task `list_schedule` places, in its priority order.
  struct Step {
    Id id = 0;
    std::uint32_t position = kNoPosition;  ///< chain position, none outside the chain
  };

  [[nodiscard]] bool meets_deadline(const App& app, const DenseState& state) const noexcept;

  std::vector<std::string> names_;
  std::vector<DenseRow> rows_;         ///< a default `ElementImpl`'s when missing
  bool any_missing_ = false;           ///< some element has no library entry
  std::vector<Id> union_;              ///< every id in first-seen order
  std::vector<Id> free_;
  DenseState initial_;
  Mapping fixed_;

  std::vector<App> apps_;
  std::vector<Id> app_ids_;
  std::vector<std::vector<std::uint32_t>> apps_of_;
  std::size_t slot_count_ = 0;
  std::vector<Step> steps_;

  double budget_ = 1.0;
  double processor_cost_ = 0.0;
};

}  // namespace spivar::synth
