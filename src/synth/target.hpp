// Implementation library and synthesis problem description.
//
// Synthesis (module selection + allocation + scheduling, paper §5) works on
// *elements* identified by name — a name is a reusable component identity: a
// process occurring in several applications (PA in both variants of Figure
// 2) is one element, which is exactly what enables the resource sharing the
// paper exploits. An element can be a single process or a whole cluster
// (cluster-atomic granularity).
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "support/diagnostics.hpp"
#include "support/duration.hpp"

namespace spivar::synth {

using support::Duration;

/// Per-element implementation alternatives.
struct ElementImpl {
  /// Processor utilization fraction when implemented in software.
  double sw_load = 0.0;
  /// Worst-case execution time in software (one firing).
  Duration sw_wcet = Duration::zero();
  /// ASIC cost when implemented in hardware.
  double hw_cost = 0.0;
  /// Worst-case execution time in hardware.
  Duration hw_wcet = Duration::zero();
  bool can_sw = true;
  bool can_hw = true;

  /// Activation period of this element when it differs from its
  /// application's period (used by response-time analysis).
  std::optional<Duration> period;
};

/// The target technology: one shared processor plus per-element ASICs.
class ImplLibrary {
 public:
  double processor_cost = 0.0;        ///< fixed cost, paid once if any SW exists
  double processor_budget = 1.0;      ///< utilization capacity of the processor

  ImplLibrary& add(std::string name, ElementImpl impl) {
    elements_[std::move(name)] = impl;
    return *this;
  }

  [[nodiscard]] const ElementImpl& at(const std::string& name) const {
    auto it = elements_.find(name);
    if (it == elements_.end()) {
      throw support::ModelError("implementation library has no entry for '" + name + "'");
    }
    return it->second;
  }

  [[nodiscard]] bool contains(const std::string& name) const { return elements_.contains(name); }
  [[nodiscard]] std::size_t size() const noexcept { return elements_.size(); }

  /// Name-ordered view over every element (std::map order) — the order the
  /// wire codec lists a library in, so its cache key ignores insertion order.
  [[nodiscard]] const std::map<std::string, ElementImpl>& elements() const noexcept {
    return elements_;
  }

 private:
  std::map<std::string, ElementImpl> elements_;
};

/// One application / variant: the elements that are live together.
struct Application {
  std::string name;
  std::vector<std::string> elements;

  /// Optional timing: elements forming the processing chain, activation
  /// period of the input stream and end-to-end deadline. Elements not in the
  /// chain are independent tasks within the period.
  std::vector<std::string> chain;
  std::optional<Duration> period;
  std::optional<Duration> deadline;
};

/// Joint synthesis problem: all applications over a shared element universe.
struct SynthesisProblem {
  std::string name;
  std::vector<Application> apps;

  /// Union of element names over all applications, in first-seen order.
  [[nodiscard]] std::vector<std::string> element_union() const {
    std::vector<std::string> out;
    for (const Application& app : apps) {
      for (const std::string& e : app.elements) {
        bool seen = false;
        for (const std::string& have : out) {
          if (have == e) seen = true;
        }
        if (!seen) out.push_back(e);
      }
    }
    return out;
  }
};

}  // namespace spivar::synth
