// Typed responses returned by api::Session operations.
//
// Responses are self-contained: summary rows are name-resolved against the
// model so front ends (CLI, examples, services) never need to reach back
// into the Graph to present results. The raw subsystem results ride along
// for callers that want the full detail.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "analysis/buffer_bounds.hpp"
#include "analysis/timing.hpp"
#include "api/requests.hpp"
#include "sim/stats.hpp"
#include "support/diagnostics.hpp"
#include "synth/explore.hpp"
#include "synth/pareto.hpp"

namespace spivar::api {

/// Summary of one loaded model.
struct ModelInfo {
  ModelId id;
  std::string name;
  std::string origin;  ///< "builtin:<name>", "text", or the file path
  std::size_t processes = 0;
  std::size_t channels = 0;
  std::size_t interfaces = 0;
  std::size_t clusters = 0;
  /// Canonical content fingerprint (variant::content_fingerprint): equal
  /// text ⇒ equal fingerprint across processes and restarts — the identity
  /// the persistent result cache keys on. 0 when the model's text cannot
  /// round-trip (no content identity).
  std::uint64_t content_fingerprint = 0;
  [[nodiscard]] bool has_variants() const noexcept { return interfaces > 0; }
};

/// Validation findings (core graph pass + variant pass when applicable).
/// A response with errors is still a *successful* operation — the findings
/// are the payload; Result failure is reserved for not being able to run
/// validation at all.
struct ValidateResponse {
  std::string model;
  support::DiagnosticList findings;
  [[nodiscard]] bool clean() const noexcept { return findings.empty(); }
  [[nodiscard]] bool has_errors() const noexcept { return findings.has_errors(); }
};

struct SimulateResponse {
  std::string model;
  sim::SimResult result;  ///< full id-indexed result for power users

  struct ProcessRow {
    std::string name;
    std::int64_t firings = 0;
    support::Duration busy{};
    std::int64_t reconfigurations = 0;
  };
  struct ChannelRow {
    std::string name;
    std::int64_t produced = 0;
    std::int64_t consumed = 0;
    std::int64_t occupancy = 0;
    std::int64_t max_occupancy = 0;
  };
  std::vector<ProcessRow> processes;
  std::vector<ChannelRow> channels;
  std::string timeline;  ///< rendered when SimulateRequest::render_timeline
};

struct AnalyzeResponse {
  std::string model;
  /// Which passes ran (renderers skip the others): the request's flags
  /// without its model handle, so the reply is the same whichever handle
  /// asked — the property the content-keyed result cache relies on.
  struct Passes {
    bool deadlock = true;
    bool buffers = true;
    bool structure = true;
    bool timing = true;
    bool include_reconfiguration = false;
  };
  Passes passes;

  struct Deadlock {
    std::vector<std::string> cycle;  ///< process names, in cycle order
    std::int64_t initial_tokens = 0;
    std::int64_t required_tokens = 0;
    std::string description;
  };
  std::vector<Deadlock> deadlocks;

  std::vector<analysis::ChannelFlow> buffer_flows;
  std::vector<analysis::LatencyCheck> latency_checks;

  struct Structure {
    bool acyclic = false;
    std::vector<std::string> sources;
    std::vector<std::string> sinks;
    std::vector<std::string> dead;  ///< processes that can never activate
    std::size_t components = 0;
  };
  Structure structure;

  [[nodiscard]] bool deadlock_free() const noexcept { return deadlocks.empty(); }
};

struct ExploreResponse {
  std::string model;
  synth::ExploreResult result;
  std::string problem;               ///< synthesis problem name
  std::size_t applications = 0;      ///< variant bindings explored jointly
  std::size_t elements = 0;          ///< size of the shared element universe
  std::string library_origin;        ///< "curated", "derived", or "request"
};

struct ParetoResponse {
  std::string model;
  std::vector<synth::ParetoPoint> points;  ///< ascending cost, non-dominated
  std::size_t applications = 0;
  std::string library_origin;
};

/// Ranked outcome table of Session::compare() — the paper's Table 1 shape.
/// Independent synthesis contributes one row per application (the table's
/// "Application k" rows); every other strategy one system-level row.
struct CompareResponse {
  std::string model;
  std::string problem;
  std::size_t applications = 0;
  std::string library_origin;

  /// One tried application order of an order-sensitive baseline, in the
  /// order it was tried (identity first) — the order-sensitivity of the
  /// literature baselines as data, not just a best/worst spread.
  struct OrderOutcome {
    std::vector<std::size_t> order;  ///< applied permutation; empty = identity
    double total = 0.0;
    double worst_utilization = 0.0;
    bool feasible = false;
    std::int64_t decisions = 0;
  };

  struct Row {
    std::string strategy;  ///< canonical strategy name
    /// Application name for per-application (independent) rows, "system"
    /// for whole-system strategies — only system rows are ranked.
    std::string scope;
    /// Best outcome; for order-permuted baselines the best over all orders
    /// (under the request's objective chain).
    synth::StrategyOutcome outcome;
    std::size_t orders_tried = 1;
    double worst_total = 0.0;     ///< worst cost over the tried orders
    std::int64_t decisions = 0;   ///< summed over every tried order
    std::int64_t evaluations = 0; ///< summed over every tried order
    /// Per-order outcome list; populated for order-sensitive strategies
    /// (one entry even without a sweep: the identity order).
    std::vector<OrderOutcome> per_order;
    [[nodiscard]] bool system() const noexcept { return scope == "system"; }
  };
  std::vector<Row> rows;  ///< canonical presentation order

  /// Objective chain the ranking used (echo of the request; empty = total
  /// cost only).
  std::vector<synth::RankObjective> objectives;

  /// Indices into `rows` of the system-level rows: feasible before
  /// infeasible, then by the objective chain (ties keep canonical order).
  std::vector<std::size_t> ranking;

  /// The winning system-level row (nullptr when no system strategy ran).
  [[nodiscard]] const Row* best() const noexcept {
    return ranking.empty() ? nullptr : &rows[ranking.front()];
  }
  /// Row of `strategy` with system scope, or nullptr.
  [[nodiscard]] const Row* find(std::string_view strategy) const noexcept {
    for (const Row& row : rows) {
      if (row.system() && row.strategy == strategy) return &row;
    }
    return nullptr;
  }
};

// --- the v5 envelope ---------------------------------------------------------

/// One alternative per evaluation kind — what Session::call returns and the
/// wire protocol transports. The alternative always matches the request's
/// payload kind.
using AnyResponse =
    std::variant<SimulateResponse, AnalyzeResponse, ExploreResponse, ParetoResponse,
                 CompareResponse>;

/// The evaluation kind behind an envelope response.
[[nodiscard]] RequestKind kind_of(const AnyResponse& response) noexcept;

/// The response's model name (every alternative carries one).
[[nodiscard]] const std::string& model_of(const AnyResponse& response) noexcept;

}  // namespace spivar::api
