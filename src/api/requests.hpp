// Request structs for api::Session operations.
//
// Each request wraps the underlying subsystem's option type plus the handle
// of the session model it applies to. AnyRequest is the envelope: one
// variant over every request kind plus a target spec and per-slot
// scheduling options — the one shape every evaluation travels in
// (Session::call / call_batch / submit) and one wire protocol (api/wire).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "api/executor.hpp"
#include "sim/options.hpp"
#include "support/ids.hpp"
#include "synth/explore.hpp"
#include "synth/from_model.hpp"
#include "synth/pareto.hpp"
#include "synth/strategies.hpp"

namespace spivar::obs {
class TraceContext;
}  // namespace spivar::obs

namespace spivar::api {

/// Handle to a model loaded into a Session. Handles are session-scoped and
/// stay valid until the model is unloaded.
struct SessionModelTag {};
using ModelId = support::Id<SessionModelTag>;

/// Which evaluation a request drives — part of the result-cache key, so two
/// request types with coincidentally equal fingerprints can never collide.
enum class RequestKind : std::uint8_t {
  kSimulate,
  kAnalyze,
  kExplore,
  kPareto,
  kCompare,
};

[[nodiscard]] constexpr const char* to_string(RequestKind kind) noexcept {
  switch (kind) {
    case RequestKind::kSimulate: return "simulate";
    case RequestKind::kAnalyze: return "analyze";
    case RequestKind::kExplore: return "explore";
    case RequestKind::kPareto: return "pareto";
    case RequestKind::kCompare: return "compare";
  }
  return "?";
}

/// Canonical name back to the kind; nullopt for unknown names (the wire
/// codec's frame-header dispatch).
[[nodiscard]] std::optional<RequestKind> parse_request_kind(std::string_view name);

struct SimulateRequest {
  ModelId model;
  sim::SimOptions options{};
  /// Render the ASCII activity timeline into SimulateResponse::timeline
  /// (forces trace recording).
  bool render_timeline = false;
};

/// Which analysis passes to run; all on by default.
struct AnalyzeRequest {
  ModelId model;
  bool deadlock = true;
  bool buffers = true;
  bool structure = true;
  bool timing = true;
  /// Timing: charge each process's worst reconfiguration latency once.
  bool include_reconfiguration = false;
};

struct ExploreRequest {
  ModelId model;
  synth::ExploreOptions options{};
  /// How model entities become synthesis elements. When absent, the model's
  /// registry default applies (curated builtins pick the granularity their
  /// library was calibrated for).
  std::optional<synth::ProblemOptions> problem;
  /// Implementation library override. When absent, the builtin's curated
  /// library is used, or a deterministic synthetic library derived from the
  /// model (process granularity) for models without one.
  std::optional<synth::ImplLibrary> library;
};

struct ParetoRequest {
  ModelId model;
  synth::ParetoOptions options{};
  std::optional<synth::ProblemOptions> problem;
  std::optional<synth::ImplLibrary> library;
};

/// Runs a subset of the five synthesis strategies (paper §5, Table 1) over
/// one model and ranks the outcomes — the Table 1 reproduction as one call.
struct CompareRequest {
  ModelId model;
  /// Strategy subset, in presentation order; empty runs all five.
  std::vector<synth::StrategyKind> strategies;
  synth::ExploreOptions options{};
  /// Order-sensitive baselines (serialized, incremental): try every
  /// application order up to `max_orders` and keep the best outcome per
  /// strategy (the spread is reported); identity order only when false.
  bool all_orders = false;
  /// Permutation cap when `all_orders` (orders grow factorially).
  std::size_t max_orders = 24;
  /// Ranking objective chain for the system rows, applied lexicographically
  /// after the feasibility split. Empty ranks by total cost only (Table 1's
  /// classic ordering, stable on ties); e.g. {kTotalCost,
  /// kWorstUtilization, kDesignTime} breaks cost ties by processor headroom,
  /// then design time.
  std::vector<synth::RankObjective> objectives;
  std::optional<synth::ProblemOptions> problem;
  std::optional<synth::ImplLibrary> library;
};

/// The evaluation a request type drives (the cache key's kind column).
[[nodiscard]] constexpr RequestKind kind_of(const SimulateRequest&) noexcept {
  return RequestKind::kSimulate;
}
[[nodiscard]] constexpr RequestKind kind_of(const AnalyzeRequest&) noexcept {
  return RequestKind::kAnalyze;
}
[[nodiscard]] constexpr RequestKind kind_of(const ExploreRequest&) noexcept {
  return RequestKind::kExplore;
}
[[nodiscard]] constexpr RequestKind kind_of(const ParetoRequest&) noexcept {
  return RequestKind::kPareto;
}
[[nodiscard]] constexpr RequestKind kind_of(const CompareRequest&) noexcept {
  return RequestKind::kCompare;
}

// --- the v5 envelope ---------------------------------------------------------

/// One alternative per evaluation kind — the payload of AnyRequest.
using RequestPayload =
    std::variant<SimulateRequest, AnalyzeRequest, ExploreRequest, ParetoRequest, CompareRequest>;

/// The unified request envelope: any evaluation kind, an optional target
/// spec, and per-slot scheduling options — the one shape Session::call /
/// call_batch / submit and the wire protocol speak.
struct AnyRequest {
  RequestPayload payload;

  /// Optional model spec (builtin name or .spit path) resolved at dispatch
  /// through the session's tombstone-aware target cache; when set it
  /// overrides the payload's model handle. This is how wire clients name
  /// models without ever holding store handles.
  std::string target;
  /// `--opt key=value` assignments applied when `target` names a builtin
  /// (same rules as SpecCache::resolve; rejected for non-builtin targets).
  std::vector<std::string> target_options;

  /// Per-slot scheduling: call_batch and submit honor priority and deadline
  /// for this request's slot (EDF within a priority band, see SubmitOptions).
  SubmitOptions options;

  /// Observability context minted at the wire/session boundary (see
  /// obs/trace.hpp). Session-local: never serialized by the wire codec and
  /// never part of the request fingerprint — two requests differing only in
  /// trace identity are the same cache entry. Null = untraced.
  std::shared_ptr<obs::TraceContext> trace;
};

/// The payload's evaluation kind / model handle — visitors over the
/// variant, so envelope code never switch-cases by hand.
[[nodiscard]] RequestKind kind_of(const AnyRequest& request) noexcept;
[[nodiscard]] ModelId model_of(const RequestPayload& payload) noexcept;
/// Points the payload at `model` (what target resolution writes back).
void set_model(RequestPayload& payload, ModelId model) noexcept;

// --- canonical request fingerprints ------------------------------------------
//
// The request column of the result-cache key: a 64-bit FNV-1a digest of the
// values the payload's wire description lists (its describe() in wire.cpp,
// the one list of its fields that also encodes and decodes it), hashed
// value by value in frame order. The model handle, target and scheduling
// options are envelope lines, not payload lines, so they never reach the
// key (the cache key carries the model's content identity separately).
// Order stays significant where the frame keeps it (objective chains,
// strategy presentation order); a library lists its elements in name order.
// One canonicalization: duplicate compare strategies add no row, so they
// collapse. A typed request converts to RequestPayload. Defined in wire.cpp.

[[nodiscard]] std::uint64_t fingerprint(const RequestPayload& payload);
[[nodiscard]] std::uint64_t fingerprint(const AnyRequest& request);

}  // namespace spivar::api
