// api::Session — the unified entry point over the whole pipeline.
//
// A Session is a *view* over a ModelStore plus an execution policy. The
// store owns the models (immutable snapshots, see store.hpp); the session
// exposes every pipeline stage of the paper — validate, analyze, simulate,
// explore, pareto, compare — as uniform request/response operations
// returning Result<T>. No exception escapes a session call: parse errors,
// model errors and unexpected failures surface as diagnostics in the failed
// Result.
//
//   api::Session session;                         // private store, serial
//   auto model = session.load(api::ModelSpec{"fig2"});
//   auto sim = session.simulate({.model = model.value().id});
//
//   auto store = std::make_shared<api::ModelStore>();
//   api::Session a{store};                        // many sessions,
//   api::Session b{store, api::make_executor(4)}; // one model store
//
// Every evaluation travels one path: the AnyRequest envelope. The per-kind
// endpoints wrap their request in one and go through call(); whole scenario
// sets — of any mix of kinds — go through call_batch (blocking) or submit
// (streaming: a BatchHandle with per-slot futures, an on_slot callback, and
// cancel()). Admission, tenant ownership, tracing and the result cache
// therefore behave the same for every entry point. Batch tasks capture
// store snapshots — never the session — so sessions are movable even with
// batches in flight.
//
//   auto slots = session.call_batch({{.payload = api::SimulateRequest{.model = id}},
//                                    {.payload = api::ExploreRequest{.model = id}}});
//   auto& run = std::get<api::SimulateResponse>(slots[0].value());
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "api/admission.hpp"
#include "api/batch.hpp"
#include "api/executor.hpp"
#include "api/options.hpp"
#include "api/registry.hpp"
#include "api/requests.hpp"
#include "api/responses.hpp"
#include "api/result.hpp"
#include "api/spec_cache.hpp"
#include "api/store.hpp"
#include "api/store_view.hpp"
#include "api/tenant.hpp"
#include "spi/statistics.hpp"
#include "variant/model.hpp"

namespace spivar::api {

class Session {
 public:
  /// Private store, serial execution — batches evaluate on the calling
  /// thread.
  Session();
  /// Private store with an injected execution policy (make_executor(jobs)).
  explicit Session(std::shared_ptr<Executor> executor);
  /// Attaches to a shared store: models loaded by any attached session are
  /// visible to all of them, and each session brings its own execution
  /// policy (null falls back to serial).
  explicit Session(std::shared_ptr<ModelStore> store,
                   std::shared_ptr<Executor> executor = nullptr);

  // Copies are deleted (two sessions silently sharing one store should be
  // explicit, via the store constructor). Moves are allowed: batch tasks
  // capture store snapshots, never `this`, so an in-flight batch keeps
  // running across a move. A moved-from session may only be destroyed or
  // assigned to.
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;
  Session(Session&&) noexcept = default;
  Session& operator=(Session&&) noexcept = default;

  [[nodiscard]] const Executor& executor() const noexcept { return *executor_; }
  /// The shared model store; hand it to another Session to shard work.
  [[nodiscard]] const std::shared_ptr<ModelStore>& store() const noexcept { return store_; }

  /// Deadline-miss telemetry of the session's executor: tasks completed,
  /// deadline misses, and worst/summed lateness (see ExecutorStats).
  [[nodiscard]] ExecutorStats executor_stats() const noexcept { return executor_->stats(); }

  // --- tenant binding -------------------------------------------------------

  /// Binds this session to one tenant: every load/unload/enumeration below
  /// routes through `view` (tenant-scoped ids and quotas, salted content
  /// identity — including envelope target resolution), and when `admission`
  /// is set, every evaluation entry point sheds with a typed api-overload
  /// failure carrying a retry-after hint while the projected deadline-miss rate
  /// sits above the controller's bound. Either argument may be null; an
  /// unbound session is the default tenant and behaves exactly as before
  /// tenancy existed. Bind before use, not concurrently with calls.
  void bind_tenant(std::shared_ptr<StoreView> view,
                   std::shared_ptr<AdmissionController> admission = nullptr);

  /// The bound tenant's context; the default context when unbound.
  [[nodiscard]] const TenantContext& tenant() const noexcept { return tenant_; }
  /// The bound tenant view, null when unbound.
  [[nodiscard]] const std::shared_ptr<StoreView>& tenant_view() const noexcept { return view_; }
  /// The bound admission controller, null when none.
  [[nodiscard]] const std::shared_ptr<AdmissionController>& admission() const noexcept {
    return admission_;
  }

  // --- loading (forwarded to the store) -------------------------------------

  /// Loads one model from whichever source `request` names — a registry
  /// name or .spit path with optional typed options (ModelSpec), spit text
  /// (ModelText) or a model built in code (BuiltModel) — through the bound
  /// tenant view, or straight into the store when unbound. A typed option
  /// struct that belongs to a different model fails with diagnostics.
  Result<ModelInfo> load(LoadRequest request);

  /// Resolves a spec (builtin name or .spit path, with optional "key=value"
  /// builtin options) through the session's tombstone-aware target cache —
  /// the same cache AnyRequest::target resolution uses, so a spec resolved
  /// here and a later envelope naming the same target share one handle.
  /// Thread-safe.
  Result<ModelInfo> resolve(const std::string& spec,
                            const std::vector<std::string>& options = {});

  /// Every handle this session's target cache resolved for `spec` (across
  /// all option combinations), without loading — the service front end's
  /// `unload <spec>` support. Thread-safe.
  [[nodiscard]] std::vector<ModelId> resolved_handles(const std::string& spec) const;

  /// Tombstones the model in the store. Returns kUnloaded when this call
  /// removed a live model, kAlreadyUnloaded when the id had been unloaded
  /// before, and kNeverLoaded for ids the store never issued — the three
  /// cases are distinguishable forever because ids are never reused.
  /// In-flight batches that captured the model's snapshot finish unaffected;
  /// cached results stay, keyed by content, for a later load to re-hit.
  UnloadStatus unload(ModelId id);

  // --- result caching --------------------------------------------------------

  /// Enables the store's (model content, request) result cache — every eval path
  /// of every session on this store is fronted from now on. Idempotent;
  /// returns the active cache (see ModelStore::enable_cache).
  std::shared_ptr<ResultCache> enable_cache(CacheConfig config = {});

  /// Hit/miss/eviction counters of the store's cache, or nullopt when
  /// caching is off.
  [[nodiscard]] std::optional<CacheStats> cache_stats() const;

  // --- introspection --------------------------------------------------------

  [[nodiscard]] std::vector<ModelInfo> models() const;
  [[nodiscard]] Result<ModelInfo> info(ModelId id) const;
  [[nodiscard]] static std::vector<std::string> builtins();

  // --- model accessors --------------------------------------------------------
  //
  // A bound session answers these only for ids its tenant view issued; any
  // other id fails with api-unknown-model, the same answer call() gives.

  /// Core graph validation plus the variant pass when the model has
  /// interfaces. Findings (even errors) are the payload.
  [[nodiscard]] Result<ValidateResponse> validate(ModelId id) const;

  [[nodiscard]] Result<spi::ModelStatistics> stats(ModelId id) const;

  /// GraphViz rendering (variant-aware when the model has interfaces).
  [[nodiscard]] Result<std::string> dot(ModelId id) const;

  /// Canonical "spit" text of the model — including the versioned variant
  /// section (clusters, interfaces, selection rules) when the model has
  /// one, so `--opt`-configured variant models round-trip losslessly.
  [[nodiscard]] Result<std::string> write_text(ModelId id) const;

  // --- per-kind endpoints ----------------------------------------------------
  //
  // Typed sugar over call(): each wraps its request in an AnyRequest, calls
  // and unwraps the typed alternative — bit-identical to the envelope, the
  // same cache entries, the same admission and ownership checks.

  [[nodiscard]] Result<AnalyzeResponse> analyze(const AnalyzeRequest& request) const;
  [[nodiscard]] Result<SimulateResponse> simulate(const SimulateRequest& request) const;
  [[nodiscard]] Result<ExploreResponse> explore(const ExploreRequest& request) const;
  [[nodiscard]] Result<ParetoResponse> pareto(const ParetoRequest& request) const;

  /// Runs the requested synthesis strategies (all five when unspecified)
  /// over the model and returns the ranked outcome table — Table 1 of the
  /// paper as one call. Order-sensitive baselines can sweep application
  /// orders; ranking follows the request's objective chain (total cost by
  /// default; see CompareRequest::objectives); strategy runs dispatch
  /// across the session's executor.
  [[nodiscard]] Result<CompareResponse> compare(const CompareRequest& request) const;

  // --- the envelope: the one evaluation path --------------------------------
  //
  // The AnyRequest envelope carries the payload variant, an optional target
  // spec (resolved through a tombstone-aware per-session target cache —
  // wire clients never hold handles), and per-slot SubmitOptions. Every
  // entry point sheds under admission, checks tenant ownership, installs
  // the envelope's trace and evaluates through the snapshot + result-cache
  // seam, so results and cache entries never depend on the entry point.

  /// Evaluates one envelope (target resolved first when set).
  [[nodiscard]] Result<AnyResponse> call(const AnyRequest& request) const;

  /// Heterogeneous blocking batch: every slot evaluates independently
  /// across the executor and the call returns all slots in order,
  /// bit-identical to serial evaluation; one failing slot never aborts the
  /// batch. When every slot has the same SubmitOptions the calling thread
  /// participates in the batch, so a uniform batch is safe from inside a
  /// pool task; mixed options run as submit(...).wait() so priority and
  /// deadline hold per slot.
  [[nodiscard]] std::vector<Result<AnyResponse>> call_batch(
      const std::vector<AnyRequest>& requests) const;

  /// Heterogeneous streaming batch: snapshots resolve at submission (a
  /// concurrent unload cannot touch a slot), slots land through `on_slot`
  /// and the handle's futures, and each slot's SubmitOptions select its
  /// scheduling band — a high-priority simulate overtakes a queued normal
  /// compare from the same batch. Slots with identical options share one
  /// executor submission; each slot's strategy jobs (compare) fan out
  /// across the same executor.
  ///
  /// While it prepares the slots, submit probes the result cache's memory
  /// tier (never the disk) on the calling thread. A hit lands right there:
  /// on_slot fires with the record's stored frame before submit returns,
  /// and the slot's trace gets a cache-probe span but no queue-wait. So
  /// on_slot may run on the caller's thread before the handle exists: it
  /// must not wait on the submitting thread, nor take a lock the caller
  /// holds across submit. The probe records only hits. A miss becomes an
  /// executor task that looks the key up as any evaluation does (memory,
  /// then disk), so it counts its miss once, and a duplicate queued behind
  /// an identical slot hits that slot's insert. Hits never reach the
  /// executor's deadline telemetry, so the admission projection covers only
  /// work the executor runs. shed() still gates first: under overload every
  /// slot, cached or not, gets the typed overload failure, so shed replies
  /// never depend on cache state.
  [[nodiscard]] BatchHandle submit(std::vector<AnyRequest> requests,
                                   SlotCallback on_slot = {}) const;

 private:
  /// Tombstone-aware target-spec memoization behind AnyRequest::target.
  /// Shared-ptr + mutex: sessions stay movable and call()/submit stay safe
  /// from several threads (SpecCache itself is single-threaded).
  struct TargetCache {
    explicit TargetCache(std::shared_ptr<ModelStore> store) : specs(std::move(store)) {}
    std::mutex mutex;
    SpecCache specs;
  };

  /// Resolves the envelope's target spec (when set) into the payload's
  /// model handle; returns the resolution failure otherwise.
  [[nodiscard]] Result<ModelId> resolve_target(const AnyRequest& request) const;

  /// The live snapshot for `id`, or null when the store doesn't hold it or
  /// — for a bound session — the tenant view never issued it.
  [[nodiscard]] ModelStore::Snapshot owned_snapshot(ModelId id) const;

  /// The overload gate at the head of call/call_batch/submit, ahead of any
  /// cache probe: nullopt admits, a decision sheds (the caller turns it into
  /// per-slot failures).
  [[nodiscard]] std::optional<AdmissionDecision> shed() const;

  std::shared_ptr<ModelStore> store_;
  std::shared_ptr<Executor> executor_;
  std::shared_ptr<TargetCache> targets_;

  TenantContext tenant_;  ///< default-constructed until bind_tenant
  std::shared_ptr<StoreView> view_;
  std::shared_ptr<AdmissionController> admission_;
};

}  // namespace spivar::api
