#include "api/session.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <optional>
#include <type_traits>
#include <utility>
#include <variant>

#include "analysis/buffer_bounds.hpp"
#include "analysis/deadlock.hpp"
#include "analysis/structure.hpp"
#include "analysis/timing.hpp"
#include "api/detail.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"
#include "sim/timeline.hpp"
#include "spi/dot.hpp"
#include "spi/textio.hpp"
#include "spi/validate.hpp"
#include "variant/dot.hpp"
#include "variant/textio.hpp"
#include "variant/validate.hpp"

namespace spivar::api {

using detail::empty_problem_message;
using detail::guarded;
using detail::problem_has_elements;
using detail::uncached;
using detail::unknown_model;

namespace {

std::vector<std::string> process_names(const spi::Graph& graph,
                                       const std::vector<support::ProcessId>& ids) {
  std::vector<std::string> names;
  names.reserve(ids.size());
  for (auto pid : ids) names.push_back(graph.process(pid).name);
  return names;
}

// --- snapshot evaluation -----------------------------------------------------
//
// Each eval_* evaluates one immutable StoreEntry. eval_any dispatches
// envelope payloads to them against a captured snapshot, so no evaluation
// path ever touches Session state.

Result<SimulateResponse> eval_simulate(const StoreEntry& entry, const SimulateRequest& request) {
  return guarded<SimulateResponse>([&]() -> Result<SimulateResponse> {
    const spi::Graph& graph = entry.model().graph();
    sim::SimOptions options = request.options;
    if (request.render_timeline) options.record_trace = true;

    // Interface-aware simulation when the model carries variant structure.
    sim::SimResult result = entry.model().interface_count() > 0
                                ? sim::Simulator{entry.model(), options}.run()
                                : sim::Simulator{graph, options}.run();

    SimulateResponse response;
    response.model = graph.name();
    response.result = std::move(result);
    for (auto pid : graph.process_ids()) {
      const auto& stats = response.result.process(pid);
      response.processes.push_back({.name = graph.process(pid).name,
                                    .firings = stats.firings,
                                    .busy = stats.busy,
                                    .reconfigurations = stats.reconfigurations});
    }
    for (auto cid : graph.channel_ids()) {
      const auto& stats = response.result.channel(cid);
      response.channels.push_back({.name = graph.channel(cid).name,
                                   .produced = stats.produced,
                                   .consumed = stats.consumed,
                                   .occupancy = stats.occupancy,
                                   .max_occupancy = stats.max_occupancy});
    }
    if (request.render_timeline) {
      response.timeline = sim::render_timeline(graph, response.result);
    }
    return Result<SimulateResponse>::success(std::move(response));
  });
}

Result<ExploreResponse> eval_explore(const StoreEntry& entry, const ExploreRequest& request) {
  return guarded<ExploreResponse>([&]() -> Result<ExploreResponse> {
    const auto setup = resolve_setup(entry, request.problem, request.library);
    if (!problem_has_elements(setup->problem)) {
      return Result<ExploreResponse>::failure(
          diag::kEmptyProblem, empty_problem_message(entry.model().graph().name()));
    }
    ExploreResponse response{
        .model = entry.model().graph().name(),
        .result = synth::explore(setup->library, setup->problem.apps, request.options),
        .problem = setup->problem.name,
        .applications = setup->problem.apps.size(),
        .elements = setup->problem.element_union().size(),
        .library_origin = setup->library_origin,
    };
    return Result<ExploreResponse>::success(std::move(response));
  });
}

Result<ParetoResponse> eval_pareto(const StoreEntry& entry, const ParetoRequest& request) {
  return guarded<ParetoResponse>([&]() -> Result<ParetoResponse> {
    const auto setup = resolve_setup(entry, request.problem, request.library);
    if (!problem_has_elements(setup->problem)) {
      return Result<ParetoResponse>::failure(
          diag::kEmptyProblem, empty_problem_message(entry.model().graph().name()));
    }
    ParetoResponse response{
        .model = entry.model().graph().name(),
        .points = synth::pareto_front(setup->library, setup->problem.apps, request.options),
        .applications = setup->problem.apps.size(),
        .library_origin = setup->library_origin,
    };
    return Result<ParetoResponse>::success(std::move(response));
  });
}

Result<AnalyzeResponse> eval_analyze(const StoreEntry& entry, const AnalyzeRequest& request) {
  return guarded<AnalyzeResponse>([&]() -> Result<AnalyzeResponse> {
    const spi::Graph& graph = entry.model().graph();
    AnalyzeResponse response;
    response.model = graph.name();
    response.passes = {.deadlock = request.deadlock,
                       .buffers = request.buffers,
                       .structure = request.structure,
                       .timing = request.timing,
                       .include_reconfiguration = request.include_reconfiguration};

    if (request.deadlock) {
      for (const auto& d : analysis::find_structural_deadlocks(graph)) {
        response.deadlocks.push_back({.cycle = process_names(graph, d.cycle),
                                      .initial_tokens = d.initial_tokens,
                                      .required_tokens = d.required_tokens,
                                      .description = d.describe(graph)});
      }
    }
    if (request.buffers) response.buffer_flows = analysis::analyze_buffers(graph);
    if (request.timing) {
      response.latency_checks =
          analysis::check_latency_constraints(graph, request.include_reconfiguration);
    }
    if (request.structure) {
      response.structure.acyclic = analysis::is_acyclic(graph);
      response.structure.sources = process_names(graph, analysis::source_processes(graph));
      response.structure.sinks = process_names(graph, analysis::sink_processes(graph));
      response.structure.dead = process_names(graph, analysis::dead_processes(graph));
      response.structure.components = analysis::weak_components(graph).size();
    }
    return Result<AnalyzeResponse>::success(std::move(response));
  });
}

}  // namespace

// --- construction ------------------------------------------------------------

Session::Session() : Session(nullptr, nullptr) {}

Session::Session(std::shared_ptr<Executor> executor) : Session(nullptr, std::move(executor)) {}

Session::Session(std::shared_ptr<ModelStore> store, std::shared_ptr<Executor> executor)
    : store_(std::move(store)), executor_(std::move(executor)) {
  if (!store_) store_ = std::make_shared<ModelStore>();
  if (!executor_) executor_ = std::make_shared<SerialExecutor>();
  targets_ = std::make_shared<TargetCache>(store_);
}

// --- tenant binding ----------------------------------------------------------

void Session::bind_tenant(std::shared_ptr<StoreView> view,
                          std::shared_ptr<AdmissionController> admission) {
  view_ = std::move(view);
  admission_ = std::move(admission);
  tenant_ = view_ ? view_->tenant() : TenantContext{};
  // Envelope targets must load under the tenant too — a spec resolved by a
  // bound session issues a tenant-owned, quota-checked, salted handle.
  std::lock_guard lock{targets_->mutex};
  targets_->specs.bind_view(view_);
}

// --- loading (forwarded to the store, via the tenant view when bound) --------

Result<ModelInfo> Session::load(LoadRequest request) {
  return view_ ? view_->load(std::move(request)) : store_->load(std::move(request));
}

UnloadStatus Session::unload(ModelId id) {
  return view_ ? view_->unload(id) : store_->unload(id);
}

Result<ModelInfo> Session::resolve(const std::string& spec,
                                   const std::vector<std::string>& options) {
  std::lock_guard lock{targets_->mutex};
  return targets_->specs.resolve(spec, options);
}

std::vector<ModelId> Session::resolved_handles(const std::string& spec) const {
  std::lock_guard lock{targets_->mutex};
  return targets_->specs.handles(spec);
}

// --- result caching ----------------------------------------------------------

std::shared_ptr<ResultCache> Session::enable_cache(CacheConfig config) {
  return store_->enable_cache(config);
}

std::optional<CacheStats> Session::cache_stats() const { return store_->cache_stats(); }

// --- introspection ----------------------------------------------------------

std::vector<ModelInfo> Session::models() const {
  return view_ ? view_->models() : store_->models();
}

Result<ModelInfo> Session::info(ModelId id) const {
  return view_ ? view_->info(id) : store_->info(id);
}

std::vector<std::string> Session::builtins() { return builtin_names(); }

// --- model accessors ---------------------------------------------------------

ModelStore::Snapshot Session::owned_snapshot(ModelId id) const {
  // A bound session only sees ids its own view issued — a raw handle guessed
  // (or leaked) from another tenant fails exactly like an unknown model,
  // never disclosing that it exists.
  if (view_ && !view_->owns(id)) return nullptr;
  return store_->find(id);
}

namespace {

/// Runs `fn` over the snapshot's model inside the no-throw boundary; a null
/// snapshot is the unknown-model failure.
template <typename T, typename Fn>
Result<T> inspect(const ModelStore::Snapshot& snapshot, ModelId id, Fn&& fn) {
  if (!snapshot) return unknown_model<T>(id);
  return guarded<T>([&] { return Result<T>::success(fn(snapshot->model())); });
}

}  // namespace

Result<ValidateResponse> Session::validate(ModelId id) const {
  return inspect<ValidateResponse>(owned_snapshot(id), id, [](const variant::VariantModel& model) {
    // The variant pass includes the core graph pass with the
    // mutual-exclusivity oracle.
    return ValidateResponse{.model = model.graph().name(),
                            .findings = model.interface_count() > 0
                                            ? variant::validate_variants(model)
                                            : spi::validate(model.graph())};
  });
}

Result<spi::ModelStatistics> Session::stats(ModelId id) const {
  return inspect<spi::ModelStatistics>(
      owned_snapshot(id), id,
      [](const variant::VariantModel& model) { return spi::collect_statistics(model.graph()); });
}

Result<std::string> Session::dot(ModelId id) const {
  return inspect<std::string>(owned_snapshot(id), id, [](const variant::VariantModel& model) {
    return model.interface_count() > 0 ? variant::to_dot(model) : spi::to_dot(model.graph());
  });
}

Result<std::string> Session::write_text(ModelId id) const {
  // variant::write_text appends the versioned `variants v1` section for
  // models with interfaces, so variant structure is no longer silently
  // dropped on save; flat models keep emitting plain graph text.
  return inspect<std::string>(owned_snapshot(id), id, [](const variant::VariantModel& model) {
    return variant::write_text(model);
  });
}

// --- the per-kind endpoints: thin wrappers over call() ----------------------

namespace {

/// Wraps a typed request in an envelope, evaluates it through Session::call
/// and unwraps the typed alternative, keeping diagnostics (failure lists and
/// success notes) intact.
template <typename Response, typename Request>
Result<Response> call_typed(const Session& session, const Request& request) {
  Result<AnyResponse> result = session.call(AnyRequest{.payload = request});
  if (!result.ok()) return Result<Response>::failure(result.diagnostics());
  support::DiagnosticList notes = result.diagnostics();
  return Result<Response>::success(std::get<Response>(std::move(result).value()),
                                   std::move(notes));
}

}  // namespace

Result<AnalyzeResponse> Session::analyze(const AnalyzeRequest& request) const {
  return call_typed<AnalyzeResponse>(*this, request);
}

Result<SimulateResponse> Session::simulate(const SimulateRequest& request) const {
  return call_typed<SimulateResponse>(*this, request);
}

Result<ExploreResponse> Session::explore(const ExploreRequest& request) const {
  return call_typed<ExploreResponse>(*this, request);
}

Result<ParetoResponse> Session::pareto(const ParetoRequest& request) const {
  return call_typed<ParetoResponse>(*this, request);
}

Result<CompareResponse> Session::compare(const CompareRequest& request) const {
  return call_typed<CompareResponse>(*this, request);
}

// --- the unified envelope ----------------------------------------------------

namespace {

/// Lifts a typed Result into the envelope's Result<AnyResponse>, keeping
/// diagnostics (failure lists and success notes) intact.
template <typename Response>
Result<AnyResponse> to_any(Result<Response> result) {
  if (!result.ok()) return Result<AnyResponse>::failure(result.diagnostics());
  support::DiagnosticList notes = result.diagnostics();
  return Result<AnyResponse>::success(AnyResponse{std::move(result).value()}, std::move(notes));
}

/// Evaluates one resolved payload against a captured snapshot through the
/// result-cache seam — where every entry point ends, which is what makes
/// their results (and cache keys) identical. `executor` powers compare's
/// nested strategy fan-out (raw pointer: see Session::submit).
ResultCache::Value eval_any(const std::shared_ptr<ResultCache>& cache, const StoreEntry& entry,
                            const RequestPayload& payload, Executor* executor) {
  return detail::with_cache(cache, entry, payload, [&] {
    return std::visit(
        [&](const auto& request) -> Result<AnyResponse> {
          using Request = std::decay_t<decltype(request)>;
          if constexpr (std::is_same_v<Request, CompareRequest>) {
            return to_any(detail::eval_compare(entry, request, *executor));
          } else if constexpr (std::is_same_v<Request, SimulateRequest>) {
            return to_any(eval_simulate(entry, request));
          } else if constexpr (std::is_same_v<Request, AnalyzeRequest>) {
            return to_any(eval_analyze(entry, request));
          } else if constexpr (std::is_same_v<Request, ExploreRequest>) {
            return to_any(eval_explore(entry, request));
          } else {
            static_assert(std::is_same_v<Request, ParetoRequest>);
            return to_any(eval_pareto(entry, request));
          }
        },
        payload);
  });
}

}  // namespace

Result<ModelId> Session::resolve_target(const AnyRequest& request) const {
  if (request.target.empty()) {
    if (!request.target_options.empty()) {
      return Result<ModelId>::failure(diag::kBadOption,
                                      "envelope target options require a target spec");
    }
    const ModelId id = model_of(request.payload);
    // Tenant ownership, exactly as owned_snapshot() checks it.
    if (view_ && !view_->owns(id)) return unknown_model<ModelId>(id);
    return Result<ModelId>::success(id);
  }
  std::lock_guard lock{targets_->mutex};
  Result<ModelInfo> resolved = targets_->specs.resolve(request.target, request.target_options);
  if (!resolved.ok()) return Result<ModelId>::failure(resolved.diagnostics());
  return Result<ModelId>::success(resolved.value().id);
}

std::optional<AdmissionDecision> Session::shed() const {
  if (!admission_) return std::nullopt;
  const AdmissionDecision decision = admission_->admit(executor_->stats());
  if (decision.admitted) return std::nullopt;
  return decision;
}

namespace {

/// The typed shed reply: diag::kOverload plus a parseable retry-after hint
/// ("retry-after-ms N") so clients can back off without guessing.
Result<AnyResponse> overload_failure(const AdmissionDecision& decision) {
  char detail[128];
  std::snprintf(detail, sizeof(detail),
                "server overloaded: projected deadline-miss rate %.3f exceeds the bound; "
                "retry-after-ms %lld",
                decision.projected_miss_rate,
                static_cast<long long>(decision.retry_after.count()));
  return Result<AnyResponse>::failure(diag::kOverload, detail);
}

}  // namespace

Result<AnyResponse> Session::call(const AnyRequest& request) const {
  if (const auto decision = shed()) return overload_failure(*decision);
  const Result<ModelId> target = resolve_target(request);
  if (!target.ok()) return Result<AnyResponse>::failure(target.diagnostics());
  const ModelStore::Snapshot snapshot = store_->find(target.value());
  if (!snapshot) return unknown_model<AnyResponse>(target.value());
  // Inline calls evaluate on this thread, so the trace (if the envelope
  // carries one) installs here; no queue-wait span on this path.
  obs::TraceScope scope{request.trace.get()};
  if (request.target.empty()) {
    return *eval_any(store_->cache(), *snapshot, request.payload, executor_.get());
  }
  RequestPayload payload = request.payload;  // point it at the resolved target
  set_model(payload, target.value());
  return *eval_any(store_->cache(), *snapshot, payload, executor_.get());
}

// --- batches: call_batch and submit ------------------------------------------

namespace {

/// One envelope slot after submission-time resolution: the payload pointed
/// at its model, the snapshot it will evaluate (null when resolution or
/// lookup failed — `failure` then carries what the slot lands with), and
/// the slot's scheduling options.
struct PreparedSlot {
  RequestPayload payload;
  ModelStore::Snapshot snapshot;
  std::optional<support::DiagnosticList> failure;
  SubmitOptions options;
  /// The envelope's trace, carried onto the executor task so the queue-wait
  /// span and the evaluation seams record against it. Null = untraced.
  std::shared_ptr<obs::TraceContext> trace;
};

/// Resolves every envelope's target and snapshot at submission time — a
/// batch evaluates the store as of submission, so a concurrent unload (or
/// session move/destruction) cannot touch a slot. Takes the requests by
/// value so submit moves payloads through; call_batch pays its one copy
/// here and none later.
template <typename Resolve>
std::vector<PreparedSlot> prepare(const ModelStore& store, std::vector<AnyRequest> requests,
                                  Resolve&& resolve) {
  std::vector<PreparedSlot> slots;
  slots.reserve(requests.size());
  for (AnyRequest& request : requests) {
    const Result<ModelId> target = resolve(request);  // reads the request: resolve before moving
    PreparedSlot slot{.payload = std::move(request.payload), .options = request.options,
                      .trace = std::move(request.trace)};
    if (!target.ok()) {
      slot.failure = target.diagnostics();
    } else {
      set_model(slot.payload, target.value());
      slot.snapshot = store.find(target.value());
    }
    slots.push_back(std::move(slot));
  }
  return slots;
}

/// The one slot body behind call_batch and submit's executor tasks: cancel
/// check (streaming batches only — call_batch passes no state), then the
/// resolution failure, then unknown model, then the evaluation.
ResultCache::Value run_slot(const PreparedSlot& slot, std::size_t index,
                            const detail::BatchState* state,
                            const std::shared_ptr<ResultCache>& cache, Executor* executor) {
  if (slot.trace) slot.trace->end_queue_wait();
  obs::TraceScope scope{slot.trace.get()};
  if (state != nullptr && state->cancel_requested()) {
    return uncached(Result<AnyResponse>::failure(detail::cancelled_diagnostics(index)));
  }
  if (slot.failure) return uncached(Result<AnyResponse>::failure(*slot.failure));
  if (!slot.snapshot) return uncached(unknown_model<AnyResponse>(model_of(slot.payload)));
  return eval_any(cache, *slot.snapshot, slot.payload, executor);
}

/// submit's inline probe of the memory tier, on the submitting thread (no
/// disk I/O): the cached reply on a hit, recorded as the slot's lookup and
/// its cache-probe span. A miss records nothing; the slot's executor task
/// looks up through with_cache as any evaluation does, which counts the miss
/// once and hits an entry a duplicate slot queued ahead of it inserted
/// meanwhile. Slots that failed resolution or are not cached are not probed.
ResultCache::Value probe_memory(const PreparedSlot& slot,
                                const std::shared_ptr<ResultCache>& cache) {
  if (!slot.snapshot) return nullptr;
  const std::optional<ResultCache::Key> key = detail::cache_key(cache, *slot.snapshot, slot.payload);
  if (!key) return nullptr;
  const auto started = std::chrono::steady_clock::now();
  ResultCache::Value hit = cache->find_hit(*key, slot.snapshot->tenant_tag());
  if (hit && slot.trace) {
    slot.trace->add_span(obs::SpanKind::kCacheProbe, started, std::chrono::steady_clock::now());
  }
  return hit;
}

}  // namespace

BatchHandle Session::submit(std::vector<AnyRequest> requests, SlotCallback on_slot) const {
  auto state = std::make_shared<detail::BatchState>(requests.size(), std::move(on_slot));
  if (const auto decision = shed()) {
    // Shed before submission: every slot lands with the typed overload
    // failure and the executor never sees the work — queueing it anyway is
    // exactly how an overloaded tail gets worse.
    for (std::size_t i = 0; i < requests.size(); ++i) {
      state->deliver(i, overload_failure(*decision));
    }
    return make_batch_handle(std::move(state), executor_);
  }
  const std::shared_ptr<ResultCache> cache = store_->cache();
  // Each compare slot fans its strategy jobs across the same executor; the
  // self-scheduling pool lets the slot's thread help drain its own jobs, so
  // nesting cannot deadlock. Deliberately a raw pointer: the executor
  // outlives every queued task (the handle keeps it alive, and the pool
  // destructor drains its queue before joining), while an owning copy here
  // could make a *worker* drop the last reference and self-join the pool.
  Executor* executor = executor_.get();

  // Slots grouped by identical SubmitOptions, in first-appearance order.
  // Each group becomes one executor submission, so priority bands and EDF
  // deadlines hold per slot while slots that agree still share one
  // self-scheduling batch. A task owns its slot (moved in, never copied).
  std::vector<std::pair<SubmitOptions, std::vector<std::function<void()>>>> groups;
  std::vector<PreparedSlot> slots = prepare(*store_, std::move(requests),
                                            [this](const AnyRequest& r) { return resolve_target(r); });
  for (std::size_t i = 0; i < slots.size(); ++i) {
    // A memory-tier hit lands here, before submit returns: no executor task,
    // no queue wait, and the record's frame rides along to on_slot.
    if (const ResultCache::Value hit = probe_memory(slots[i], cache)) {
      state->deliver(i, *hit, hit->frame);
      continue;
    }
    if (slots[i].trace) slots[i].trace->mark_queued();  // queue-wait starts at submission
    const SubmitOptions options = slots[i].options;
    auto group = std::find_if(groups.begin(), groups.end(),
                              [&](const auto& g) { return g.first == options; });
    if (group == groups.end()) {
      groups.emplace_back(options, std::vector<std::function<void()>>{});
      group = std::prev(groups.end());
    }
    group->second.push_back([state, cache, executor, i, slot = std::move(slots[i])] {
      const ResultCache::Value reply = run_slot(slot, i, state.get(), cache, executor);
      state->deliver(i, *reply, reply->frame);
    });
  }
  for (auto& [options, group] : groups) executor_->submit(std::move(group), options);
  return make_batch_handle(std::move(state), executor_);
}

std::vector<Result<AnyResponse>> Session::call_batch(
    const std::vector<AnyRequest>& requests) const {
  // Mixed options need one executor submission per options group so the
  // executor can order them (priority band, then EDF): the streaming path,
  // waited on. Its groups drain on the pool's workers, so prefer uniform
  // options when calling from inside a pool task.
  const bool uniform = std::all_of(requests.begin(), requests.end(), [&](const AnyRequest& r) {
    return r.options == requests.front().options;
  });
  if (!uniform) return submit(requests).wait();

  if (const auto decision = shed()) {
    return std::vector<Result<AnyResponse>>(requests.size(), overload_failure(*decision));
  }
  // Uniform options: the participating run(). The calling thread helps its
  // own batch — safe even from inside a task already on the session's pool
  // — and results move straight out of their slots, with no promise/future
  // machinery and no copies.
  const std::shared_ptr<ResultCache> cache = store_->cache();
  Executor* executor = executor_.get();
  const std::vector<PreparedSlot> slots =
      prepare(*store_, requests, [this](const AnyRequest& r) { return resolve_target(r); });
  std::vector<std::optional<Result<AnyResponse>>> results(slots.size());
  std::vector<std::function<void()>> tasks;
  tasks.reserve(slots.size());
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (slots[i].trace) slots[i].trace->mark_queued();  // queue-wait starts at submission
    tasks.push_back([&results, &slots, &cache, executor, i] {
      results[i].emplace(*run_slot(slots[i], i, nullptr, cache, executor));
    });
  }
  if (!tasks.empty()) executor_->run(std::move(tasks), requests.front().options);

  std::vector<Result<AnyResponse>> out;
  out.reserve(results.size());
  for (auto& result : results) out.push_back(std::move(*result));
  return out;
}

}  // namespace spivar::api
