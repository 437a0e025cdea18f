// Umbrella header for the spivar::api layer — the only include front ends
// need.
//
// v10 surface — the AnyRequest envelope is the *only* evaluation path:
// Session::call / call_batch / submit, with the per-kind endpoints as thin
// typed wrappers over call() and no per-kind batch family. The result cache
// is *tiered* (a persistent on-disk second tier that survives process
// restarts) and both tiers share one content key, and the store / session
// stack is *multi-tenant* with lateness-driven overload shedding:
//   * TenantContext / TenantQuota (tenant.hpp) — a tenant's identity (name,
//     runtime tag, restart-stable content salt derived from the name) and
//     its limits (live models, cache entries, in-flight requests). Tag 0 is
//     the default tenant: bit-identical to pre-tenancy behavior everywhere.
//   * StoreView (store_view.hpp) — one tenant's namespace over one shared
//     ModelStore: loads are quota-checked, content-salted, tenant-tagged
//     and recorded as tenant-owned; unload/info/models refuse ids the view
//     never issued (no cross-tenant tombstones); builtin and corpus *names*
//     stay globally loadable while the instantiated models are
//     tenant-scoped.
//   * AdmissionController (admission.hpp) — rolling-window projection of
//     the executor's deadline-miss rate; above the configured bound,
//     Session::call/call_batch/submit shed with a typed diag::kOverload
//     failure carrying a "retry-after-ms N" hint instead of queueing work
//     that would miss anyway. Session::bind_tenant wires both into a
//     session.
//   * AnyRequest / AnyResponse (requests.hpp / responses.hpp) — one
//     std::variant envelope over every evaluation kind (simulate, analyze,
//     explore, pareto, compare) plus an optional target spec (builtin name
//     or .spit path, resolved through a tombstone-aware per-session target
//     cache) and per-slot SubmitOptions{priority, deadline}. ModelInfo
//     carries the model's canonical content fingerprint.
//   * Session::call / call_batch / submit (session.hpp) — one uniform
//     entry point, one heterogeneous blocking batch, one heterogeneous
//     streaming batch (BatchHandle). Every entry point — per-kind
//     endpoints included — sheds under admission, checks tenant
//     ownership, installs the trace and evaluates through one snapshot +
//     result-cache seam, so results and cache entries never depend on the
//     entry point. Batch slots with identical SubmitOptions share one
//     executor submission, so priority bands and EDF deadlines hold per
//     slot.
//   * wire (wire.hpp) — versioned line-oriented codec for the envelope:
//     every AnyRequest/Result<AnyResponse> (error responses included)
//     round-trips bit-identically as a plain-text frame; malformed and
//     old-version frames decode into line-numbered diag::kWireError
//     failures. Plus the service frames (control commands, hellos, info
//     replies) spoken by tools/spivar_serve and `spivar_cli remote`, and
//     read_frame, which a server calls with a byte limit.
//     The persistent cache tier stores these same frames on disk, and each
//     request kind's one description also yields its cache fingerprint
//     (api::fingerprint hashes the values it lists).
//   * ModelStore (store.hpp) — thread-safe, share-by-snapshot model
//     ownership: load(LoadRequest, TenantContext) — the one place each
//     model source is handled — produces immutable
//     `shared_ptr<const StoreEntry>` snapshots (model + registry entry +
//     memoized synthesis setup + memoized content fingerprint, each
//     carrying its id, tenant salt and tenant tag), unload is
//     tombstone-only (UnloadStatus three-way contract) and leaves cached
//     results in place, and any number of sessions attach to one store.
//     enable_cache() attaches the result cache (CacheConfig::persist adds
//     the disk tier).
//   * ResultCache (cache.hpp) — sharded cost-aware LRU whose one key type
//     (persist::DiskKey) serves both tiers: StoreEntry::cache_content (the
//     content fingerprint with the tenant salt, plus the registry name for
//     builtins with a curated library), request kind, canonical request
//     fingerprint. Two loads of the same content share entries and a
//     re-load re-hits; a model with no content identity evaluates
//     uncached. Each entry is one immutable CachedReply: the envelope's
//     Result<AnyResponse> plus its `response v1` frame, encoded once on
//     insert; hits hand out the shared record. Every entry is charged its
//     measured eval time and eviction drops the cheapest entry in the LRU
//     tail's cost window (self-tuning with CacheConfig::adaptive_window).
//     With CacheConfig::persist, inserts write the stored frame through to
//     a persist::DiskTier, memory misses consult disk and promote on hit,
//     and evicted entries spill down;
//     persist_all()/clear(include_disk) are the admin hooks. CacheStats
//     accounts hit/miss/eviction counters, cached/saved/evicted cost, the
//     live cost window, and the disk tier's hits/spills/promotes/skipped/fill.
//   * persist::DiskTier (persist/disk_tier.hpp) — the durable tier itself:
//     one versioned, CRC-checked entry file per (content fingerprint,
//     kind, request fingerprint) key; corrupt or stale entries are skipped
//     with a diagnostic and compacted away, never served.
//   * Session (session.hpp) — a movable view over (store, executor):
//     one load(LoadRequest) for every model source (ModelSpec: registry
//     name with typed options, else a .spit path; ModelText; BuiltModel),
//     resolve() (spec -> handle through the target cache),
//     validate/stats/dot/write_text (variant-aware `variants v1` spit
//     round-trip; tenant-scoped when bound), the per-kind
//     analyze/simulate/explore/pareto/compare wrappers, the envelope
//     call/call_batch/submit, and executor_stats() for deadline telemetry.
//   * Executor (executor.hpp) — SerialExecutor / self-scheduling
//     ThreadPoolExecutor / make_executor(jobs); run() participates in its
//     own batch (nested dispatch is deadlock-free), submit() streams, both
//     take SubmitOptions{priority, deadline} (priority bands drain first,
//     EDF within a band), and stats() reports ExecutorStats{completed,
//     deadline_misses, max_lateness, total_lateness} recorded per task at
//     completion.
//   * SpecCache (spec_cache.hpp) — tombstone-aware spec → handle
//     memoization for front ends chaining commands over one store.
//   * BatchHandle (batch.hpp) — per-slot shared_futures, on_slot streaming
//     callback (with the cached reply's stored frame; memory-tier hits land
//     inside submit, on the submitting thread), wait(), cooperative
//     cancel() (diag::kCancelled); slot tasks capture store snapshots, so
//     handles survive unloads and session moves.
//   * BuiltinOptions (options.hpp) — std::variant of per-model option
//     structs plus parse_builtin_options() for "key=value" assignments.
//   * Result<T> (result.hpp) — value-or-diagnostics; no exception crosses
//     the session boundary.
//   * render() (format.hpp) — stable plain-text rendering of every
//     response type (AnyResponse dispatch included), CacheStats and
//     ExecutorStats.
#pragma once

#include "api/admission.hpp"  // IWYU pragma: export
#include "api/batch.hpp"      // IWYU pragma: export
#include "api/cache.hpp"      // IWYU pragma: export
#include "api/executor.hpp"   // IWYU pragma: export
#include "api/format.hpp"     // IWYU pragma: export
#include "api/options.hpp"    // IWYU pragma: export
#include "api/registry.hpp"   // IWYU pragma: export
#include "api/requests.hpp"   // IWYU pragma: export
#include "api/responses.hpp"  // IWYU pragma: export
#include "api/result.hpp"     // IWYU pragma: export
#include "api/session.hpp"    // IWYU pragma: export
#include "api/spec_cache.hpp" // IWYU pragma: export
#include "api/store.hpp"      // IWYU pragma: export
#include "api/store_view.hpp" // IWYU pragma: export
#include "api/tenant.hpp"     // IWYU pragma: export
#include "api/wire.hpp"       // IWYU pragma: export
#include "persist/disk_tier.hpp"  // IWYU pragma: export
