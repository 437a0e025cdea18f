// api::ResultCache — memoized evaluation results keyed by model content and
// request.
//
// An evaluation is a pure function of the model's content and the request,
// so one key identifies it in both tiers: (StoreEntry::cache_content, request
// kind, canonical request fingerprint) — persist::DiskKey. The fingerprint
// is api::fingerprint (requests.hpp): the payload's wire description,
// hashed value by value, so every field a request carries on the wire is
// in its key. Repeated scenario
// sweeps (order sweeps, seed grids, compare re-runs) return the memoized
// result instead of re-simulating, two loads of the same model content share
// entries, and an unload leaves them in place, so a re-load re-hits.
//
// Each entry is one immutable CachedReply: the envelope's own
// Result<AnyResponse> plus its `response v1` frame, wire::encode(result),
// encoded once when the entry is created. Hits are bit-identical to cold
// evaluations and hand out the shared record, with no copy inside the
// cache; a pipelined server answers a hit by retagging the stored bytes
// (wire::retag) instead of encoding the reply again. The disk tier stores
// the same bytes. The price is memory and one encode per miss. Filled with
// 4096 cold-style simulate replies (fig1, fig2 and sweep/i2v2c2-s7, random
// resolution), the cache holds 15.9 MB, of which the frames are 4.4 MB
// (1039 bytes each on average). An in-process session pays the encode on
// every miss even if nothing reads the frame. Against the same cache
// without stored frames (Release build, 4-vCPU VM, medians of five
// alternating runs): BM_CacheHitSimulate 759 -> 800 ns (a Session::call
// hit still copies the result out of the record), BM_ColdVsWarmSweep/0
// 3.54 -> 3.28 ms and /1 17.8 -> 19.9 µs, all within the host's run-to-run
// spread (722-1248 ns, 3.40-4.77 ms and 17.2-23.7 µs without frames).
//
//   auto store = std::make_shared<api::ModelStore>();
//   store->enable_cache({.capacity = 1024});
//   api::Session session{store};           // every eval path is now fronted
//   session.simulate(request);             // miss: evaluates, inserts
//   session.simulate(request);             // hit: returns the cached result
//
// Admission is *cost-aware*: every entry is charged its measured evaluation
// time, and eviction drops the cheapest entry within a small window at the
// LRU tail (4 entries to start) instead of blindly dropping the least recent
// — a sub-microsecond simulate hit no longer weighs the same as a
// multi-second compare; equal costs evict the least recent. CacheStats
// accounts the held/saved/evicted cost. With CacheConfig::adaptive_window
// the window tunes itself from the observed evicted-cost / saved-cost ratio.
//
// With CacheConfig::persist the cache grows a durable second tier
// (persist::DiskTier) under the same key: inserts write the stored frame
// through to disk, memory misses consult disk and promote on hit, evicted
// entries spill down. Content keys survive restarts, so a restarted process
// loading the same models re-hits results computed by an earlier life — see
// persist/disk_tier.hpp for the on-disk contract.
//
// Concurrency contract:
//   * find/insert/clear/stats are safe from any thread — the cache is
//     sharded (per-shard mutex + LRU list), so concurrent batch workers do
//     not serialize on one lock. A memory hit takes one shard mutex and one
//     reference count. find_hit never touches the disk, so it is safe on a
//     latency-critical thread (Session::submit probes with it inline).
//   * Entries cannot go stale: a model's content never changes under its
//     key, so loads and unloads need no cache action.
//   * Two threads missing on the same key both evaluate and both insert;
//     results are deterministic, so the duplicate insert is benign.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "api/requests.hpp"
#include "api/responses.hpp"
#include "api/result.hpp"
#include "persist/persist.hpp"

namespace spivar::persist {
class DiskTier;
}  // namespace spivar::persist

namespace spivar::api {

struct CacheConfig {
  /// Maximum cached results across all shards; at least one per shard.
  std::size_t capacity = 1024;
  /// Independent LRU shards (each with its own lock); clamped to >= 1.
  std::size_t shards = 8;
  /// Adaptive cost-window tuning. An eviction examines the 4 least recent
  /// entries and drops the *cheapest* (measured eval time), so a 624 ns
  /// simulate result can never push a multi-second compare out of the
  /// cache. With this set, every 32 evictions the cache compares the average
  /// cost an eviction throws away against the average cost a hit saves,
  /// widening the window (×2, up to 64) when evictions are throwing away
  /// more than hits recover and shrinking it (÷2, down to 1: plain recency)
  /// when the workload's hits dwarf its evictions.
  bool adaptive_window = false;
  /// When set, attaches a persistent second tier (persist::DiskTier) under
  /// the configured directory: in-memory misses consult disk and promote on
  /// hit, inserts write through, evicted entries spill down — so a restarted
  /// process re-hits results computed by an earlier life (keys are content
  /// fingerprints, not store ids). A directory that cannot be provisioned
  /// disables the tier with a diagnostic; the memory tier is unaffected.
  /// Spills follow the tier's fsync policy. Under FsyncPolicy::kNever,
  /// write-through and eviction spills drain through a bounded queue on a
  /// background thread, so the request path does not pay the tier's I/O
  /// (~85 µs per insert) in the caller's thread; drain_spills() waits for
  /// the queue. Under kAlways every spill runs in the inserting thread: an
  /// insert returning implies its entry is on disk (fsync-per-write
  /// durability is meaningless from a lossy async queue).
  std::optional<persist::PersistConfig> persist;
  /// Bounded async spill queue capacity: an enqueue beyond it *drops* the
  /// spill (counted in CacheStats::disk_dropped_spills) instead of blocking
  /// the request path or growing without bound — the entry stays served
  /// from memory and rewrites on its next insert or eviction. Clamped to
  /// >= 1.
  std::size_t spill_queue = 1024;
};

/// Monotonic counters plus the current fill — one consistent snapshot per
/// call (see ResultCache::stats), rendered by the CLI's `cache-stats`.
/// The `*_cost_us` columns account for the measured evaluation time each
/// entry was charged on insert: how much compute the cache currently holds,
/// how much hits have saved, and how much evictions threw away.
struct CacheStats {
  std::uint64_t hits = 0;       ///< lookups the memory tier served
  std::uint64_t misses = 0;     ///< memory-tier misses, disk hits included
  std::uint64_t evictions = 0;  ///< memory entries dropped for capacity (LRU or tenant cap)
  std::size_t entries = 0;      ///< currently cached results
  std::size_t capacity = 0;
  std::uint64_t cached_cost_us = 0;   ///< summed eval cost of current entries
  std::uint64_t saved_cost_us = 0;    ///< eval cost returned from hits (RAM + disk)
  std::uint64_t evicted_cost_us = 0;  ///< eval cost dropped by eviction

  /// Cost-window tuning: the window currently in effect and how many times
  /// adaptive tuning has changed it (0 adaptations with adaptive off).
  std::size_t cost_window = 0;
  std::uint64_t window_adaptations = 0;

  /// Persistent tier (all zero when `persistent` is false).
  bool persistent = false;
  std::uint64_t disk_hits = 0;      ///< memory misses served from disk
  std::uint64_t disk_misses = 0;    ///< memory misses that missed disk too
  std::uint64_t disk_spills = 0;    ///< entries written to disk (write-through + evict)
  std::uint64_t disk_promotes = 0;  ///< disk hits decoded back into the memory tier
  std::uint64_t disk_skipped = 0;   ///< corrupt/stale disk entries skipped + compacted
  std::uint64_t disk_evictions = 0; ///< disk entries deleted for capacity_bytes
  std::size_t disk_entries = 0;     ///< entry files currently on disk
  std::uint64_t disk_bytes = 0;     ///< bytes those files occupy
  std::uint64_t disk_capacity_bytes = 0;
  /// Async spill queue (zero/false when spills are synchronous).
  bool disk_async = false;            ///< spills drain on a background thread
  std::size_t disk_queue_depth = 0;   ///< spills currently queued
  std::size_t disk_queue_capacity = 0;
  std::uint64_t disk_dropped_spills = 0;  ///< spills dropped at a full queue

  [[nodiscard]] double hit_rate() const noexcept {
    const std::uint64_t lookups = hits + misses;
    return lookups == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(lookups);
  }
};

/// Per-tenant slice of the cache counters (see ResultCache::tenant_stats).
/// `hits` counts lookups served from either tier, `misses` lookups that
/// fell through to evaluation — the served/evaluated split a tenant cares
/// about, not the global memory/disk tier split.
struct TenantCacheStats {
  std::uint32_t tag = 0;          ///< tenant tag (0 = default tenant)
  std::uint64_t hits = 0;         ///< lookups served (memory or disk)
  std::uint64_t misses = 0;       ///< lookups that evaluated
  std::uint64_t evictions = 0;    ///< this tenant's entries dropped for capacity
  std::size_t entries = 0;        ///< entries currently held
  std::size_t cap = 0;            ///< entry cap (0 = unlimited)

  [[nodiscard]] double hit_rate() const noexcept {
    const std::uint64_t lookups = hits + misses;
    return lookups == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(lookups);
  }
};

/// One memoized evaluation, immutable once built: the Result itself plus
/// `frame`, its `response v1` frame (wire::encode of the result), encoded
/// once when the entry is created. Both tiers hold these bytes. A reply
/// that never went through the cache (no cache, or a model without content
/// identity) carries an empty frame.
struct CachedReply : Result<AnyResponse> {
  std::string frame;
};

class ResultCache {
 public:
  /// The one key of both tiers: StoreEntry::cache_content, the numeric
  /// RequestKind and the canonical request fingerprint.
  using Key = persist::DiskKey;
  /// A cached reply; shared by the memory tier, queued spills and hits.
  using Value = std::shared_ptr<const CachedReply>;

  /// `sink` is where the persistent tier (when configured) reports skipped
  /// entries and I/O trouble; empty uses stderr. It is unused without
  /// CacheConfig::persist.
  explicit ResultCache(CacheConfig config = {}, persist::DiagnosticSink sink = {});
  ~ResultCache();

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// The key of `payload` evaluated over a model whose cache content is
  /// `content`.
  [[nodiscard]] static Key key_of(std::uint64_t content, const RequestPayload& payload);

  /// The cached reply for `key` — from memory, else from disk (promoted
  /// into memory) — or nullptr on a miss. The lookup counts in tenant
  /// `tenant`'s row of tenant_stats(); a promoted entry belongs to it.
  [[nodiscard]] Value find(const Key& key, std::uint32_t tenant = 0);

  /// The memory-tier entry for `key`, counted as a hit (globally and in
  /// tenant `tenant`'s row) — or nullptr, counting nothing. It never touches
  /// the disk. A miss is no lookup yet: the caller settles it with find(),
  /// which counts the miss once. Session::submit probes with it inline.
  [[nodiscard]] Value find_hit(const Key& key, std::uint32_t tenant = 0);

  /// Memoizes `result` (success or deterministic failure) under `key` for
  /// tenant `tenant`, charging the entry `cost_us` — its measured evaluation
  /// time, the weight cost-aware eviction protects — and returns the new
  /// record, its frame encoded once here. Replaces any previous entry; when
  /// the shard is full, the cheapest entry within the LRU tail's cost window
  /// is evicted.
  Value insert(const Key& key, Result<AnyResponse> result, std::uint64_t cost_us = 0,
               std::uint32_t tenant = 0);

  /// Empties the memory tier; `include_disk` additionally deletes every
  /// entry file of the persistent tier.
  void clear(bool include_disk = false);

  /// True when a persistent tier is attached and usable.
  [[nodiscard]] bool persistent() const noexcept { return tier_ != nullptr; }

  /// Writes every memory-tier entry that is not yet on disk down to the
  /// persistent tier, then flushes directory metadata. Returns the number
  /// of entries written; 0 without a persistent tier. (Inserts already
  /// write through — this is the admin hook that backfills spills the
  /// bounded async queue dropped and makes `cache persist` an explicit
  /// durability point.)
  std::size_t persist_all();

  /// Blocks until every queued async spill has been written (no-op with
  /// synchronous spills). persist_all() and clear(include_disk) drain
  /// implicitly; tests drain before asserting exact disk counters.
  void drain_spills();

  [[nodiscard]] CacheStats stats() const;

  // --- tenant scoping --------------------------------------------------------
  //
  // Multi-tenant accounting keys on a small per-tenant tag that callers pass
  // with each lookup and insert (the StoreEntry's tag, set by the loading
  // StoreView): set_tenant_cap bounds how many entries a tag may occupy, and
  // tenant_stats() slices the counters per tag. Tag 0 (every pre-tenancy
  // caller) is never capped and never attributed — the default tenant's
  // behavior is bit-identical to a cache that has never heard of tenants.

  /// Caps tenant `tag` at `max_entries` cached results (0 = unlimited).
  /// At the cap, an insert for the tenant evicts the tenant's own least
  /// recent entry first — other tenants' entries are untouchable, which is
  /// what keeps one tenant's eviction storm out of everyone else's hit
  /// rate.
  void set_tenant_cap(std::uint32_t tag, std::size_t max_entries);

  /// Per-tenant counter slices, ascending tag; a tenant appears once capped
  /// or once it has looked anything up. Tag 0 is omitted — the default
  /// tenant reads the global stats().
  [[nodiscard]] std::vector<TenantCacheStats> tenant_stats() const;

 private:
  struct Entry {
    Key key;
    Value value;
    std::uint64_t cost_us = 0;  ///< measured eval time charged on insert
    std::uint32_t tenant = 0;   ///< owning tenant tag
  };

  struct Shard {
    mutable std::mutex mutex;
    /// Front = most recently used; the map indexes into this list.
    std::list<Entry> lru;
    std::unordered_map<Key, std::list<Entry>::iterator, persist::DiskKeyHash> index;
  };

  [[nodiscard]] Shard& shard_of(const Key& key) noexcept {
    return shards_[persist::DiskKeyHash{}(key) % shards_.size()];
  }

  /// The disk half of find(): loads, decodes and promotes `key`
  /// with its frame re-encoded, so bytes an older build wrote never reach
  /// the wire unnormalised; or returns nullptr (absent, or a frame that no
  /// longer decodes — compacted away).
  [[nodiscard]] Value promote(const Key& key, std::uint32_t tenant);
  /// The memory-tier half of insert(): LRU insert and eviction. Returns the
  /// evicted entry (for the caller to spill) when the insert displaced one.
  std::optional<Entry> store_memory(Entry entry);
  /// Removes and returns the cheapest entry among the cost-window least
  /// recently used ones (ties keep the least recent) and ticks the adaptive
  /// window. Call with the shard lock held.
  [[nodiscard]] Entry evict_one(Shard& shard);
  /// The every-32-evictions adaptive cost-window adjustment.
  void adapt_window();
  /// Routes one entry toward the persistent tier (no-op without one):
  /// enqueued for the background drain thread when spills are async,
  /// written in the calling thread otherwise. `only_if_absent` is the spill
  /// path — write-through entries always (re)write.
  void spill(Entry entry, bool only_if_absent);
  /// The synchronous tier write behind spill().
  void spill_now(const Entry& entry, bool only_if_absent);
  /// The background drain loop: pops queued spills and writes them until
  /// stop is flagged *and* the queue is empty (a stopping cache finishes
  /// its writes — the destructor's durability hand-off).
  void drain_loop();

  std::vector<Shard> shards_;
  std::size_t capacity_;  ///< configured total, as reported by stats()
  /// ceil(capacity / shards): sharding rounds the enforced total up by at
  /// most shards-1 so every shard holds at least one entry.
  std::size_t per_shard_capacity_;
  /// LRU-tail entries examined per eviction; atomic because adaptive tuning
  /// rewrites it while shard threads read it.
  std::atomic<std::size_t> cost_window_;
  bool adaptive_window_;
  /// The persistent second tier; null when not configured (or its directory
  /// was unusable). All tier I/O happens *outside* shard locks.
  std::unique_ptr<persist::DiskTier> tier_;

  /// Queued spill work: one entry plus the only_if_absent flag it was
  /// enqueued with. Values are shared_ptrs, so a queued spill keeps its
  /// reply alive (bounded by spill_queue_limit_) even if the memory tier
  /// evicts it meanwhile.
  struct SpillTask {
    Entry entry;
    bool only_if_absent = false;
  };
  bool async_spill_ = false;  ///< tier attached and background drain active
  std::size_t spill_queue_limit_ = 0;
  mutable std::mutex spill_mutex_;
  std::condition_variable spill_cv_;    ///< work available / stop flagged
  std::condition_variable spill_idle_;  ///< queue empty and writer idle
  std::deque<SpillTask> spill_queue_;
  bool spill_stop_ = false;
  bool spill_busy_ = false;  ///< a popped task is being written right now
  std::thread spill_thread_;
  std::atomic<std::uint64_t> dropped_spills_{0};

  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> saved_cost_us_{0};
  std::atomic<std::uint64_t> evicted_cost_us_{0};
  std::atomic<std::uint64_t> disk_promotes_{0};
  std::atomic<std::uint64_t> window_adaptations_{0};

  // --- tenant accounting ------------------------------------------------------
  //
  // Lock order: tenant_mutex_ and the shard mutexes are never held together.
  // Shard-locked code records what happened and the tenant ledger is updated
  // after the shard lock drops; enforce_tenant_cap reads the ledger first,
  // then takes shard locks one at a time to find a victim. The ledger may
  // therefore lag a racing insert by one entry — caps are enforced to ±1
  // under contention, never violated steadily. Tag 0 never touches it.

  struct TenantAccount {
    std::size_t cap = 0;      ///< 0 = unlimited
    std::size_t entries = 0;  ///< entries currently held (ledger copy)
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
  };

  /// Attributes one lookup outcome (served from either tier, or evaluated).
  void note_tenant_lookup(std::uint32_t tag, bool served);
  /// Ledger delta after an insert landed (shard lock already released).
  void note_tenant_insert(std::uint32_t tag);
  /// Ledger delta after one of the tenant's entries was evicted.
  void note_tenant_evicted(std::uint32_t tag);
  /// While `tag` sits at its entry cap, evicts the tenant's own (oldest
  /// found, scanning shard tails) entry and spills it down — making room
  /// for one incoming insert without touching any other tenant's entries.
  void enforce_tenant_cap(std::uint32_t tag);

  mutable std::mutex tenant_mutex_;  ///< guards tenants_
  std::unordered_map<std::uint32_t, TenantAccount> tenants_;
};

}  // namespace spivar::api
