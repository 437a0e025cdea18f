#include "api/cache.hpp"

#include <algorithm>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "api/responses.hpp"
#include "api/wire.hpp"
#include "obs/trace.hpp"
#include "persist/disk_tier.hpp"

namespace spivar::api {

// --- envelope helpers --------------------------------------------------------
//
// Envelope kinds delegate to the payload alternative, so an AnyRequest
// produces exactly the cache key its dedicated endpoint would — mixed-kind
// batches and the per-kind surface share every cached result.

std::optional<RequestKind> parse_request_kind(std::string_view name) {
  if (name == "simulate") return RequestKind::kSimulate;
  if (name == "analyze") return RequestKind::kAnalyze;
  if (name == "explore") return RequestKind::kExplore;
  if (name == "pareto") return RequestKind::kPareto;
  if (name == "compare") return RequestKind::kCompare;
  return std::nullopt;
}

RequestKind kind_of(const AnyRequest& request) noexcept {
  return std::visit([](const auto& payload) { return kind_of(payload); }, request.payload);
}

ModelId model_of(const RequestPayload& payload) noexcept {
  return std::visit([](const auto& request) { return request.model; }, payload);
}

void set_model(RequestPayload& payload, ModelId model) noexcept {
  std::visit([model](auto& request) { request.model = model; }, payload);
}

RequestKind kind_of(const AnyResponse& response) noexcept {
  // Typed dispatch, not index arithmetic: inserting a new alternative into
  // AnyResponse must fail to compile here instead of silently mislabeling
  // shifted indices.
  return std::visit(
      [](const auto& typed) {
        using Response = std::decay_t<decltype(typed)>;
        if constexpr (std::is_same_v<Response, SimulateResponse>) {
          return RequestKind::kSimulate;
        } else if constexpr (std::is_same_v<Response, AnalyzeResponse>) {
          return RequestKind::kAnalyze;
        } else if constexpr (std::is_same_v<Response, ExploreResponse>) {
          return RequestKind::kExplore;
        } else if constexpr (std::is_same_v<Response, ParetoResponse>) {
          return RequestKind::kPareto;
        } else {
          static_assert(std::is_same_v<Response, CompareResponse>);
          return RequestKind::kCompare;
        }
      },
      response);
}

const std::string& model_of(const AnyResponse& response) noexcept {
  return std::visit([](const auto& r) -> const std::string& { return r.model; }, response);
}

// --- ResultCache -------------------------------------------------------------

namespace {

/// LRU-tail entries an eviction examines until adaptive tuning moves it.
constexpr std::size_t kInitialCostWindow = 4;

/// The immutable record of one result: the result plus its v1 frame,
/// encoded here once. The frame lives as long as the entry, so it drops the
/// slack the encoder's appends left (about a third of its allocation).
ResultCache::Value make_record(Result<AnyResponse> result) {
  std::string frame = wire::encode(result);
  frame.shrink_to_fit();
  return std::make_shared<const CachedReply>(CachedReply{std::move(result), std::move(frame)});
}

/// Decodes a disk-tier frame into a cached reply, or nullptr when the frame
/// is not a `kind` result. A failed decode is either a transported *cached
/// failure* (results memoize deterministic failures too) or an undecodable
/// frame; the codec marks the latter with diag::kWireError — a code no eval
/// path emits — so a rotten frame never masquerades as a cached diagnosis.
ResultCache::Value decode_frame(std::string_view frame, RequestKind kind) {
  Result<AnyResponse> result = wire::decode_response(frame);
  const bool usable = result.ok() ? kind_of(result.value()) == kind
                                  : !result.diagnostics().has_code(diag::kWireError);
  if (!usable) return nullptr;
  return make_record(std::move(result));
}

}  // namespace

ResultCache::ResultCache(CacheConfig config, persist::DiagnosticSink sink)
    : shards_(std::max<std::size_t>(config.shards, 1)),
      capacity_(std::max<std::size_t>(config.capacity, 1)),
      per_shard_capacity_(std::max<std::size_t>(
          (capacity_ + shards_.size() - 1) / shards_.size(), 1)),
      cost_window_(kInitialCostWindow),
      adaptive_window_(config.adaptive_window) {
  if (config.persist.has_value()) {
    auto tier = std::make_unique<persist::DiskTier>(*config.persist, std::move(sink));
    // An unusable directory already reported itself through the sink; the
    // cache then runs memory-only rather than failing enable_cache.
    if (tier->ready()) tier_ = std::move(tier);
  }
  // Background spill drain: only with a tier, and never under
  // FsyncPolicy::kAlways — fsync-per-write durability promises the entry is
  // on stable storage when the insert returns, which a queue cannot keep.
  if (tier_ && config.persist->fsync_policy == persist::PersistConfig::FsyncPolicy::kNever) {
    async_spill_ = true;
    spill_queue_limit_ = std::max<std::size_t>(config.spill_queue, 1);
    spill_thread_ = std::thread{[this] { drain_loop(); }};
  }
}

ResultCache::~ResultCache() {
  if (spill_thread_.joinable()) {
    {
      std::lock_guard lock{spill_mutex_};
      spill_stop_ = true;
    }
    spill_cv_.notify_all();
    // The drain loop finishes every queued write before honoring stop, so
    // a gracefully destroyed cache leaves nothing behind in the queue.
    spill_thread_.join();
  }
}

ResultCache::Key ResultCache::key_of(std::uint64_t content, const RequestPayload& payload) {
  const RequestKind kind =
      std::visit([](const auto& request) { return kind_of(request); }, payload);
  return Key{.content = content,
             .kind = static_cast<std::uint8_t>(kind),
             .fingerprint = fingerprint(payload)};
}

ResultCache::Value ResultCache::find(const Key& key, std::uint32_t tenant) {
  if (Value hit = find_hit(key, tenant)) return hit;
  misses_.fetch_add(1, std::memory_order_relaxed);
  // The tenant ledger attributes the outcome by what the caller
  // experiences: served (from either tier) or evaluated.
  Value found = tier_ ? promote(key, tenant) : nullptr;
  note_tenant_lookup(tenant, found != nullptr);
  return found;
}

ResultCache::Value ResultCache::find_hit(const Key& key, std::uint32_t tenant) {
  Value found;
  {
    Shard& shard = shard_of(key);
    std::lock_guard lock{shard.mutex};
    const auto it = shard.index.find(key);
    if (it == shard.index.end()) return nullptr;
    // Refresh recency: splice the entry to the front of the LRU list.
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    hits_.fetch_add(1, std::memory_order_relaxed);
    saved_cost_us_.fetch_add(it->second->cost_us, std::memory_order_relaxed);
    found = it->second->value;
  }
  note_tenant_lookup(tenant, /*served=*/true);
  return found;
}

ResultCache::Value ResultCache::promote(const Key& key, std::uint32_t tenant) {
  // Disk I/O happens outside every shard lock — it must never serialize
  // the fast path.
  const auto kind = static_cast<RequestKind>(key.kind);
  const auto entry = tier_->load(key, to_string(kind));
  if (!entry.has_value()) return nullptr;
  Value value = decode_frame(entry->frame, kind);
  if (!value) {
    // The frame passed the tier's CRC but no longer decodes (a wire-codec
    // version ahead of or behind this build): stale, compact it away and
    // fall through to live evaluation.
    tier_->remove(key, std::string{"frame no longer decodes as a "} + to_string(kind) +
                           " result (wire version skew?)");
    return nullptr;
  }
  // Promote into the memory tier *without* writing back down — the entry
  // is already on disk, so a restarted server serving purely from disk
  // shows zero spills (the proof that nothing was re-evaluated). The
  // stored eval cost rides along for eviction weighting and accounting.
  disk_promotes_.fetch_add(1, std::memory_order_relaxed);
  saved_cost_us_.fetch_add(entry->cost_us, std::memory_order_relaxed);
  enforce_tenant_cap(tenant);
  if (auto victim = store_memory(Entry{key, value, entry->cost_us, tenant})) {
    spill(std::move(*victim), /*only_if_absent=*/true);
  }
  return value;
}

ResultCache::Entry ResultCache::evict_one(Shard& shard) {
  // Cost-weighted LRU: among the `cost_window_` least recently used
  // entries, drop the cheapest (ties keep the least recent victim), so one
  // expensive result survives a stampede of cheap ones filling the shard.
  const std::size_t window = cost_window_.load(std::memory_order_relaxed);
  auto victim = std::prev(shard.lru.end());
  auto candidate = victim;
  for (std::size_t examined = 1; examined < window && candidate != shard.lru.begin();
       ++examined) {
    --candidate;
    if (candidate->cost_us < victim->cost_us) victim = candidate;
  }
  evicted_cost_us_.fetch_add(victim->cost_us, std::memory_order_relaxed);
  Entry evicted = std::move(*victim);
  shard.index.erase(evicted.key);
  shard.lru.erase(victim);
  const std::uint64_t tick = evictions_.fetch_add(1, std::memory_order_relaxed) + 1;
  // One thread per 32-eviction interval owns the adaptation (fetch_add
  // hands out unique ticks), so concurrent evictors cannot double-adjust.
  if (adaptive_window_ && tick % 32 == 0) adapt_window();
  return evicted;
}

void ResultCache::adapt_window() {
  // Widen when the average cost an eviction throws away rivals what a hit
  // saves — a wider tail scan finds cheaper victims. Shrink back toward
  // plain recency when hits dwarf evictions (×4 hysteresis keeps the two
  // thresholds from oscillating).
  const std::uint64_t evictions = evictions_.load(std::memory_order_relaxed);
  const std::uint64_t hits = hits_.load(std::memory_order_relaxed);
  if (evictions == 0) return;
  const std::uint64_t avg_evicted =
      evicted_cost_us_.load(std::memory_order_relaxed) / evictions;
  const std::uint64_t avg_saved =
      hits == 0 ? 0 : saved_cost_us_.load(std::memory_order_relaxed) / hits;
  const std::size_t window = cost_window_.load(std::memory_order_relaxed);
  std::size_t next = window;
  if (avg_evicted > avg_saved) {
    next = std::min<std::size_t>(window * 2, 64);
  } else if (avg_evicted * 4 < avg_saved) {
    next = std::max<std::size_t>(window / 2, 1);
  }
  if (next != window) {
    cost_window_.store(next, std::memory_order_relaxed);
    window_adaptations_.fetch_add(1, std::memory_order_relaxed);
  }
}

std::optional<ResultCache::Entry> ResultCache::store_memory(Entry entry) {
  Shard& shard = shard_of(entry.key);
  const std::uint32_t tag = entry.tenant;
  std::optional<Entry> victim;
  {
    std::lock_guard lock{shard.mutex};
    if (const auto it = shard.index.find(entry.key); it != shard.index.end()) {
      // Concurrent miss on the same key: both evaluations are deterministic,
      // keep the newer value (and its cost) and refresh recency. The owner
      // stays the tenant the ledger counted the entry under.
      it->second->value = std::move(entry.value);
      it->second->cost_us = entry.cost_us;
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      return std::nullopt;
    }
    if (shard.lru.size() >= per_shard_capacity_) victim = evict_one(shard);
    const Key key = entry.key;
    shard.lru.push_front(std::move(entry));
    shard.index.emplace(key, shard.lru.begin());
  }
  if (tag != 0) note_tenant_insert(tag);
  if (victim.has_value() && victim->tenant != 0) note_tenant_evicted(victim->tenant);
  return victim;
}

void ResultCache::spill_now(const Entry& entry, bool only_if_absent) {
  if (only_if_absent && tier_->contains(entry.key)) return;
  // The span only records on synchronous request-path spills — the async
  // drain thread carries no current trace, so this is free there.
  obs::ScopedSpan span{obs::SpanKind::kSpill};
  tier_->store(entry.key, to_string(static_cast<RequestKind>(entry.key.kind)),
               entry.value->frame, entry.cost_us);
}

void ResultCache::spill(Entry entry, bool only_if_absent) {
  if (!tier_) return;
  if (!async_spill_) {
    spill_now(entry, only_if_absent);
    return;
  }
  {
    std::lock_guard lock{spill_mutex_};
    if (!spill_stop_) {
      if (spill_queue_.size() >= spill_queue_limit_) {
        // Bounded by design: dropping a spill costs a possible future disk
        // hit, never correctness — the memory tier still serves the entry
        // and the next insert/eviction of it re-enqueues.
        dropped_spills_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      spill_queue_.push_back(SpillTask{std::move(entry), only_if_absent});
    }
  }
  spill_cv_.notify_one();
}

void ResultCache::drain_loop() {
  std::unique_lock lock{spill_mutex_};
  while (true) {
    spill_cv_.wait(lock, [&] { return spill_stop_ || !spill_queue_.empty(); });
    if (spill_queue_.empty()) {
      if (spill_stop_) return;
      continue;
    }
    SpillTask task = std::move(spill_queue_.front());
    spill_queue_.pop_front();
    spill_busy_ = true;
    lock.unlock();  // disk I/O outside the queue lock — enqueuers never block on write()
    spill_now(task.entry, task.only_if_absent);
    lock.lock();
    spill_busy_ = false;
    if (spill_queue_.empty()) spill_idle_.notify_all();
  }
}

void ResultCache::drain_spills() {
  if (!async_spill_) return;
  std::unique_lock lock{spill_mutex_};
  spill_idle_.wait(lock, [&] { return spill_queue_.empty() && !spill_busy_; });
}

ResultCache::Value ResultCache::insert(const Key& key, Result<AnyResponse> result,
                                       std::uint64_t cost_us, std::uint32_t tenant) {
  // The one encode of this reply, outside every lock.
  Value record = make_record(std::move(result));
  // Tenant cap first: a capped tenant at its limit makes room by evicting
  // its *own* least recent entry before this insert lands, so its eviction
  // storms never displace another tenant's entries.
  enforce_tenant_cap(tenant);
  Entry entry{key, record, cost_us, tenant};
  const std::optional<Entry> victim = store_memory(entry);
  // Disk I/O strictly after the shard lock is released: write the fresh
  // result through (a kill -9 one instruction later loses nothing), then
  // spill the displaced entry if disk doesn't hold it yet.
  spill(std::move(entry), /*only_if_absent=*/false);
  if (victim.has_value()) spill(*victim, /*only_if_absent=*/true);
  return record;
}

void ResultCache::clear(bool include_disk) {
  for (Shard& shard : shards_) {
    std::lock_guard lock{shard.mutex};
    shard.index.clear();
    shard.lru.clear();
  }
  {
    std::lock_guard lock{tenant_mutex_};
    for (auto& [tag, account] : tenants_) account.entries = 0;
  }
  if (include_disk && tier_) {
    // A spill still queued would land *after* the clear and resurrect its
    // entry on disk; flush the queue first so clear means clear.
    drain_spills();
    tier_->clear();
  }
}

std::size_t ResultCache::persist_all() {
  if (!tier_) return 0;
  // An explicit persist is a durability request: flush queued async spills
  // first so the contains() checks below see the tier's real contents, then
  // write the remainder synchronously.
  drain_spills();
  // Snapshot the shards first (values are shared_ptrs, cheap to copy), then
  // do every disk write without any shard lock held.
  std::vector<Entry> entries;
  for (Shard& shard : shards_) {
    std::lock_guard lock{shard.mutex};
    entries.insert(entries.end(), shard.lru.begin(), shard.lru.end());
  }
  std::size_t written = 0;
  for (const Entry& entry : entries) {
    if (tier_->contains(entry.key)) continue;
    spill_now(entry, /*only_if_absent=*/true);
    ++written;
  }
  tier_->flush();
  return written;
}

// --- tenant accounting -------------------------------------------------------

void ResultCache::set_tenant_cap(std::uint32_t tag, std::size_t max_entries) {
  if (tag == 0) return;  // the default tenant is never capped
  std::lock_guard lock{tenant_mutex_};
  tenants_[tag].cap = max_entries;
}

std::vector<TenantCacheStats> ResultCache::tenant_stats() const {
  std::vector<TenantCacheStats> out;
  {
    std::lock_guard lock{tenant_mutex_};
    out.reserve(tenants_.size());
    for (const auto& [tag, account] : tenants_) {
      out.push_back(TenantCacheStats{.tag = tag,
                                     .hits = account.hits,
                                     .misses = account.misses,
                                     .evictions = account.evictions,
                                     .entries = account.entries,
                                     .cap = account.cap});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const TenantCacheStats& a, const TenantCacheStats& b) { return a.tag < b.tag; });
  return out;
}

void ResultCache::note_tenant_lookup(std::uint32_t tag, bool served) {
  if (tag == 0) return;
  std::lock_guard lock{tenant_mutex_};
  TenantAccount& account = tenants_[tag];
  if (served) {
    ++account.hits;
  } else {
    ++account.misses;
  }
}

void ResultCache::note_tenant_insert(std::uint32_t tag) {
  std::lock_guard lock{tenant_mutex_};
  ++tenants_[tag].entries;
}

void ResultCache::note_tenant_evicted(std::uint32_t tag) {
  std::lock_guard lock{tenant_mutex_};
  TenantAccount& account = tenants_[tag];
  account.entries -= std::min<std::size_t>(account.entries, 1);
  ++account.evictions;
}

void ResultCache::enforce_tenant_cap(std::uint32_t tag) {
  if (tag == 0) return;
  while (true) {
    std::size_t cap = 0;
    std::size_t entries = 0;
    {
      std::lock_guard lock{tenant_mutex_};
      const auto it = tenants_.find(tag);
      if (it == tenants_.end()) return;
      cap = it->second.cap;
      entries = it->second.entries;
    }
    if (cap == 0 || entries < cap) return;
    // At the cap: drop one of this tenant's own entries — the tail-most
    // (least recent within its shard) entry of the first shard holding one.
    // Cross-shard recency is approximate by design; exactness would need a
    // global clock on every touch. Shards are locked one at a time and
    // never together with tenant_mutex_.
    std::optional<Entry> victim;
    for (Shard& shard : shards_) {
      std::lock_guard lock{shard.mutex};
      for (auto it = shard.lru.rbegin(); it != shard.lru.rend(); ++it) {
        if (it->tenant != tag) continue;
        const auto target = std::prev(it.base());
        evicted_cost_us_.fetch_add(target->cost_us, std::memory_order_relaxed);
        evictions_.fetch_add(1, std::memory_order_relaxed);
        victim = std::move(*target);
        shard.index.erase(victim->key);
        shard.lru.erase(target);
        break;
      }
      if (victim.has_value()) break;
    }
    if (!victim.has_value()) {
      // Ledger said at-cap but no entry was found (raced a clear() or
      // another evictor whose ledger update is still in flight) — nothing
      // to evict.
      return;
    }
    note_tenant_evicted(tag);
    spill(std::move(*victim), /*only_if_absent=*/true);
  }
}

CacheStats ResultCache::stats() const {
  CacheStats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  stats.capacity = capacity_;
  stats.saved_cost_us = saved_cost_us_.load(std::memory_order_relaxed);
  stats.evicted_cost_us = evicted_cost_us_.load(std::memory_order_relaxed);
  stats.cost_window = cost_window_.load(std::memory_order_relaxed);
  stats.window_adaptations = window_adaptations_.load(std::memory_order_relaxed);
  for (const Shard& shard : shards_) {
    std::lock_guard lock{shard.mutex};
    stats.entries += shard.lru.size();
    for (const Entry& entry : shard.lru) stats.cached_cost_us += entry.cost_us;
  }
  if (tier_) {
    const persist::DiskStats disk = tier_->stats();
    stats.persistent = true;
    stats.disk_hits = disk.hits;
    stats.disk_misses = disk.misses;
    stats.disk_spills = disk.stores;
    stats.disk_promotes = disk_promotes_.load(std::memory_order_relaxed);
    stats.disk_skipped = disk.skipped;
    stats.disk_evictions = disk.evictions;
    stats.disk_entries = disk.entries;
    stats.disk_bytes = disk.bytes;
    stats.disk_capacity_bytes = disk.capacity_bytes;
    stats.disk_async = async_spill_;
    if (async_spill_) {
      std::lock_guard lock{spill_mutex_};
      stats.disk_queue_depth = spill_queue_.size();
    }
    stats.disk_queue_capacity = spill_queue_limit_;
    stats.disk_dropped_spills = dropped_spills_.load(std::memory_order_relaxed);
  }
  return stats;
}

}  // namespace spivar::api
