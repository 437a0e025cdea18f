// api::StoreView — one tenant's namespace over one shared ModelStore.
//
// Every tenant of the service shares one ModelStore (one result cache, whose
// entries are keyed per distinct model content *per tenant*), but each sees
// only its own models: a view records the ids its loads issued and refuses
// to describe, enumerate or unload anything else. Builtin and corpus *names*
// stay globally readable — any tenant may instantiate `fig2` or a `sweep/`
// spec — while the instantiated models are tenant-scoped, so two tenants
// loading the same name hold distinct ids and (through the tenant content
// salt) distinct restart-stable identities, hence distinct cache keys.
//
//   auto store = std::make_shared<api::ModelStore>();
//   api::StoreView a{store, {.name = "alpha", .tag = 1}, {.max_models = 8}};
//   api::StoreView b{store, {.name = "beta", .tag = 2}, {}};
//   a.load(api::ModelSpec{"fig2"});  // id X, salted fingerprint, owned by a
//   b.load(api::ModelSpec{"fig2"});  // id Y != X — cache entries never cross
//   b.unload(X-id);                  // kNeverLoaded: b cannot tombstone a's model
//
// Isolation invariants the view enforces (tests/test_tenant.cpp):
//   * unload of an un-owned id is kNeverLoaded — no cross-tenant tombstones
//     (ModelStore::unload is only ever reached for owned ids).
//   * the model-count quota bounds *live* owned models; tombstones free
//     their slot.
//   * loads pass the view's TenantContext to the store, so every entry
//     carries the tenant's tag — what per-tenant cache caps and stats key
//     on, whether or not the cache was enabled before the load.
//
// Thread-safe like the store itself: loads, unloads and lookups may race
// from any number of connection threads.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "api/store.hpp"
#include "api/tenant.hpp"

namespace spivar::api {

class StoreView {
 public:
  /// A view over `store` for `tenant` under `quota`. The store must outlive
  /// nothing — the view shares ownership.
  StoreView(std::shared_ptr<ModelStore> store, TenantContext tenant, TenantQuota quota = {});

  StoreView(const StoreView&) = delete;
  StoreView& operator=(const StoreView&) = delete;

  [[nodiscard]] const TenantContext& tenant() const noexcept { return tenant_; }
  [[nodiscard]] const TenantQuota& quota() const noexcept { return quota_; }
  [[nodiscard]] const std::shared_ptr<ModelStore>& store() const noexcept { return store_; }

  // --- loading (tenant-scoped, quota-checked) --------------------------------

  /// ModelStore::load under this view's tenant, behind the model quota: a
  /// pending-load reservation keeps a racing pair of loads from overshooting
  /// max_models, while the load itself (parses and model factories can be
  /// slow) runs outside the view lock.
  Result<ModelInfo> load(LoadRequest request);

  // --- tenant-scoped lookup / unload -----------------------------------------

  /// True when this view's loads issued `id` and it has not been unloaded.
  [[nodiscard]] bool owns(ModelId id) const;

  /// The three-way unload contract *per tenant*: an id another tenant (or
  /// nobody) loaded is kNeverLoaded here even though the store knows it —
  /// a tenant can never tombstone someone else's model.
  UnloadStatus unload(ModelId id);

  /// Info for an owned id; un-owned ids fail exactly like unknown ones.
  [[nodiscard]] Result<ModelInfo> info(ModelId id) const;

  /// Summaries of this tenant's live models only, ascending id.
  [[nodiscard]] std::vector<ModelInfo> models() const;

  /// Live models this view owns.
  [[nodiscard]] std::size_t size() const;

 private:
  std::shared_ptr<ModelStore> store_;
  TenantContext tenant_;
  TenantQuota quota_;

  mutable std::mutex mutex_;
  std::set<std::uint32_t> owned_;       ///< live ids this view loaded
  std::set<std::uint32_t> tombstoned_;  ///< ids this view loaded, then unloaded
  std::size_t pending_ = 0;             ///< loads admitted but not yet recorded
};

}  // namespace spivar::api
