#include "api/store_view.hpp"

#include <utility>

#include "api/detail.hpp"

namespace spivar::api {

StoreView::StoreView(std::shared_ptr<ModelStore> store, TenantContext tenant, TenantQuota quota)
    : store_(std::move(store)), tenant_(std::move(tenant)), quota_(std::move(quota)) {
  if (!store_) store_ = std::make_shared<ModelStore>();
}

Result<ModelInfo> StoreView::load(LoadRequest request) {
  {
    std::lock_guard lock{mutex_};
    if (quota_.max_models != 0 && owned_.size() + pending_ >= quota_.max_models) {
      return Result<ModelInfo>::failure(
          diag::kQuotaExceeded, "tenant '" + tenant_.name + "' is at its model quota (" +
                                    std::to_string(quota_.max_models) +
                                    " live models); unload one first");
    }
    ++pending_;
  }
  Result<ModelInfo> loaded = store_->load(std::move(request), tenant_);
  std::lock_guard lock{mutex_};
  --pending_;
  if (loaded.ok()) owned_.insert(loaded.value().id.value());
  return loaded;
}

bool StoreView::owns(ModelId id) const {
  std::lock_guard lock{mutex_};
  return owned_.contains(id.value());
}

UnloadStatus StoreView::unload(ModelId id) {
  {
    std::lock_guard lock{mutex_};
    if (tombstoned_.contains(id.value())) return UnloadStatus::kAlreadyUnloaded;
    // An id this view never issued is indistinguishable from one that does
    // not exist — even when another tenant (or the host process) holds it
    // live. This is the no-cross-tenant-tombstone guarantee.
    if (!owned_.contains(id.value())) return UnloadStatus::kNeverLoaded;
    owned_.erase(id.value());
    tombstoned_.insert(id.value());
  }
  return store_->unload(id);
}

Result<ModelInfo> StoreView::info(ModelId id) const {
  if (!owns(id)) return detail::unknown_model<ModelInfo>(id);
  return store_->info(id);
}

std::vector<ModelInfo> StoreView::models() const {
  std::vector<ModelInfo> out;
  for (ModelInfo& info : store_->models()) {
    if (owns(info.id)) out.push_back(std::move(info));
  }
  return out;
}

std::size_t StoreView::size() const {
  std::lock_guard lock{mutex_};
  return owned_.size();
}

}  // namespace spivar::api
