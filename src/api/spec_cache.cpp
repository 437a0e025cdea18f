#include "api/spec_cache.hpp"

#include <utility>

#include "api/registry.hpp"
#include "api/store_view.hpp"
#include "corpus/spec.hpp"

namespace spivar::api {

SpecCache::SpecCache(std::shared_ptr<ModelStore> store) : store_(std::move(store)) {
  if (!store_) store_ = std::make_shared<ModelStore>();
}

void SpecCache::bind_view(std::shared_ptr<StoreView> view) { view_ = std::move(view); }

namespace {

std::string cache_key(const std::string& spec, const std::vector<std::string>& assignments) {
  std::string key = spec;
  for (const std::string& assignment : assignments) key += "\n" + assignment;
  return key;
}

}  // namespace

std::optional<ModelId> SpecCache::peek(const std::string& spec,
                                       const std::vector<std::string>& assignments) const {
  const auto it = loaded_.find(cache_key(spec, assignments));
  if (it == loaded_.end()) return std::nullopt;
  return it->second;
}

std::vector<ModelId> SpecCache::handles(const std::string& spec) const {
  // Keys are "spec" or "spec\nassignment...": match the bare spec and every
  // assignments variant, never a different spec with a shared prefix.
  std::vector<ModelId> out;
  for (const auto& [key, id] : loaded_) {
    if (key == spec || (key.size() > spec.size() && key[spec.size()] == '\n' &&
                        key.compare(0, spec.size(), spec) == 0)) {
      out.push_back(id);
    }
  }
  return out;
}

Result<ModelInfo> SpecCache::resolve(const std::string& spec,
                                     const std::vector<std::string>& assignments) {
  std::string key = cache_key(spec, assignments);

  if (const auto it = loaded_.find(key); it != loaded_.end()) {
    Result<ModelInfo> info = view_ ? view_->info(it->second) : store_->info(it->second);
    if (info.ok()) return info;
    // The cached handle was tombstoned (or the store never knew it): drop
    // the mapping instead of resurrecting a dead id, and load fresh below
    // under a new id.
    loaded_.erase(it);
  }

  ModelSpec request{.name = spec};
  if (!assignments.empty()) {
    // Corpus names take the builtin path too: parse_builtin_options starts
    // from the name-parsed spec, so malformed names get grammar diagnostics.
    if (!find_builtin(spec) && !corpus::is_corpus_name(spec)) {
      return Result<ModelInfo>::failure(
          diag::kBadOption, "'--opt' requires a built-in model, and '" + spec + "' is not one");
    }
    auto options = parse_builtin_options(spec, assignments);
    if (!options.ok()) return Result<ModelInfo>::failure(options.diagnostics());
    request.options = std::move(options).value();
  }
  Result<ModelInfo> loaded =
      view_ ? view_->load(std::move(request)) : store_->load(std::move(request));
  if (loaded.ok()) loaded_.emplace(std::move(key), loaded.value().id);
  return loaded;
}

}  // namespace spivar::api
