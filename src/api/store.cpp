#include "api/store.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>
#include <variant>

#include "api/detail.hpp"
#include "corpus/spec.hpp"
#include "support/hash.hpp"
#include "models/synthetic.hpp"
#include "spi/textio.hpp"
#include "variant/textio.hpp"

namespace spivar::api {

using detail::guarded;

namespace {

/// Derived fallback library: the deterministic per-process synthetic library,
/// plus — for cluster-atomic problems — one aggregated entry per cluster
/// (member loads/costs/WCETs summed, capabilities intersected), so both
/// granularities can be explored on models without a curated library.
synth::ImplLibrary derive_library(const variant::VariantModel& model,
                                  synth::ElementGranularity granularity) {
  synth::ImplLibrary library = models::make_synthetic_library(model);
  if (granularity != synth::ElementGranularity::kClusterAtomic) return library;

  for (support::ClusterId cid : model.cluster_ids()) {
    const variant::Cluster& cluster = model.cluster(cid);
    synth::ElementImpl aggregate;
    aggregate.sw_load = 0.0;
    bool any = false;
    for (support::ProcessId pid : cluster.processes) {
      const spi::Process& process = model.graph().process(pid);
      if (process.is_virtual || !library.contains(process.name)) continue;
      const synth::ElementImpl& member = library.at(process.name);
      aggregate.sw_load += member.sw_load;
      aggregate.sw_wcet = aggregate.sw_wcet + member.sw_wcet;
      aggregate.hw_cost += member.hw_cost;
      aggregate.hw_wcet = aggregate.hw_wcet + member.hw_wcet;
      aggregate.can_sw = aggregate.can_sw && member.can_sw;
      aggregate.can_hw = aggregate.can_hw && member.can_hw;
      any = true;
    }
    if (any) library.add(cluster.name, aggregate);
  }
  return library;
}

/// The uncached resolution behind default_setup()/resolve_setup().
SynthesisSetup compute_setup(const StoreEntry& entry,
                             const std::optional<synth::ProblemOptions>& problem,
                             const std::optional<synth::ImplLibrary>& library) {
  SynthesisSetup setup;
  const BuiltinModel* builtin = entry.builtin();
  const bool curated = builtin != nullptr && builtin->library != nullptr;

  synth::ProblemOptions options;
  if (problem.has_value()) {
    options = *problem;
  } else if (curated) {
    options = builtin->problem;
  } else {
    options = {.granularity = synth::ElementGranularity::kProcess};
  }

  // A curated library is calibrated for one granularity; a request that
  // overrides it gets the derived library instead (which covers the
  // requested granularity) rather than opaque missing-element errors.
  const bool curated_matches = curated && options.granularity == builtin->problem.granularity;

  if (library.has_value()) {
    setup.library = *library;
    setup.library_origin = "request";
  } else if (curated_matches) {
    setup.library = builtin->library(entry.model());
    setup.library_origin = "curated";
  } else {
    setup.library = derive_library(entry.model(), options.granularity);
    setup.library_origin = "derived";
  }
  setup.problem = synth::problem_from_model(entry.model(), options);
  return setup;
}

/// Re-keys a restart-stable identity with `salt`. 0 stays 0 — "no content
/// identity" must keep meaning "never touches disk" whatever is mixed in.
std::uint64_t rekey(std::uint64_t digest, std::uint64_t salt) {
  if (digest == 0 || salt == 0) return digest;
  support::Fnv1aHasher hasher;
  hasher.u64(digest);
  hasher.u64(salt);
  return hasher.digest() == 0 ? 1 : hasher.digest();
}

}  // namespace

// --- StoreEntry --------------------------------------------------------------

StoreEntry::StoreEntry(ModelId id, std::string origin, variant::VariantModel model,
                       const BuiltinModel* builtin, const TenantContext& tenant)
    : id_(id),
      origin_(std::move(origin)),
      model_(std::move(model)),
      builtin_(builtin),
      content_salt_(tenant.content_salt()),
      tenant_tag_(tenant.tag) {}

std::shared_ptr<const SynthesisSetup> StoreEntry::default_setup() const {
  std::call_once(setup_once_, [this] {
    setup_ = std::make_shared<const SynthesisSetup>(
        compute_setup(*this, std::nullopt, std::nullopt));
  });
  return setup_;
}

std::uint64_t StoreEntry::content_fingerprint() const {
  std::call_once(content_once_, [this] {
    // A tenant salt re-keys the restart-stable identity so salted and
    // unsalted (or differently-salted) loads of the same text never share
    // persistent-tier entries.
    content_fingerprint_ = rekey(variant::content_fingerprint(model_), content_salt_);
    const bool curated = builtin_ != nullptr && builtin_->library != nullptr;
    cache_content_ = curated ? rekey(content_fingerprint_,
                                     support::Fnv1aHasher{}.str(builtin_->name).digest())
                             : content_fingerprint_;
  });
  return content_fingerprint_;
}

std::uint64_t StoreEntry::cache_content() const {
  (void)content_fingerprint();  // one memoization computes both
  return cache_content_;
}

std::shared_ptr<const SynthesisSetup> resolve_setup(
    const StoreEntry& entry, const std::optional<synth::ProblemOptions>& problem,
    const std::optional<synth::ImplLibrary>& library) {
  if (!problem.has_value() && !library.has_value()) return entry.default_setup();
  return std::make_shared<const SynthesisSetup>(compute_setup(entry, problem, library));
}

// --- ModelStore --------------------------------------------------------------

Result<ModelInfo> ModelStore::load(LoadRequest request, const TenantContext& tenant) {
  return guarded<ModelInfo>([&]() -> Result<ModelInfo> {
    if (BuiltModel* built = std::get_if<BuiltModel>(&request)) {
      return adopt(std::move(built->origin), std::move(built->model), nullptr, tenant);
    }
    if (const ModelText* text = std::get_if<ModelText>(&request)) {
      // Variant-aware: text with a `variants v1` section reconstructs the
      // cluster/interface structure, plain graph text loads flat.
      variant::VariantModel model = variant::parse_text(text->text);
      if (!text->name.empty()) model.graph().set_name(text->name);
      return adopt("text", std::move(model), nullptr, tenant);
    }
    const ModelSpec& spec = std::get<ModelSpec>(request);
    if (const BuiltinModel* builtin = find_builtin(spec.name)) {
      return adopt("builtin:" + builtin->name, builtin->make(spec.options), builtin, tenant);
    }
    // A sweep/ name that failed to mint is malformed — surface the name
    // grammar rather than a missing-file error.
    if (corpus::is_corpus_name(spec.name)) {
      std::string error;
      (void)corpus::parse_name(spec.name, &error);
      return Result<ModelInfo>::failure(diag::kUnknownBuiltin, error);
    }
    if (!std::holds_alternative<std::monostate>(spec.options)) {
      return Result<ModelInfo>::failure(
          diag::kUnknownBuiltin,
          "no built-in model '" + spec.name + "' (see Session::builtins())");
    }
    std::error_code ec;
    if (!std::filesystem::is_regular_file(spec.name, ec)) {
      return Result<ModelInfo>::failure(diag::kIoError,
                                        "'" + spec.name + "' is not a readable file");
    }
    std::ifstream in{spec.name};
    if (!in) return Result<ModelInfo>::failure(diag::kIoError, "cannot open '" + spec.name + "'");
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return adopt(spec.name, variant::parse_text(buffer.str()), nullptr, tenant);
  });
}

Result<ModelInfo> ModelStore::adopt(std::string origin, variant::VariantModel model,
                                    const BuiltinModel* builtin, const TenantContext& tenant) {
  // The id is an atomic draw, so entry construction (and any model factory
  // work) happens outside the table lock; only the insertion is serialized.
  // A draw wasted by a throwing factory is fine — ids are never reused
  // anyway.
  const ModelId id{next_id_.fetch_add(1, std::memory_order_relaxed)};
  auto entry = std::make_shared<const StoreEntry>(id, std::move(origin), std::move(model),
                                                  builtin, tenant);
  {
    std::lock_guard lock{mutex_};
    entries_.emplace(id.value(), entry);
  }
  return Result<ModelInfo>::success(describe(id, *entry));
}

UnloadStatus ModelStore::unload(ModelId id) {
  std::lock_guard lock{mutex_};
  const auto it = entries_.find(id.value());
  if (it == entries_.end()) return UnloadStatus::kNeverLoaded;
  if (it->second == nullptr) return UnloadStatus::kAlreadyUnloaded;
  it->second = nullptr;  // tombstone: the id stays known, never reused
  return UnloadStatus::kUnloaded;
}

std::shared_ptr<ResultCache> ModelStore::enable_cache(CacheConfig config) {
  std::lock_guard lock{mutex_};
  if (!cache_) cache_ = std::make_shared<ResultCache>(config);
  return cache_;
}

std::shared_ptr<ResultCache> ModelStore::cache() const {
  std::lock_guard lock{mutex_};
  return cache_;
}

std::optional<CacheStats> ModelStore::cache_stats() const {
  const auto cache = this->cache();
  if (!cache) return std::nullopt;
  return cache->stats();
}

ModelStore::Snapshot ModelStore::find(ModelId id) const {
  std::lock_guard lock{mutex_};
  const auto it = entries_.find(id.value());
  return it == entries_.end() ? nullptr : it->second;
}

std::vector<ModelInfo> ModelStore::models() const {
  std::vector<ModelInfo> out;
  std::lock_guard lock{mutex_};
  for (const auto& [raw, snapshot] : entries_) {
    if (snapshot) out.push_back(describe(ModelId{raw}, *snapshot));
  }
  return out;
}

Result<ModelInfo> ModelStore::info(ModelId id) const {
  const Snapshot snapshot = find(id);
  if (!snapshot) return detail::unknown_model<ModelInfo>(id);
  return Result<ModelInfo>::success(describe(id, *snapshot));
}

std::size_t ModelStore::size() const {
  std::lock_guard lock{mutex_};
  std::size_t live = 0;
  for (const auto& [raw, snapshot] : entries_) {
    if (snapshot) ++live;
  }
  return live;
}

ModelInfo describe(ModelId id, const StoreEntry& entry) {
  return ModelInfo{
      .id = id,
      .name = entry.model().graph().name(),
      .origin = entry.origin(),
      .processes = entry.model().graph().process_count(),
      .channels = entry.model().graph().channel_count(),
      .interfaces = entry.model().interface_count(),
      .clusters = entry.model().cluster_count(),
      .content_fingerprint = entry.content_fingerprint(),
  };
}

}  // namespace spivar::api
