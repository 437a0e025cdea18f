#include "obs/metrics.hpp"

#include <cstdio>

#include "support/hash.hpp"

namespace spivar::obs {

support::LatencyHistogram Histogram::snapshot() const noexcept {
  support::LatencyHistogram snapshot;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const std::uint64_t n = counts_[i].load(std::memory_order_relaxed);
    if (n != 0) snapshot.add_bucket(i, n);
  }
  if (snapshot.count() != 0) {
    snapshot.note_range(min_.load(std::memory_order_relaxed),
                        max_.load(std::memory_order_relaxed));
  }
  return snapshot;
}

std::size_t MetricsRegistry::LabelsHash::operator()(const Labels& labels) const noexcept {
  support::Fnv1aHasher hasher;
  for (const Label& label : labels) hasher.str(label.key).str(label.value);
  return hasher.digest();
}

template <typename T>
T& MetricsRegistry::instrument(const std::string& name, const std::string& help, Labels&& labels,
                               Type type, std::deque<T>& storage) {
  std::lock_guard lock{mutex_};
  const auto [entry, new_family] = families_.try_emplace(name);
  Family& family = entry->second;
  if (new_family) {
    family.help = help;
    family.type = type;
  }
  const auto [slot, created] = family.slots.try_emplace(std::move(labels), storage.size());
  if (created) {
    storage.emplace_back();
    family.created.push_back(&*slot);
  }
  return storage[slot->second];
}

Counter& MetricsRegistry::counter(const std::string& name, const std::string& help,
                                  Labels labels) {
  return instrument(name, help, std::move(labels), Type::kCounter, counters_);
}

Gauge& MetricsRegistry::gauge(const std::string& name, const std::string& help, Labels labels) {
  return instrument(name, help, std::move(labels), Type::kGauge, gauges_);
}

Histogram& MetricsRegistry::histogram(const std::string& name, const std::string& help,
                                      Labels labels) {
  return instrument(name, help, std::move(labels), Type::kHistogram, histograms_);
}

void MetricsRegistry::add_collector(std::function<void()> collector) {
  std::lock_guard lock{collectors_mutex_};
  collectors_.push_back(std::move(collector));
}

namespace {

/// `{k="v",k2="v2"}` (empty labels render nothing). Values are escaped per
/// the exposition format: backslash, double quote, newline.
std::string render_labels(const Labels& labels, const char* extra_key = nullptr,
                          const char* extra_value = nullptr) {
  if (labels.empty() && extra_key == nullptr) return {};
  std::string out = "{";
  bool first = true;
  const auto append = [&](const std::string& key, const std::string& value) {
    if (!first) out += ",";
    first = false;
    out += key + "=\"";
    for (const char c : value) {
      if (c == '\\' || c == '"') out += '\\';
      if (c == '\n') {
        out += "\\n";
        continue;
      }
      out += c;
    }
    out += "\"";
  };
  for (const Label& label : labels) append(label.key, label.value);
  if (extra_key != nullptr) append(extra_key, extra_value);
  out += "}";
  return out;
}

std::string render_double(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.10g", value);
  return buffer;
}

}  // namespace

std::string MetricsRegistry::render() {
  // Collectors run outside the registry lock: they call counter()/gauge()
  // themselves (get-or-create takes the lock briefly), and each samples one
  // consistent snapshot of the struct it republishes.
  std::vector<std::function<void()>> collectors;
  {
    std::lock_guard lock{collectors_mutex_};
    collectors = collectors_;
  }
  for (const auto& collector : collectors) collector();

  std::lock_guard lock{mutex_};
  std::string out;
  for (const auto& [name, family] : families_) {
    if (!family.help.empty()) out += "# HELP " + name + " " + family.help + "\n";
    out += "# TYPE " + name + " ";
    switch (family.type) {
      case Type::kCounter: out += "counter\n"; break;
      case Type::kGauge: out += "gauge\n"; break;
      // The log-bucketed histogram exposes client-computed quantiles — the
      // Prometheus *summary* shape (a native histogram would need `le`
      // buckets; 4096 of them per series is scrape abuse).
      case Type::kHistogram: out += "summary\n"; break;
    }
    for (const auto* instrument : family.created) {
      const auto& [labels, slot] = *instrument;
      switch (family.type) {
        case Type::kCounter:
          out += name + render_labels(labels) + " " + std::to_string(counters_[slot].value()) +
                 "\n";
          break;
        case Type::kGauge:
          out += name + render_labels(labels) + " " + std::to_string(gauges_[slot].value()) + "\n";
          break;
        case Type::kHistogram: {
          const support::LatencyHistogram snapshot = histograms_[slot].snapshot();
          static constexpr std::pair<const char*, double> kQuantiles[] = {
              {"0.5", 0.50}, {"0.9", 0.90}, {"0.99", 0.99}, {"0.999", 0.999}};
          for (const auto& [label, q] : kQuantiles) {
            out += name + render_labels(labels, "quantile", label) + " " +
                   std::to_string(snapshot.quantile(q)) + "\n";
          }
          // _sum is reconstructed from bucket midpoints (< 1.6% off) — good
          // enough for rate(sum)/rate(count) dashboards.
          out += name + "_sum" + render_labels(labels) + " " +
                 render_double(snapshot.mean() * static_cast<double>(snapshot.count())) + "\n";
          out += name + "_count" + render_labels(labels) + " " +
                 std::to_string(snapshot.count()) + "\n";
          break;
        }
      }
    }
  }
  return out;
}

}  // namespace spivar::obs
