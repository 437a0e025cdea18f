#include "persist/disk_tier.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <system_error>
#include <utility>
#include <vector>

#include "support/crc32.hpp"
#include "support/hash.hpp"

namespace spivar::persist {

namespace fs = std::filesystem;

namespace {

constexpr std::string_view kMagic = "spivar-disk";
constexpr int kVersion = 1;
constexpr std::string_view kExtension = ".spr";

/// How far into the LRU tail cost-weighted eviction looks for the cheapest
/// victim. Mirrors the memory tier's cost window: small enough that recency
/// still dominates (an entry must age into the tail before cost matters),
/// large enough that one expensive straggler cannot pin the tail while
/// cheap entries are evicted around it.
constexpr std::size_t kEvictionWindow = 8;

std::string hex(std::uint64_t value, int digits) {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%0*llx", digits,
                static_cast<unsigned long long>(value));
  return buffer;
}

bool parse_hex(std::string_view text, std::uint64_t& value) {
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value, 16);
  return ec == std::errc{} && end == text.data() + text.size();
}

bool parse_dec(std::string_view text, std::uint64_t& value) {
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  return ec == std::errc{} && end == text.data() + text.size();
}

/// `e<content:16>-<kind:2>-<fingerprint:16>` stem back into a key.
std::optional<DiskKey> parse_stem(std::string_view stem) {
  if (stem.size() != 1 + 16 + 1 + 2 + 1 + 16 || stem[0] != 'e' || stem[17] != '-' ||
      stem[20] != '-') {
    return std::nullopt;
  }
  DiskKey key;
  std::uint64_t kind = 0;
  if (!parse_hex(stem.substr(1, 16), key.content) || !parse_hex(stem.substr(18, 2), kind) ||
      !parse_hex(stem.substr(21, 16), key.fingerprint)) {
    return std::nullopt;
  }
  key.kind = static_cast<std::uint8_t>(kind);
  return key;
}

/// Reads the `cost-us` header line of one entry file — the cheap partial
/// read the startup scan uses so restored entries keep their eviction
/// weight across restarts (cost 0 would make every survivor the preferred
/// victim). Bounded: headers are a handful of short lines before `end`, and
/// anything malformed just yields 0 — content validation stays lazy
/// (load-time), exactly as before.
std::uint64_t scan_cost_us(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) return 0;
  std::string line;
  for (int i = 0; i < 8 && std::getline(in, line); ++i) {
    if (line == "end") break;
    std::istringstream fields{line};
    std::string name;
    fields >> name;
    if (name != "cost-us") continue;
    std::string value;
    fields >> value;
    std::uint64_t cost_us = 0;
    return parse_dec(value, cost_us) ? cost_us : 0;
  }
  return 0;
}

/// Best-effort fsync of an open descriptor / a directory; failures are
/// reported by the caller.
bool fsync_path(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

}  // namespace

std::size_t DiskKeyHash::operator()(const DiskKey& key) const noexcept {
  support::Fnv1aHasher hasher;
  hasher.u64(key.content);
  hasher.u64(key.kind);
  hasher.u64(key.fingerprint);
  return static_cast<std::size_t>(hasher.digest());
}

DiskTier::DiskTier(PersistConfig config, DiagnosticSink sink)
    : config_(std::move(config)), sink_(std::move(sink)) {
  config_.capacity_bytes = std::max<std::uint64_t>(config_.capacity_bytes, 1);
  std::error_code ec;
  fs::create_directories(config_.dir, ec);
  if (ec || !fs::is_directory(config_.dir, ec) || ec) {
    diagnose("cache directory '" + config_.dir + "' is not usable (" + ec.message() +
             "); persistent tier disabled");
    return;
  }
  ready_ = true;

  // Index every entry file, oldest first, so the initial LRU order favors
  // recently written entries. Content validation stays lazy (load-time);
  // only files whose *name* is not an entry key are compacted here.
  struct Found {
    DiskKey key;
    std::uint64_t bytes;
    fs::file_time_type mtime;
  };
  std::vector<Found> found;
  for (const auto& item : fs::directory_iterator(config_.dir, ec)) {
    if (!item.is_regular_file(ec)) continue;
    const fs::path& path = item.path();
    if (path.extension() != kExtension) continue;
    const auto key = parse_stem(path.stem().string());
    if (!key) {
      diagnose("compacting '" + path.filename().string() + "': not an entry file name");
      fs::remove(path, ec);
      ++skipped_;
      continue;
    }
    found.push_back({*key, static_cast<std::uint64_t>(item.file_size(ec)),
                     item.last_write_time(ec)});
  }
  std::sort(found.begin(), found.end(),
            [](const Found& a, const Found& b) { return a.mtime < b.mtime; });
  for (const Found& entry : found) {
    lru_.push_front(entry.key);
    // The stored cost rides along from the entry's header (a bounded
    // partial read), so a restart doesn't zero every survivor's eviction
    // weight — cost-aware eviction keeps protecting expensive results
    // across server lives. A file whose header won't parse scans as cost 0
    // and so stays the preferred victim; load() still validates lazily.
    index_.emplace(entry.key, IndexEntry{entry.bytes, scan_cost_us(path_of(entry.key)),
                                         lru_.begin()});
    bytes_ += entry.bytes;
  }
  std::lock_guard lock{mutex_};
  evict_to_fit_locked();
}

bool DiskTier::ready() const { return ready_; }

void DiskTier::diagnose(const std::string& message) const {
  if (sink_) {
    sink_(message);
  } else {
    std::cerr << "spivar-persist: " << message << "\n";
  }
}

std::string DiskTier::path_of(const DiskKey& key) const {
  return config_.dir + "/e" + hex(key.content, 16) + "-" + hex(key.kind, 2) + "-" +
         hex(key.fingerprint, 16) + std::string(kExtension);
}

void DiskTier::drop_locked(DiskKey key, std::uint64_t* counter) {
  const auto it = index_.find(key);
  if (it == index_.end()) return;
  bytes_ -= std::min(bytes_, it->second.bytes);
  lru_.erase(it->second.lru);
  index_.erase(it);
  std::error_code ec;
  fs::remove(path_of(key), ec);
  if (counter) ++*counter;
}

void DiskTier::evict_to_fit_locked() {
  while (bytes_ > config_.capacity_bytes && !lru_.empty()) {
    // Cheapest entry of the LRU tail window goes first; walking tail-first
    // means an older entry wins cost ties, so pure LRU behavior is
    // preserved whenever costs are equal (or all unknown).
    auto victim = std::prev(lru_.end());
    std::uint64_t victim_cost = index_.at(*victim).cost_us;
    auto it = victim;
    for (std::size_t scanned = 1; scanned < kEvictionWindow && it != lru_.begin(); ++scanned) {
      --it;
      const std::uint64_t cost = index_.at(*it).cost_us;
      if (cost < victim_cost) {
        victim = it;
        victim_cost = cost;
      }
    }
    drop_locked(*victim, &evictions_);
  }
}

std::optional<DiskEntry> DiskTier::load(const DiskKey& key, std::string_view kind_name) {
  if (!ready_) return std::nullopt;
  std::lock_guard lock{mutex_};
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++misses_;
    return std::nullopt;
  }

  const std::string path = path_of(key);
  const auto skip = [&](const std::string& why) -> std::optional<DiskEntry> {
    diagnose("skipping stale/corrupt entry '" + fs::path(path).filename().string() + "' (" +
             std::string(kind_name) + "): " + why);
    drop_locked(key, &skipped_);
    return std::nullopt;
  };

  std::ifstream in{path, std::ios::binary};
  if (!in) return skip("cannot open file");

  // --- versioned header ------------------------------------------------------
  std::string line;
  if (!std::getline(in, line)) return skip("empty file");
  {
    std::istringstream header{line};
    std::string magic, version;
    header >> magic >> version;
    if (magic != kMagic || version != "v" + std::to_string(kVersion)) {
      return skip("unsupported header '" + line + "' (this reader understands '" +
                  std::string(kMagic) + " v" + std::to_string(kVersion) + "')");
    }
  }
  std::uint64_t cost_us = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t crc = 0;
  bool key_checked = false;
  bool ended = false;
  while (std::getline(in, line)) {
    if (line == "end") {
      ended = true;
      break;
    }
    std::istringstream fields{line};
    std::string name;
    fields >> name;
    if (name == "key") {
      std::string content_text, kind_text, fp_text;
      fields >> content_text >> kind_text >> fp_text;
      DiskKey echoed;
      std::uint64_t kind = 0;
      if (!parse_hex(content_text, echoed.content) || !parse_hex(kind_text, kind) ||
          !parse_hex(fp_text, echoed.fingerprint)) {
        return skip("malformed key line '" + line + "'");
      }
      echoed.kind = static_cast<std::uint8_t>(kind);
      if (!(echoed == key)) return skip("fingerprint mismatch (entry echoes a different key)");
      key_checked = true;
    } else if (name == "cost-us") {
      std::string value;
      fields >> value;
      if (!parse_dec(value, cost_us)) return skip("malformed cost line '" + line + "'");
    } else if (name == "payload-bytes") {
      std::string value;
      fields >> value;
      if (!parse_dec(value, payload_bytes)) return skip("malformed length line '" + line + "'");
    } else if (name == "payload-crc32") {
      std::string value;
      fields >> value;
      if (!parse_hex(value, crc)) return skip("malformed crc line '" + line + "'");
    }
    // Unknown keys are ignored: a later writer may add informational lines
    // (like `kind`) without breaking this reader.
  }
  if (!ended) return skip("truncated header (no 'end')");
  if (!key_checked) return skip("header carries no key echo");

  // --- payload ---------------------------------------------------------------
  DiskEntry entry;
  entry.cost_us = cost_us;
  entry.frame.resize(payload_bytes);
  in.read(entry.frame.data(), static_cast<std::streamsize>(payload_bytes));
  if (static_cast<std::uint64_t>(in.gcount()) != payload_bytes) {
    return skip("truncated payload (" + std::to_string(in.gcount()) + " of " +
                std::to_string(payload_bytes) + " bytes)");
  }
  if (in.get() != std::ifstream::traits_type::eof()) return skip("trailing bytes after payload");
  if (support::crc32(entry.frame) != static_cast<std::uint32_t>(crc)) {
    return skip("payload CRC mismatch");
  }

  // Refresh recency, and re-assert the header's cost (covers entries whose
  // startup scan couldn't parse it).
  lru_.splice(lru_.begin(), lru_, it->second.lru);
  it->second.cost_us = cost_us;
  ++hits_;
  return entry;
}

bool DiskTier::contains(const DiskKey& key) const {
  if (!ready_) return false;
  std::lock_guard lock{mutex_};
  return index_.contains(key);
}

void DiskTier::store(const DiskKey& key, std::string_view kind_name, std::string_view frame,
                     std::uint64_t cost_us) {
  if (!ready_) return;

  std::string blob;
  blob.reserve(frame.size() + 128);
  blob += std::string(kMagic) + " v" + std::to_string(kVersion) + "\n";
  blob += "key " + hex(key.content, 16) + " " + hex(key.kind, 2) + " " +
          hex(key.fingerprint, 16) + "\n";
  blob += "kind " + std::string(kind_name) + "\n";
  blob += "cost-us " + std::to_string(cost_us) + "\n";
  blob += "payload-bytes " + std::to_string(frame.size()) + "\n";
  blob += "payload-crc32 " + hex(support::crc32(frame), 8) + "\n";
  blob += "end\n";
  blob += frame;

  if (blob.size() > config_.capacity_bytes) {
    diagnose("refusing to store " + std::to_string(blob.size()) + "-byte entry (capacity " +
             std::to_string(config_.capacity_bytes) + " bytes)");
    return;
  }

  std::lock_guard lock{mutex_};
  const std::string path = path_of(key);
  const std::string temp = path + ".tmp";
  {
    std::ofstream out{temp, std::ios::binary | std::ios::trunc};
    if (!out) {
      diagnose("cannot write '" + temp + "'");
      return;
    }
    out << blob;
    if (!out.flush()) {
      diagnose("short write to '" + temp + "'");
      std::error_code ec;
      fs::remove(temp, ec);
      return;
    }
  }
  if (config_.fsync_policy == PersistConfig::FsyncPolicy::kAlways) {
    if (!fsync_path(temp)) diagnose("fsync failed for '" + temp + "'");
  }
  std::error_code ec;
  fs::rename(temp, path, ec);
  if (ec) {
    diagnose("cannot rename '" + temp + "' into place: " + ec.message());
    fs::remove(temp, ec);
    return;
  }
  if (config_.fsync_policy == PersistConfig::FsyncPolicy::kAlways) {
    if (!fsync_path(config_.dir)) diagnose("fsync failed for '" + config_.dir + "'");
  }

  // Replace any previous entry of this key in the accounting, then index
  // the new bytes as most recently used and trim to capacity.
  if (const auto it = index_.find(key); it != index_.end()) {
    bytes_ -= std::min(bytes_, it->second.bytes);
    lru_.erase(it->second.lru);
    index_.erase(it);
  }
  lru_.push_front(key);
  index_.emplace(key, IndexEntry{blob.size(), cost_us, lru_.begin()});
  bytes_ += blob.size();
  ++stores_;
  evict_to_fit_locked();
}

void DiskTier::remove(const DiskKey& key, std::string_view reason) {
  if (!ready_) return;
  std::lock_guard lock{mutex_};
  if (!index_.contains(key)) return;
  diagnose("compacting entry '" + fs::path(path_of(key)).filename().string() +
           "': " + std::string(reason));
  drop_locked(key, &skipped_);
}

void DiskTier::flush() {
  if (!ready_) return;
  std::lock_guard lock{mutex_};
  if (!fsync_path(config_.dir)) diagnose("fsync failed for '" + config_.dir + "'");
}

void DiskTier::clear() {
  if (!ready_) return;
  std::lock_guard lock{mutex_};
  for (const DiskKey& key : lru_) {
    std::error_code ec;
    fs::remove(path_of(key), ec);
  }
  lru_.clear();
  index_.clear();
  bytes_ = 0;
}

DiskStats DiskTier::stats() const {
  DiskStats stats;
  stats.capacity_bytes = config_.capacity_bytes;
  if (!ready_) return stats;
  std::lock_guard lock{mutex_};
  stats.hits = hits_;
  stats.misses = misses_;
  stats.stores = stores_;
  stats.skipped = skipped_;
  stats.evictions = evictions_;
  stats.entries = index_.size();
  stats.bytes = bytes_;
  return stats;
}

}  // namespace spivar::persist
