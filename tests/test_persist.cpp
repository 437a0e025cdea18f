// Persistent tier correctness: the DiskTier file format end to end
// (round-trip, restart re-index, truncation/bit-rot/version/key-echo
// corruption skipped + compacted, byte-capacity eviction, unusable-directory
// degradation), the tiered ResultCache (write-through, evict-spill-promote
// bit-identical, restart re-hit with zero re-evaluations, corrupt entries
// falling through to live evaluation), adaptive cost-window tuning, and
// restart-stable content fingerprints. The concurrency stress at the bottom
// is what the TSAN CI job runs against the disk tier.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/api.hpp"
#include "variant/textio.hpp"

namespace spivar {
namespace {

namespace fs = std::filesystem;

using api::ModelStore;
using api::Session;
using persist::DiskKey;
using persist::DiskTier;
using persist::PersistConfig;

template <typename T>
std::string render_result(const api::Result<T>& result) {
  return result.ok() ? api::render(result.value())
                     : api::render_diagnostics(result.diagnostics());
}

/// A cache key of request kind `kind` over model content `content`.
api::ResultCache::Key key_of(std::uint64_t fingerprint, std::uint64_t content = 1,
                             api::RequestKind kind = api::RequestKind::kSimulate) {
  return {.content = content, .kind = static_cast<std::uint8_t>(kind),
          .fingerprint = fingerprint};
}

/// An empty successful result of response type `Response`.
template <typename Response = api::SimulateResponse>
api::Result<api::AnyResponse> empty_result() {
  return api::Result<api::AnyResponse>::success(Response{});
}

/// A per-test scratch directory, removed on destruction.
class TempDir {
 public:
  TempDir() {
    static std::atomic<int> counter{0};
    path_ = fs::temp_directory_path() /
            ("spivar_persist_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter.fetch_add(1)));
    fs::remove_all(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  [[nodiscard]] std::string str() const { return path_.string(); }
  [[nodiscard]] const fs::path& path() const { return path_; }

  [[nodiscard]] std::vector<fs::path> entry_files() const {
    std::vector<fs::path> files;
    std::error_code ec;
    for (const auto& item : fs::directory_iterator{path_, ec}) {
      if (item.path().extension() == ".spr") files.push_back(item.path());
    }
    return files;
  }

 private:
  fs::path path_;
};

std::string read_file(const fs::path& path) {
  std::ifstream in{path, std::ios::binary};
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const fs::path& path, const std::string& bytes) {
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  out << bytes;
}

/// Collects the tier's diagnostics instead of letting them hit stderr.
struct SinkLog {
  std::vector<std::string> lines;
  [[nodiscard]] persist::DiagnosticSink sink() {
    return [this](const std::string& line) { lines.push_back(line); };
  }
  [[nodiscard]] bool mentions(std::string_view needle) const {
    for (const auto& line : lines) {
      if (line.find(needle) != std::string::npos) return true;
    }
    return false;
  }
};

// --- DiskTier: format round-trip and restart ---------------------------------

TEST(DiskTier, StoreLoadRoundTripsFrameAndCost) {
  TempDir dir;
  SinkLog log;
  DiskTier tier{{.dir = dir.str()}, log.sink()};
  ASSERT_TRUE(tier.ready());

  const DiskKey key{.content = 0xabcdef0011223344, .kind = 0, .fingerprint = 42};
  EXPECT_FALSE(tier.contains(key));
  tier.store(key, "simulate", "response v1\nstatus ok\nend\n", 1234);
  EXPECT_TRUE(tier.contains(key));

  const auto entry = tier.load(key, "simulate");
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->frame, "response v1\nstatus ok\nend\n");
  EXPECT_EQ(entry->cost_us, 1234u);

  const auto stats = tier.stats();
  EXPECT_EQ(stats.stores, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);
  EXPECT_TRUE(log.lines.empty());

  // A key never stored is a clean miss, not an error.
  EXPECT_FALSE(tier.load({.content = 1, .kind = 1, .fingerprint = 2}, "analyze").has_value());
  EXPECT_EQ(tier.stats().misses, 1u);
}

TEST(DiskTier, RestartReindexesEntriesWrittenByAnEarlierLife) {
  TempDir dir;
  const DiskKey key{.content = 7, .kind = 2, .fingerprint = 9};
  {
    DiskTier first{{.dir = dir.str()}};
    first.store(key, "explore", "payload bytes", 55);
  }
  SinkLog log;
  DiskTier second{{.dir = dir.str()}, log.sink()};
  ASSERT_TRUE(second.ready());
  EXPECT_TRUE(second.contains(key));
  const auto entry = second.load(key, "explore");
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->frame, "payload bytes");
  EXPECT_EQ(entry->cost_us, 55u);
  EXPECT_TRUE(log.lines.empty());
}

TEST(DiskTier, MalformedFileNamesAreCompactedAtStartup) {
  TempDir dir;
  fs::create_directories(dir.path());
  write_file(dir.path() / "garbage.spr", "not an entry");
  SinkLog log;
  DiskTier tier{{.dir = dir.str()}, log.sink()};
  ASSERT_TRUE(tier.ready());
  EXPECT_EQ(tier.stats().entries, 0u);
  EXPECT_EQ(tier.stats().skipped, 1u);
  EXPECT_FALSE(fs::exists(dir.path() / "garbage.spr"));
  EXPECT_FALSE(log.lines.empty());
}

// --- DiskTier: corruption is skipped, diagnosed, and compacted ---------------

TEST(DiskTier, TruncatedEntryIsSkippedDiagnosedAndDeleted) {
  TempDir dir;
  const DiskKey key{.content = 0x11, .kind = 0, .fingerprint = 0x22};
  {
    DiskTier writer{{.dir = dir.str()}};
    writer.store(key, "simulate", "a response frame that is long enough to truncate", 7);
  }
  const auto files = dir.entry_files();
  ASSERT_EQ(files.size(), 1u);
  const std::string bytes = read_file(files.front());
  write_file(files.front(), bytes.substr(0, bytes.size() / 2));  // torn write

  SinkLog log;
  DiskTier tier{{.dir = dir.str()}, log.sink()};
  EXPECT_TRUE(tier.contains(key));  // the index trusts names until a load
  EXPECT_FALSE(tier.load(key, "simulate").has_value());
  EXPECT_TRUE(log.mentions("skipping stale/corrupt entry"));
  EXPECT_FALSE(tier.contains(key));
  EXPECT_FALSE(fs::exists(files.front()));  // compacted away
  EXPECT_EQ(tier.stats().skipped, 1u);
  EXPECT_EQ(tier.stats().entries, 0u);
}

TEST(DiskTier, BitRotFailsTheCrcAndIsSkipped) {
  TempDir dir;
  const DiskKey key{.content = 0x33, .kind = 1, .fingerprint = 0x44};
  {
    DiskTier writer{{.dir = dir.str()}};
    writer.store(key, "analyze", "pristine payload bytes", 7);
  }
  const auto files = dir.entry_files();
  ASSERT_EQ(files.size(), 1u);
  std::string bytes = read_file(files.front());
  bytes[bytes.size() - 4] ^= 0x01;  // flip one payload bit
  write_file(files.front(), bytes);

  SinkLog log;
  DiskTier tier{{.dir = dir.str()}, log.sink()};
  EXPECT_FALSE(tier.load(key, "analyze").has_value());
  EXPECT_TRUE(log.mentions("skipping stale/corrupt entry"));
  EXPECT_EQ(tier.stats().skipped, 1u);
  EXPECT_TRUE(dir.entry_files().empty());
}

TEST(DiskTier, WrongFormatVersionIsSkippedNotMisread) {
  TempDir dir;
  const DiskKey key{.content = 0x55, .kind = 0, .fingerprint = 0x66};
  {
    DiskTier writer{{.dir = dir.str()}};
    writer.store(key, "simulate", "payload", 7);
  }
  const auto files = dir.entry_files();
  ASSERT_EQ(files.size(), 1u);
  std::string bytes = read_file(files.front());
  const auto pos = bytes.find("spivar-disk v1");
  ASSERT_NE(pos, std::string::npos);
  bytes.replace(pos, 14, "spivar-disk v9");
  write_file(files.front(), bytes);

  SinkLog log;
  DiskTier tier{{.dir = dir.str()}, log.sink()};
  EXPECT_FALSE(tier.load(key, "simulate").has_value());
  EXPECT_TRUE(log.mentions("skipping stale/corrupt entry"));
  EXPECT_EQ(tier.stats().skipped, 1u);
}

TEST(DiskTier, KeyEchoMismatchIsSkipped) {
  // A file renamed (or restored) under the wrong key must not serve another
  // key's payload: the header echoes the key and the echo is validated.
  TempDir dir;
  const DiskKey a{.content = 0x77, .kind = 0, .fingerprint = 0x88};
  const DiskKey b{.content = 0x99, .kind = 0, .fingerprint = 0xaa};
  {
    DiskTier writer{{.dir = dir.str()}};
    writer.store(a, "simulate", "payload of a", 7);
    writer.store(b, "simulate", "payload of b", 7);
  }
  auto files = dir.entry_files();
  ASSERT_EQ(files.size(), 2u);
  // Overwrite b's file with a's contents: name says b, header says a.
  const bool first_is_a = read_file(files[0]).find("payload of a") != std::string::npos;
  const fs::path& file_a = first_is_a ? files[0] : files[1];
  const fs::path& file_b = first_is_a ? files[1] : files[0];
  write_file(file_b, read_file(file_a));

  SinkLog log;
  DiskTier tier{{.dir = dir.str()}, log.sink()};
  EXPECT_FALSE(tier.load(b, "simulate").has_value());
  EXPECT_TRUE(log.mentions("skipping stale/corrupt entry"));
  const auto entry = tier.load(a, "simulate");  // a itself is untouched
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->frame, "payload of a");
}

// --- DiskTier: capacity, compaction hooks, degradation -----------------------

TEST(DiskTier, ByteCapacityEvictsLeastRecentlyUsedEntries) {
  TempDir dir;
  DiskTier tier{{.dir = dir.str(), .capacity_bytes = 600}};
  const auto key = [](std::uint64_t fingerprint) {
    return DiskKey{.content = 1, .kind = 0, .fingerprint = fingerprint};
  };
  const std::string frame(120, 'x');  // ~200 bytes per entry with the header
  tier.store(key(1), "simulate", frame, 1);
  tier.store(key(2), "simulate", frame, 1);
  ASSERT_TRUE(tier.contains(key(1)));
  ASSERT_TRUE(tier.load(key(1), "simulate").has_value());  // refresh recency
  tier.store(key(3), "simulate", frame, 1);                // over budget

  EXPECT_GT(tier.stats().evictions, 0u);
  EXPECT_LE(tier.stats().bytes, 600u);
  EXPECT_TRUE(tier.contains(key(1)));   // recently touched: survived
  EXPECT_FALSE(tier.contains(key(2)));  // LRU victim
  EXPECT_TRUE(tier.contains(key(3)));
}

TEST(DiskTier, OversizedEntryIsRefusedWithADiagnostic) {
  TempDir dir;
  SinkLog log;
  DiskTier tier{{.dir = dir.str(), .capacity_bytes = 64}, log.sink()};
  tier.store({.content = 1, .kind = 0, .fingerprint = 1}, "simulate",
             std::string(4096, 'x'), 1);
  EXPECT_EQ(tier.stats().entries, 0u);
  EXPECT_FALSE(log.lines.empty());
}

TEST(DiskTier, RemoveCompactsTheCallersStaleEntry) {
  TempDir dir;
  SinkLog log;
  DiskTier tier{{.dir = dir.str()}, log.sink()};
  const DiskKey key{.content = 5, .kind = 0, .fingerprint = 6};
  tier.store(key, "simulate", "frame", 1);
  tier.remove(key, "decodes under a newer wire version");
  EXPECT_FALSE(tier.contains(key));
  EXPECT_EQ(tier.stats().skipped, 1u);
  EXPECT_TRUE(log.mentions("compacting"));
  EXPECT_TRUE(dir.entry_files().empty());
}

TEST(DiskTier, UnusableDirectoryDegradesToANoOpMiss) {
  TempDir dir;
  fs::create_directories(dir.path());
  const fs::path blocker = dir.path() / "occupied";
  write_file(blocker, "a file where the tier wants a directory");

  SinkLog log;
  DiskTier tier{{.dir = blocker.string()}, log.sink()};
  EXPECT_FALSE(tier.ready());
  EXPECT_FALSE(log.lines.empty());  // reported once at setup

  const DiskKey key{.content = 1, .kind = 0, .fingerprint = 1};
  tier.store(key, "simulate", "frame", 1);  // all no-ops, no crash
  EXPECT_FALSE(tier.contains(key));
  EXPECT_FALSE(tier.load(key, "simulate").has_value());
  EXPECT_EQ(tier.stats().entries, 0u);
}

// --- tiered ResultCache: write-through, spill, promote -----------------------

TEST(TieredCache, InsertsWriteThroughAndContentlessModelsEvaluateUncached) {
  TempDir dir;
  api::ResultCache cache{{.capacity = 8, .shards = 1, .persist = PersistConfig{.dir = dir.str()}}};
  ASSERT_TRUE(cache.persistent());
  cache.insert(key_of(1, 0xc1), empty_result(), 10);
  cache.insert(key_of(2, 0xc1), empty_result(), 10);

  cache.drain_spills();  // write-through is async by default; settle before counting
  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.disk_spills, 2u);
  EXPECT_EQ(stats.disk_entries, 2u);
  // Write-through already covered everything persistable.
  EXPECT_EQ(cache.persist_all(), 0u);

  // A model whose name cannot be written as text has no content identity:
  // its evaluations never reach either tier.
  Session session;
  session.enable_cache({.capacity = 8});
  const auto text = session.write_text(session.load(api::ModelSpec{"fig1"}).value().id);
  ASSERT_TRUE(text.ok());
  const auto loaded = session.load(api::ModelText{text.value(), "no identity"});
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.value().content_fingerprint, 0u);
  const auto first = session.simulate({.model = loaded.value().id});
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(render_result(session.simulate({.model = loaded.value().id})), render_result(first));
  const auto uncached = *session.cache_stats();
  EXPECT_EQ(uncached.hits + uncached.misses, 0u);
  EXPECT_EQ(uncached.entries, 0u);
}

TEST(TieredCache, EvictedEntriesPromoteBackFromDiskBitIdentical) {
  TempDir dir;
  Session reference;  // no cache: the ground truth
  const auto model = reference.load(api::ModelSpec{"fig1"});
  ASSERT_TRUE(model.ok());
  // Single shard, capacity 2, equal costs: seed 1 is deterministically the
  // eviction victim of seed 3's insert.
  api::ResultCache cache{{.capacity = 2, .shards = 1,
                          .persist = PersistConfig{.dir = dir.str()}}};
  std::vector<std::string> truth;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    api::SimulateRequest request{.model = model.value().id};
    request.options.resolution = sim::Resolution::kRandom;
    request.options.seed = seed;
    api::Result<api::AnyResponse> result = reference.call({.payload = request});
    ASSERT_TRUE(result.ok());
    truth.push_back(api::wire::encode(result));
    cache.insert(key_of(seed), std::move(result), 100);
  }
  cache.drain_spills();  // the test counts disk writes at exact points
  auto stats = cache.stats();
  ASSERT_EQ(stats.evictions, 1u);     // seed 1 left the memory tier...
  ASSERT_EQ(stats.disk_entries, 3u);  // ...but write-through has it on disk

  // Memory miss -> disk hit -> promoted, and the bytes match a cold eval.
  const auto promoted = cache.find(key_of(1));
  ASSERT_NE(promoted, nullptr);
  EXPECT_EQ(api::wire::encode(*promoted), truth.front());
  stats = cache.stats();
  EXPECT_EQ(stats.hits, 0u);  // never served from memory
  EXPECT_EQ(stats.disk_hits, 1u);
  EXPECT_EQ(stats.disk_promotes, 1u);
  EXPECT_EQ(stats.saved_cost_us, 100u);  // the disk hit repaid its stored cost
}

// --- tiered ResultCache: the restart contract --------------------------------

TEST(TieredCache, RestartReHitsEveryKindBitIdenticalWithZeroReEvaluations) {
  TempDir dir;
  const api::CacheConfig config{.capacity = 64, .persist = PersistConfig{.dir = dir.str()}};

  const auto run_all = [](Session& session, api::ModelId id) {
    api::SimulateRequest simulate{.model = id};
    simulate.options.resolution = sim::Resolution::kRandom;
    simulate.options.seed = 7;
    api::AnalyzeRequest analyze{.model = id};
    api::ExploreRequest explore{.model = id};
    api::ParetoRequest pareto{.model = id};
    pareto.options.samples = 256;
    api::CompareRequest compare{.model = id};
    compare.options.engine = synth::ExploreEngine::kGreedy;
    return std::vector<std::string>{
        render_result(session.simulate(simulate)), render_result(session.analyze(analyze)),
        render_result(session.explore(explore)), render_result(session.pareto(pareto)),
        render_result(session.compare(compare))};
  };

  std::vector<std::string> first_life;
  std::uint64_t first_fingerprint = 0;
  {
    Session session;
    const auto cache = session.enable_cache(config);
    const auto loaded = session.load(api::ModelSpec{"fig2"});
    ASSERT_TRUE(loaded.ok());
    first_fingerprint = loaded.value().content_fingerprint;
    ASSERT_NE(first_fingerprint, 0u);
    first_life = run_all(session, loaded.value().id);
    cache->drain_spills();  // the mid-life disk_spills count below is exact
    EXPECT_EQ(session.cache_stats()->disk_spills, 5u);  // write-through
  }  // process "dies": only the directory survives

  Session session;
  const auto cache = session.enable_cache(config);
  const auto reloaded = session.load(api::ModelSpec{"fig2"});
  ASSERT_TRUE(reloaded.ok());
  // Fresh store id, same content: the restart-stable half of the key.
  EXPECT_EQ(reloaded.value().content_fingerprint, first_fingerprint);

  EXPECT_EQ(run_all(session, reloaded.value().id), first_life);

  cache->drain_spills();  // a write-through, had there been one, is counted
  const auto stats = *session.cache_stats();
  EXPECT_EQ(stats.hits, 0u);          // memory was cold the whole time
  EXPECT_EQ(stats.misses, 5u);
  EXPECT_EQ(stats.disk_hits, 5u);     // every kind served from the earlier life
  EXPECT_EQ(stats.disk_promotes, 5u);
  EXPECT_EQ(stats.entries, 5u);       // promoted back into memory
  // The proof of zero re-evaluations: nothing was inserted, so nothing was
  // written through (promotes deliberately do not write back down).
  EXPECT_EQ(stats.disk_spills, 0u);
}

TEST(TieredCache, AnalyzeFromDiskMatchesTheAskingLifesUncachedFrame) {
  TempDir dir;
  const api::CacheConfig config{.capacity = 64, .persist = PersistConfig{.dir = dir.str()}};
  const auto analyze_fig2 = [](Session& session) {
    return api::wire::encode(
        session.call({.payload = api::AnalyzeRequest{}, .target = "fig2"}));
  };
  {
    Session first;
    const auto cache = first.enable_cache(config);
    ASSERT_EQ(analyze_fig2(first).rfind("response v1 ok", 0), 0u);
    cache->drain_spills();  // on disk before the second life asks
  }
  // Life 2 loads fig1 first, so fig2 gets another handle than in life 1;
  // the reply served from disk must not carry life 1's handle.
  Session second;
  second.enable_cache(config);
  ASSERT_TRUE(second.load(api::ModelSpec{"fig1"}).ok());
  const std::string from_disk = analyze_fig2(second);
  EXPECT_EQ(second.cache_stats()->disk_hits, 1u);

  Session uncached;
  ASSERT_TRUE(uncached.load(api::ModelSpec{"fig1"}).ok());
  EXPECT_EQ(from_disk, analyze_fig2(uncached));
}

TEST(TieredCache, CuratedBuiltinAndItsTextCopyNeverShareDiskEntries) {
  TempDir dir;
  const api::CacheConfig config{.capacity = 64, .persist = PersistConfig{.dir = dir.str()}};
  Session session;
  const auto cache = session.enable_cache(config);
  const auto builtin = session.load(api::ModelSpec{"fig2"});
  ASSERT_TRUE(builtin.ok());
  const auto curated = session.explore({.model = builtin.value().id});
  ASSERT_TRUE(curated.ok()) << curated.error_summary();
  ASSERT_EQ(curated.value().library_origin, "curated");
  cache->drain_spills();  // the builtin's entry is on disk before the copy asks

  // The text copy has the same text identity, but synthesizes over a
  // derived library — the curated answer on disk is not its answer.
  const auto text = session.write_text(builtin.value().id);
  ASSERT_TRUE(text.ok());
  const auto copy = session.load(api::ModelText{text.value()});
  ASSERT_TRUE(copy.ok());
  EXPECT_EQ(copy.value().content_fingerprint, builtin.value().content_fingerprint);
  const auto derived = session.explore({.model = copy.value().id});
  ASSERT_TRUE(derived.ok()) << derived.error_summary();
  EXPECT_EQ(derived.value().library_origin, "derived");

  Session uncached;
  const auto reference_copy = uncached.load(api::ModelText{text.value()});
  ASSERT_TRUE(reference_copy.ok());
  const auto reference = uncached.explore({.model = reference_copy.value().id});
  ASSERT_TRUE(reference.ok());
  const auto encode = [](const api::ExploreResponse& response) {
    return api::wire::encode(api::Result<api::AnyResponse>::success(response));
  };
  EXPECT_EQ(encode(derived.value()), encode(reference.value()));
}

TEST(TieredCache, CorruptEntryFallsThroughToLiveEvaluation) {
  TempDir dir;
  const auto key = key_of(42, 0xbeef);
  {
    api::ResultCache cache{{.capacity = 8, .persist = PersistConfig{.dir = dir.str()}}};
    cache.insert(key, empty_result(), 10);
  }
  auto files = dir.entry_files();
  ASSERT_EQ(files.size(), 1u);
  const std::string bytes = read_file(files.front());
  write_file(files.front(), bytes.substr(0, bytes.size() - 5));  // torn tail

  SinkLog log;
  api::ResultCache cache{{.capacity = 8, .persist = PersistConfig{.dir = dir.str()}},
                         log.sink()};
  // Same key, fresh life: the poisoned entry must not surface...
  EXPECT_EQ(cache.find(key), nullptr);
  EXPECT_TRUE(log.mentions("skipping stale/corrupt entry"));
  auto stats = cache.stats();
  EXPECT_EQ(stats.disk_skipped, 1u);
  EXPECT_EQ(stats.disk_entries, 0u);  // compacted
  // ...and the slot heals through a live (re)insert like any cold miss.
  cache.insert(key, empty_result(), 10);
  EXPECT_NE(cache.find(key), nullptr);
  cache.drain_spills();  // let the healing write-through land
  EXPECT_EQ(cache.stats().disk_entries, 1u);
}

TEST(TieredCache, ClearKeepsDiskUnlessAskedAndFlushWipesBothTiers) {
  TempDir dir;
  api::ResultCache cache{{.capacity = 8, .persist = PersistConfig{.dir = dir.str()}}};
  const auto key = key_of(1, 2, api::RequestKind::kCompare);
  cache.insert(key, empty_result<api::CompareResponse>(), 10);
  cache.drain_spills();  // let the async write-through land before clearing

  cache.clear(/*include_disk=*/false);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().disk_entries, 1u);
  EXPECT_NE(cache.find(key), nullptr);  // promoted back

  cache.clear(/*include_disk=*/true);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().disk_entries, 0u);
  EXPECT_EQ(cache.find(key), nullptr);
  EXPECT_TRUE(dir.entry_files().empty());
}

// --- async spill queue -------------------------------------------------------

TEST(AsyncSpill, QueuedWriteThroughLandsOnDiskAfterDrain) {
  TempDir dir;
  api::ResultCache cache{{.capacity = 8, .persist = PersistConfig{.dir = dir.str()}}};
  for (std::uint64_t i = 1; i <= 4; ++i) cache.insert(key_of(i, 0xabc), empty_result(), 10);
  cache.drain_spills();
  const auto stats = cache.stats();
  EXPECT_TRUE(stats.disk_async);
  EXPECT_EQ(stats.disk_queue_depth, 0u);    // drained means drained
  EXPECT_GT(stats.disk_queue_capacity, 0u);
  EXPECT_EQ(stats.disk_entries, 4u);
  EXPECT_EQ(stats.disk_spills, 4u);
}

TEST(AsyncSpill, OverflowDropsSpillsInsteadOfBlockingAndCountsThem) {
  TempDir dir;
  // A one-slot queue under a burst of inserts: some spills are written by the
  // drain thread, the rest are dropped at the full queue. The conservation
  // law is exact either way: every write-through spill is stored or counted
  // dropped — never silently lost, and the inserter never blocks.
  api::ResultCache cache{{.capacity = 256, .shards = 1,
                          .persist = PersistConfig{.dir = dir.str()},
                          .spill_queue = 1}};
  constexpr std::uint64_t kInserts = 64;
  for (std::uint64_t i = 1; i <= kInserts; ++i) cache.insert(key_of(i, 0xbeef), empty_result(), 10);
  cache.drain_spills();
  const auto stats = cache.stats();
  EXPECT_EQ(stats.disk_queue_capacity, 1u);
  EXPECT_EQ(stats.disk_spills + stats.disk_dropped_spills, kInserts);
  // persist_all backfills exactly what the overflow dropped (synchronously).
  EXPECT_EQ(cache.persist_all(), stats.disk_dropped_spills);
  EXPECT_EQ(cache.stats().disk_entries, kInserts);
}

TEST(AsyncSpill, FsyncAlwaysForcesSynchronousSpills) {
  TempDir dir;
  // Durability contract: with FsyncPolicy::kAlways, spills are synchronous —
  // an insert returns only after its entry is on disk (and fsynced).
  api::ResultCache cache{{.capacity = 8,
                          .persist = PersistConfig{
                              .dir = dir.str(),
                              .fsync_policy = PersistConfig::FsyncPolicy::kAlways}}};
  cache.insert(key_of(1, 0xf00d), empty_result(), 10);
  const auto stats = cache.stats();  // no drain: the write already happened
  EXPECT_FALSE(stats.disk_async);
  EXPECT_EQ(stats.disk_entries, 1u);
  EXPECT_EQ(stats.disk_spills, 1u);
}

// --- adaptive cost window ----------------------------------------------------

TEST(AdaptiveWindow, WidensWhenEvictionsThrowAwayMoreThanHitsSave) {
  api::ResultCache cache{{.capacity = 2, .shards = 1, .adaptive_window = true}};
  // 34 inserts into capacity 2 = 32 evictions, each discarding 1000 us of
  // never-hit work: at the 32nd eviction avg_evicted (1000) > avg_saved (0),
  // so the window doubles.
  for (std::uint64_t i = 1; i <= 34; ++i) {
    cache.insert(key_of(i), empty_result(), 1000);
  }
  const auto stats = cache.stats();
  EXPECT_EQ(stats.evictions, 32u);
  EXPECT_EQ(stats.cost_window, 8u);
  EXPECT_EQ(stats.window_adaptations, 1u);
}

TEST(AdaptiveWindow, ShrinksTowardPlainRecencyWhenHitsDwarfEvictions) {
  api::ResultCache cache{{.capacity = 2, .shards = 1, .adaptive_window = true}};
  // One expensive entry hit often (avg_saved = 1s) while cheap churn drives
  // the evictions (avg_evicted = 1 us): 1 * 4 < 1'000'000, so the window
  // halves at the 32nd eviction.
  cache.insert(key_of(1000), empty_result(), 1'000'000);
  for (int hit = 0; hit < 8; ++hit) {
    ASSERT_NE(cache.find(key_of(1000)), nullptr);
  }
  for (std::uint64_t i = 1; i <= 33; ++i) {  // churn: 32 evictions of cost 1
    cache.insert(key_of(i), empty_result(), 1);
  }
  const auto stats = cache.stats();
  EXPECT_GE(stats.evictions, 32u);
  EXPECT_EQ(stats.cost_window, 2u);
  EXPECT_EQ(stats.window_adaptations, 1u);
}

TEST(AdaptiveWindow, StaysFixedWhenDisabled) {
  api::ResultCache cache{{.capacity = 2, .shards = 1}};
  for (std::uint64_t i = 1; i <= 40; ++i) cache.insert(key_of(i), empty_result(), 1000);
  EXPECT_EQ(cache.stats().cost_window, 4u);
  EXPECT_EQ(cache.stats().window_adaptations, 0u);
}

// --- content fingerprints ----------------------------------------------------

TEST(ContentFingerprint, StableAcrossStoresAndDistinctAcrossModels) {
  ModelStore a;
  ModelStore b;
  const auto fig1_a = a.load(api::ModelSpec{"fig1"});
  const auto fig1_b = b.load(api::ModelSpec{"fig1"});
  const auto fig2_a = a.load(api::ModelSpec{"fig2"});
  ASSERT_TRUE(fig1_a.ok() && fig1_b.ok() && fig2_a.ok());

  EXPECT_NE(fig1_a.value().content_fingerprint, 0u);
  // Same content, different store: same fingerprint — the invariant the
  // whole restart story stands on (store ids carry no content identity).
  EXPECT_EQ(fig1_a.value().content_fingerprint, fig1_b.value().content_fingerprint);
  EXPECT_NE(fig1_a.value().content_fingerprint, fig2_a.value().content_fingerprint);
}

TEST(ContentFingerprint, MatchesTheCanonicalTextRoundTrip) {
  Session session;
  const auto loaded = session.load(api::ModelSpec{"video_system"});
  ASSERT_TRUE(loaded.ok());
  const auto snapshot = session.store()->find(loaded.value().id);
  ASSERT_NE(snapshot, nullptr);
  // The fingerprint is defined over the canonical .spit text, so a model
  // parsed back from its own write_text must fingerprint identically.
  const variant::VariantModel reparsed = variant::parse_text(
      variant::write_text(snapshot->model()));
  EXPECT_EQ(variant::content_fingerprint(reparsed),
            loaded.value().content_fingerprint);
}

// --- concurrency (the TSAN job runs this binary) -----------------------------

TEST(TieredCache, ConcurrentInsertFindAndAdminAreRaceFree) {
  TempDir dir;
  api::ResultCache cache{{.capacity = 32, .shards = 4, .adaptive_window = true,
                          .persist = PersistConfig{.dir = dir.str()}}};
  constexpr int kThreads = 4;
  constexpr std::uint64_t kOpsPerThread = 120;

  std::vector<std::thread> workers;
  workers.reserve(kThreads + 1);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&cache, t] {
      for (std::uint64_t i = 0; i < kOpsPerThread; ++i) {
        const auto key = key_of((static_cast<std::uint64_t>(t) << 32) | (i % 48), 0xfeed + i % 7);
        cache.insert(key, empty_result(), i);
        (void)cache.find(key);
      }
    });
  }
  workers.emplace_back([&cache] {  // the admin surface races the workers
    for (int i = 0; i < 30; ++i) {
      (void)cache.stats();
      (void)cache.persist_all();
      if (i % 10 == 9) cache.clear(/*include_disk=*/false);
    }
  });
  for (auto& worker : workers) worker.join();

  cache.drain_spills();
  const auto stats = cache.stats();  // still consistent and serving
  EXPECT_GT(stats.disk_spills, 0u);
  EXPECT_LE(stats.entries, 32u);
}

}  // namespace
}  // namespace spivar
