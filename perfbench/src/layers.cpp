#include "layers.hpp"

#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <unordered_set>

#include "api/api.hpp"
#include "api/wire.hpp"
#include "sim/engine.hpp"
#include "support/json.hpp"
#include "synth/explore.hpp"

namespace perfbench {
namespace {

using namespace spivar;

/// Cache identity of a request as the server keys it: kind, target and
/// canonical fingerprint.
std::uint64_t request_key(const api::AnyRequest& request) {
  std::uint64_t key = api::fingerprint(request);
  key ^= std::hash<std::string>{}(request.target) + 0x9e3779b97f4a7c15ULL + (key << 6) + (key >> 2);
  return key * 31 + static_cast<std::uint64_t>(api::kind_of(request));
}

double micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

/// A metric name segment made of name-safe characters ("sweep/x" -> "sweep_x").
std::string segment(std::string text) {
  for (char& c : text) {
    if (c == '/') c = '_';
  }
  return text;
}

/// Times `calls` invocations of `fn`, each one span named `name` in a trace
/// of its own.
void probe(Tracer& tracer, const std::string& name, std::size_t calls,
           const std::function<void()>& fn) {
  for (std::size_t i = 0; i < calls; ++i) {
    const std::int64_t span = tracer.begin(tracer.next_trace(), name);
    fn();
    tracer.end(span);
  }
}

api::AnyRequest on_target(api::RequestPayload payload, std::string target) {
  api::AnyRequest request;
  request.payload = std::move(payload);
  request.target = std::move(target);
  return request;
}

struct Counts {
  std::size_t fast;   ///< sub-10 µs calls (codec, resolve, cache hit, hop)
  std::size_t sim;    ///< simulator runs per target
  std::size_t synth;  ///< synthesis rounds over the explore targets
  std::size_t mint;   ///< fresh corpus names
  std::size_t pings;
  std::chrono::milliseconds depth1_budget;
  std::size_t depth1_cap;
};

Counts counts_for(bool smoke) {
  if (smoke) return {20, 2, 1, 2, 10, std::chrono::milliseconds{300}, 20};
  return {400, 20, 5, 8, 200, std::chrono::milliseconds{2000}, 2000};
}

}  // namespace

std::int64_t Tracer::begin(std::uint64_t trace, std::string name, std::int64_t parent) {
  spans_.push_back({trace, parent, std::move(name),
                    std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_)
                        .count(),
                    -1});
  return static_cast<std::int64_t>(spans_.size() - 1);
}

void Tracer::end(std::int64_t span) {
  spans_[static_cast<std::size_t>(span)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
}

std::vector<double> Tracer::self_us(std::string_view name) const {
  std::vector<std::int64_t> children_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      children_ns[static_cast<std::size_t>(span.parent)] += span.end_ns - span.start_ns;
    }
  }
  std::vector<double> per_trace;
  std::uint64_t current = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.name != name) continue;
    const double self = static_cast<double>(span.end_ns - span.start_ns - children_ns[i]) / 1e3;
    // Spans of one trace are recorded contiguously, so a new trace id
    // starts a new sum.
    if (per_trace.empty() || span.trace != current) {
      per_trace.push_back(0.0);
      current = span.trace;
    }
    per_trace.back() += self;
  }
  return per_trace;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::error_code ignored;
  std::filesystem::create_directories(std::filesystem::path{path}.parent_path(), ignored);
  std::ofstream out{path};
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    support::JsonWriter json{0};
    json.begin_object();
    json.key("trace").value(span.trace);
    json.key("span").value(i);
    json.key("parent").value(span.parent);
    json.key("name").value(span.name);
    json.key("start_ns").value(span.start_ns);
    json.key("end_ns").value(span.end_ns);
    json.end_object();
    out << json.str() << "\n";
  }
  return static_cast<bool>(out.flush());
}

TracedResult traced_pass(const TracedInputs& inputs, const std::string& spans_path) {
  TracedResult result;
  Metrics& metrics = result.metrics;
  const auto put = [&metrics](std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), Metric{value, std::move(unit)}});
  };
  const Counts counts = counts_for(inputs.smoke);
  const Workload& workload = inputs.workload;
  Tracer tracer{Clock::now()};

  // --- loaded phase: the workload's own traffic, counters scraped around it.
  std::unordered_set<std::uint64_t> warm_keys;
  for (const Issued& issued : inputs.warmup) warm_keys.insert(request_key(issued.request));
  std::vector<std::unordered_set<std::uint64_t>> phase_keys(inputs.connections.size());
  std::vector<Source> sources;
  for (std::size_t c = 0; c < inputs.connections.size(); ++c) {
    sources.push_back([&workload, &keys = phase_keys[c],
                       stream = Stream{substream(inputs.seed, 100 + c)}]() mutable {
      Issued issued = workload.draw(stream);
      keys.insert(request_key(issued.request));
      return std::optional<Issued>{std::move(issued)};
    });
  }
  const std::optional<std::string> before_text = control(inputs.control, "metrics");
  const auto origin = Clock::now();
  const auto phase = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>{inputs.seconds});
  LoopResult loaded = drive(inputs.connections, std::move(sources), workload.depth, origin,
                            origin + phase);
  const std::optional<std::string> after_text = control(inputs.control, "metrics");
  result.attempted += loaded.sent;
  result.failed += loaded.failed();
  if (!before_text || !after_text) {
    result.notes.push_back("metrics scrape failed");
    ++result.failed;
  }
  const Scrape before = parse_metrics(before_text.value_or(""));
  const Scrape after = parse_metrics(after_text.value_or(""));
  const auto delta = [&](std::string_view name) { return total(after, name) - total(before, name); };

  // Server latency summaries are lifetime quantiles (a summary cannot be
  // differenced), so quote the kind that dominates the phase, whose count
  // dwarfs the warm-up's.
  api::RequestKind dominant = api::RequestKind::kSimulate;
  double dominant_count = -1.0;
  for (int k = 0; k <= static_cast<int>(api::RequestKind::kCompare); ++k) {
    const auto kind = static_cast<api::RequestKind>(k);
    const std::string series =
        std::string{"spivar_request_latency_us_count{kind=\""} + api::to_string(kind) + "\"}";
    const double count = (after.contains(series) ? after.at(series) : 0.0) -
                         (before.contains(series) ? before.at(series) : 0.0);
    if (count > dominant_count) {
      dominant = kind;
      dominant_count = count;
    }
  }
  const std::string kind_label = std::string{"{kind=\""} + api::to_string(dominant) + "\"";
  const auto server_quantile = [&](const char* q) {
    const std::string series =
        "spivar_request_latency_us" + kind_label + ",quantile=\"" + q + "\"}";
    return after.contains(series) ? after.at(series) : 0.0;
  };
  std::vector<double> client_us;
  for (const Sample& sample : loaded.samples) {
    if (sample.kind == dominant) client_us.push_back(static_cast<double>(sample.latency_ns) / 1e3);
  }
  const double server_p50 = server_quantile("0.5");
  std::size_t new_keys = 0;
  {
    std::unordered_set<std::uint64_t> distinct;
    for (const auto& keys : phase_keys) distinct.insert(keys.begin(), keys.end());
    for (const std::uint64_t key : distinct) new_keys += warm_keys.contains(key) ? 0 : 1;
  }
  const double hits = delta("spivar_cache_hits_total");
  const double misses = delta("spivar_cache_misses_total");
  result.notes.push_back("traced loaded phase: " + std::to_string(loaded.received) +
                         " replies, server quantiles from kind " + api::to_string(dominant) +
                         " (" + std::to_string(static_cast<std::uint64_t>(dominant_count)) +
                         " in phase), " + std::to_string(new_keys) + " new keys, " +
                         std::to_string(static_cast<std::uint64_t>(misses)) + " misses");

  // --- depth-1 requests: the client's round trip, then the same request
  // replayed in-process layer by layer on a mirror of the server's session.
  auto mirror_store = std::make_shared<api::ModelStore>();
  api::Session mirror{mirror_store};
  mirror.bind_tenant(std::make_shared<api::StoreView>(mirror_store, api::TenantContext{}));
  api::CacheConfig mirror_cache;
  mirror_cache.capacity = kServerCache;
  mirror_cache.adaptive_window = true;
  mirror.enable_cache(mirror_cache);
  for (const std::string& target : workload.targets) (void)mirror.resolve(target);
  for (const Issued& issued : inputs.warmup) (void)mirror.call(issued.request);

  Connection& connection = *inputs.connections.front();
  Stream depth1_stream{substream(inputs.seed, 200)};
  std::vector<double> unattributed;
  std::uint64_t mismatches = 0;
  const auto depth1_end = Clock::now() + counts.depth1_budget;
  for (std::size_t i = 0; i < counts.depth1_cap && Clock::now() < depth1_end; ++i) {
    const Issued issued = workload.draw(depth1_stream);
    const std::uint64_t trace = tracer.next_trace();
    const std::uint64_t id = ++connection.next_id;

    const std::int64_t root = tracer.begin(trace, "request");
    const std::int64_t encode_span = tracer.begin(trace, "wire.encode_request", root);
    const std::string frame = api::wire::encode(issued.request, id);
    tracer.end(encode_span);
    const std::int64_t rtt_span = tracer.begin(trace, "service.roundtrip", root);
    const auto rtt_start = Clock::now();
    connection.out << frame << std::flush;
    std::optional<std::string> reply = api::wire::read_frame(connection.in);
    const double rtt = micros(Clock::now() - rtt_start);
    tracer.end(rtt_span);
    tracer.end(root);
    ++result.attempted;
    if (!reply || api::wire::response_frame_id(*reply) != id) {
      ++result.failed;
      break;
    }

    const std::int64_t replay = tracer.begin(trace, "replay");
    const auto replay_start = Clock::now();
    const std::int64_t decode_span = tracer.begin(trace, "wire.decode_request", replay);
    api::Result<api::AnyRequest> decoded = api::wire::decode_request(frame);
    tracer.end(decode_span);
    const std::int64_t resolve_span = tracer.begin(trace, "store.resolve", replay);
    const api::Result<api::ModelInfo> model = mirror.resolve(issued.request.target);
    tracer.end(resolve_span);
    if (!decoded.ok() || !model.ok()) {
      ++result.failed;
      tracer.end(replay);
      continue;
    }
    api::AnyRequest resolved = std::move(decoded).value();
    api::set_model(resolved.payload, model.value().id);
    resolved.target.clear();
    const std::int64_t call_span = tracer.begin(trace, "cache.call", replay);
    const api::Result<api::AnyResponse> answer = mirror.call(resolved);
    tracer.end(call_span);
    const std::int64_t reply_span = tracer.begin(trace, "wire.encode_response", replay);
    const std::string expected = api::wire::encode(answer, id);
    tracer.end(reply_span);
    const double layers = micros(Clock::now() - replay_start);
    tracer.end(replay);
    unattributed.push_back(rtt - layers);
    if (expected != *reply) ++mismatches;
  }
  result.failed += mismatches;
  result.notes.push_back("depth-1 traced requests: " + std::to_string(unattributed.size()) +
                         ", replay mismatches " + std::to_string(mismatches));

  probe(tracer, "service.ping", counts.pings, [&] {
    if (!control(inputs.control, "ping")) ++result.failed;
  });
  result.attempted += counts.pings;

  put("service.ping_rtt_us", median(tracer.self_us("service.ping")), "us");
  put("service.server_p50_us", server_p50, "us");
  put("service.server_p99_us", server_quantile("0.99"), "us");
  put("service.client_gap_p50_us", quantile(client_us, 0.5) - server_p50, "us");
  put("service.backpressure_waits", delta("spivar_stream_backpressure_waits_total"), "count");
  put("service.unattributed_us", median(unattributed), "us");

  // --- in-process layer probes, one representative request per kind.
  api::Session probe_session;
  const std::string model = "fig2";
  const api::AnyRequest per_kind[] = {
      on_target(api::SimulateRequest{}, model),
      on_target(api::AnalyzeRequest{}, model),
      on_target(api::ExploreRequest{}, model),
      on_target(api::CompareRequest{}, model),
  };
  for (const api::AnyRequest& request : per_kind) {
    const std::string kind = api::to_string(api::kind_of(request));
    const std::string frame = api::wire::encode(request, 1);
    probe(tracer, "wire.decode_request." + kind, counts.fast, [&] {
      if (!api::wire::decode_request(frame).ok()) ++result.failed;
    });
    const api::Result<api::AnyResponse> answer = probe_session.call(request);
    if (!answer.ok()) ++result.failed;
    std::size_t bytes = 0;
    probe(tracer, "wire.encode_response." + kind, counts.fast,
          [&] { bytes = api::wire::encode(answer, 1).size(); });
    put("wire.decode_request_us." + kind, median(tracer.self_us("wire.decode_request." + kind)),
        "us");
    put("wire.encode_response_us." + kind,
        median(tracer.self_us("wire.encode_response." + kind)), "us");
    put("wire.response_bytes." + kind, static_cast<double>(bytes), "bytes");
  }

  probe(tracer, "store.resolve", counts.fast, [&] {
    if (!probe_session.resolve(model).ok()) ++result.failed;
  });
  put("store.resolve_us", median(tracer.self_us("store.resolve")), "us");

  put("cache.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
  put("cache.evictions", delta("spivar_cache_evictions_total"), "count");
  put("cache.duplicate_evals", misses - static_cast<double>(new_keys), "count");
  {
    api::Session cached;
    cached.enable_cache(mirror_cache);
    if (!cached.call(per_kind[0]).ok()) ++result.failed;
    probe(tracer, "cache.hit_call", counts.fast, [&] {
      if (!cached.call(per_kind[0]).ok()) ++result.failed;
    });
    put("cache.hit_call_us", median(tracer.self_us("cache.hit_call")), "us");
  }

  {
    const std::shared_ptr<api::Executor> executor = api::make_executor(kServerJobs);
    probe(tracer, "executor.hop", counts.fast, [&] {
      std::promise<void> ran;
      std::future<void> done = ran.get_future();
      executor->submit({[&ran] { ran.set_value(); }});
      done.wait();
    });
    put("executor.hop_us", median(tracer.self_us("executor.hop")), "us");
  }

  std::int64_t firings = 0;
  const std::vector<std::string> sim_targets = make_workload("hot")->targets;
  for (const std::string& target : sim_targets) {
    const api::Result<api::ModelInfo> info = probe_session.resolve(target);
    const api::ModelStore::Snapshot entry =
        info.ok() ? probe_session.store()->find(info.value().id) : nullptr;
    if (!entry) {
      ++result.failed;
      continue;
    }
    const auto run_once = [&entry] {
      return entry->model().interface_count() > 0
                 ? sim::Simulator{entry->model(), sim::SimOptions{}}.run()
                 : sim::Simulator{entry->model().graph(), sim::SimOptions{}}.run();
    };
    firings += run_once().total_firings;
    const std::string name = "sim.run." + segment(target);
    probe(tracer, name, counts.sim, [&] { (void)run_once(); });
    put("sim.run_us." + segment(target), median(tracer.self_us(name)), "us");
  }
  put("sim.firings", static_cast<double>(firings), "count");

  // synth: each round explores every explore-workload target once, one
  // trace per round, so the metric is the time for the whole target set.
  const std::vector<std::string> synth_targets = make_workload("explore")->targets;
  std::vector<std::shared_ptr<const api::SynthesisSetup>> setups;
  for (const std::string& target : synth_targets) {
    const api::Result<api::ModelInfo> info = probe_session.resolve(target);
    const api::ModelStore::Snapshot entry =
        info.ok() ? probe_session.store()->find(info.value().id) : nullptr;
    if (!entry) {
      ++result.failed;
      continue;
    }
    setups.push_back(entry->default_setup());
  }
  SplitMix64 synth_rng{substream(inputs.seed, 300)};
  std::int64_t evaluations = 0;
  for (const synth::ExploreEngine engine :
       {synth::ExploreEngine::kGreedy, synth::ExploreEngine::kAnnealing,
        synth::ExploreEngine::kExhaustive}) {
    const std::string name = std::string{"synth.explore."} + synth::to_string(engine);
    for (std::size_t round = 0; round < counts.synth; ++round) {
      synth::ExploreOptions options;
      options.engine = engine;
      options.seed = 1 + synth_rng.below(1ULL << 40);
      const std::uint64_t trace = tracer.next_trace();
      for (const auto& setup : setups) {
        const std::int64_t span = tracer.begin(trace, name);
        const synth::ExploreResult explored =
            synth::explore(setup->library, setup->problem.apps, options);
        tracer.end(span);
        if (round == 0) evaluations += explored.evaluations;
      }
    }
    put(std::string{"synth.explore_us."} + synth::to_string(engine),
        median(tracer.self_us(name)), "us");
  }
  for (std::size_t round = 0; round < counts.synth; ++round) {
    api::CompareRequest compare;
    compare.options.seed = 1 + synth_rng.below(1ULL << 40);
    const std::uint64_t trace = tracer.next_trace();
    for (const std::string& target : synth_targets) {
      const std::int64_t span = tracer.begin(trace, "synth.compare");
      if (!probe_session.call(on_target(compare, target)).ok()) ++result.failed;
      tracer.end(span);
    }
  }
  put("synth.compare_us", median(tracer.self_us("synth.compare")), "us");
  put("synth.evaluations", static_cast<double>(evaluations), "count");

  SplitMix64 mint_rng{substream(inputs.seed, 400)};
  probe(tracer, "corpus.mint", counts.mint, [&] {
    // A fresh seed each call: the registry mints a corpus name only once
    // per process.
    const std::string name = "sweep/i2v2c2-s" + std::to_string(1'000'000 + mint_rng.below(1ULL << 40));
    if (!probe_session.resolve(name).ok()) ++result.failed;
  });
  put("corpus.mint_us", median(tracer.self_us("corpus.mint")), "us");

  if (!tracer.write_jsonl(spans_path)) {
    result.notes.push_back("cannot write span file " + spans_path);
    ++result.failed;
  } else {
    result.notes.push_back("spans: " + std::to_string(tracer.size()) + " written to " + spans_path);
  }
  return result;
}

}  // namespace perfbench
