// spivar_cli — command-line front end built entirely on api::Session.
//
//   spivar_cli models [--json]            list built-in models (--json adds
//                                         option defaults + the sweep/ corpus)
//   spivar_cli validate <model>           structural + variant diagnostics
//   spivar_cli stats <model>              model statistics
//   spivar_cli simulate <model> [--trace] [--timeline] [--upper] [--random N]
//   spivar_cli dot <model>                GraphViz to stdout (variant-aware)
//   spivar_cli deadlock <model>           structural deadlock report
//   spivar_cli buffers <model>            channel flow classification
//   spivar_cli timing <model> [--reconf]  analytical latency checks
//   spivar_cli analyze <model> [--reconf] all analysis passes at once
//   spivar_cli explore <model> [--engine greedy|exhaustive|annealing]
//                             [--seed N] [--process|--cluster]
//   spivar_cli pareto <model> [--samples N] [--seed N]
//   spivar_cli compare <model> [--engine E] [--seed N] [--strategies a,b,c]
//                             [--all-orders] [--jobs N] [--process|--cluster]
//                             [--rank cost,utilization,time] [--stream]
//   spivar_cli batch <model> [model...] [--sims N] [--jobs N] [--stream]
//                             [--priority low|normal|high] [--deadline-ms N]
//                             seed-sweep simulate batch over every listed
//                             model; --stream prints slots as they land;
//                             --priority/--deadline-ms pick the executor's
//                             scheduling band (EDF within a band)
//   spivar_cli unload <model>             tombstone a model an earlier
//                                         segment loaded (reports
//                                         already-unloaded / never-loaded)
//   spivar_cli cache-stats                result-cache hit/miss counters
//   spivar_cli executor-stats [--jobs N]  executor deadline-miss telemetry
//                                         (completed / misses / lateness)
//   spivar_cli demo [name]                emit a built-in model as spit text
//                                         (variant models include the
//                                         `variants v1` section)
//   spivar_cli selfcheck                  demo -> parse -> validate -> simulate
//
//   spivar_cli remote <host:port> [--tenant NAME[:TOKEN]] <command...>
//                                 [--then <command...>]
//       client mode: runs the same eval commands (simulate/analyze/explore/
//       pareto/compare with their usual flags, plus --priority/--deadline-ms)
//       against a spivar_serve instance over the wire protocol, rendering
//       replies exactly like the local commands; models/load/unload/
//       cache-stats/executor-stats/metrics/ping/shutdown map to control
//       frames, `cache [stats|persist|flush]` administers the server's
//       result cache (persist/flush need a spivar_serve started with
//       --cache-dir), `metrics` fetches the Prometheus text exposition, and
//       `trace [last|slowest|<id>]` renders a completed request's spans.
//       --tenant sends a `hello v1` frame before the first command, binding
//       the connection to that tenant's namespace (scoped models, quotas,
//       per-tenant cache identity); TOKEN authenticates against a
//       provisioned tenant's shared secret.
//
// <model> is a built-in name (see `models`) or a path to a .spit file. Model
// commands accept repeated `--opt key=value` assignments to load a built-in
// with non-default options (e.g. `--opt frames=100 --opt region=2`).
//
// Commands chain with `--then`, sharing one ModelStore for the whole
// invocation — a model loaded (or `--opt`-configured) once is reused by
// every later command. `--cache N` (any segment) enables the store's
// (snapshot, request) result cache with capacity N, so repeated evaluations
// across segments return memoized results:
//
//   spivar_cli simulate fig2 --cache 256
//       --then compare fig2 --all-orders --then cache-stats
#include <charconv>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "api/api.hpp"
#include "api/wire.hpp"
#include "corpus/spec.hpp"
#include "corpus/sweep.hpp"
#include "support/json.hpp"
#include "support/table.hpp"
#include "service/tcp.hpp"
#include "variant/textio.hpp"

namespace {

using namespace spivar;

/// Bad command-line arguments (never an api failure — those come back as
/// Result diagnostics).
class UsageError : public std::runtime_error {
  using std::runtime_error::runtime_error;
};

int usage() {
  std::cerr << "usage: spivar_cli <models|validate|stats|simulate|dot|deadlock|buffers|timing|"
               "analyze|explore|pareto|compare|batch|unload|cache-stats|executor-stats|demo|"
               "selfcheck> [model] [options]\n"
               "       spivar_cli remote <host:port> [--tenant NAME[:TOKEN]] <command...>\n"
               "           drives a spivar_serve (--tenant binds the connection first)\n"
               "       model = built-in name (spivar_cli models) or .spit file path\n"
               "       built-ins take '--opt key=value' (repeatable) for non-default options\n"
               "       commands chain with '--then' and share one model store;\n"
               "       '--cache N' enables the (snapshot, request) result cache\n";
  return 2;
}

using api::report_failure;  // prints diagnostics to stderr, true when failed

bool has_flag(const std::vector<std::string>& flags, const std::string& name) {
  for (const auto& flag : flags) {
    if (flag == name) return true;
  }
  return false;
}

/// Value following `name`, or nullopt when the flag is absent. Callers run
/// check_flags() first — it owns the "a value must follow" rule — so only a
/// bounds guard remains here.
std::optional<std::string> flag_value(const std::vector<std::string>& flags,
                                      const std::string& name) {
  for (std::size_t i = 0; i < flags.size(); ++i) {
    if (flags[i] != name) continue;
    if (i + 1 >= flags.size()) throw UsageError("'" + name + "' requires a value");
    return flags[i + 1];
  }
  return std::nullopt;
}

/// Every value following an occurrence of `name` — for repeatable flags
/// ("--opt frames=100 --opt region=2").
std::vector<std::string> flag_values(const std::vector<std::string>& flags,
                                     const std::string& name) {
  std::vector<std::string> values;
  for (std::size_t i = 0; i < flags.size(); ++i) {
    if (flags[i] != name) continue;
    if (i + 1 >= flags.size()) throw UsageError("'" + name + "' requires a value");
    values.push_back(flags[i + 1]);
  }
  return values;
}

/// Rejects tokens the command does not understand: unknown --flags, the
/// unsupported --flag=value spelling, and stray positional arguments.
/// `value_flags` consume the following token; "--opt" is the one value flag
/// that may repeat.
void check_flags(const std::vector<std::string>& flags,
                 std::initializer_list<const char*> bool_flags,
                 std::initializer_list<const char*> value_flags) {
  const auto matches = [](std::initializer_list<const char*> set, const std::string& flag) {
    for (const char* candidate : set) {
      if (flag == candidate) return true;
    }
    return false;
  };
  std::vector<std::string> seen;
  for (std::size_t i = 0; i < flags.size(); ++i) {
    if (flags[i].rfind("--", 0) != 0) {
      throw UsageError("unexpected argument '" + flags[i] + "'");
    }
    const bool is_value = matches(value_flags, flags[i]);
    if (!is_value && !matches(bool_flags, flags[i])) {
      throw UsageError("unknown option '" + flags[i] + "' (note: --flag=value is not supported, "
                       "use '--flag value')");
    }
    if (flags[i] != "--opt") {
      for (const std::string& earlier : seen) {
        if (earlier == flags[i]) throw UsageError("duplicate option '" + flags[i] + "'");
      }
    }
    seen.push_back(flags[i]);
    if (is_value) {
      if (i + 1 >= flags.size() || flags[i + 1].rfind("--", 0) == 0) {
        throw UsageError("'" + flags[i] + "' requires a value");
      }
      ++i;
    }
  }
}

std::uint64_t parse_u64(const std::string& text, const std::string& flag) {
  std::uint64_t value = 0;
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || end != text.data() + text.size()) {
    throw UsageError("invalid value '" + text + "' for " + flag);
  }
  return value;
}

/// 16-hex-digit content fingerprint of the builtin `name` instantiated with
/// default options — the restart-stable identity the persistent result
/// cache keys on (equal text ⇒ equal fingerprint, across processes). Empty
/// when the name doesn't resolve or the model can't be built.
std::string content_fingerprint_hex(std::string_view name) {
  try {
    const api::BuiltinModel* builtin = api::find_builtin(name);
    if (!builtin) return {};
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(
                      variant::content_fingerprint(builtin->make({}))));
    return hex;
  } catch (...) {
    return {};
  }
}

/// `models --json`: machine-readable listing — curated builtins with their
/// option keys and defaults (rendered in the format `--opt` accepts), plus
/// the standing sweep/ experiments corpus with the knobs each name encodes.
/// Every entry carries its default-options content fingerprint so scripted
/// clients can correlate models with persistent-cache entries and `info`
/// replies without loading anything.
int cmd_models_json() {
  support::JsonWriter json;
  json.begin_object();
  json.key("builtins").begin_array();
  for (const api::BuiltinModel& entry : api::builtin_models()) {
    json.begin_object();
    json.key("name").value(entry.name);
    json.key("description").value(entry.description);
    json.key("content_fingerprint").value(content_fingerprint_hex(entry.name));
    json.key("options").begin_object();
    for (const auto& [key, value] : api::builtin_option_defaults(entry.name)) {
      json.key(key).value(value);
    }
    json.end_object();
    json.end_object();
  }
  json.end_array();
  json.key("corpus").begin_object();
  json.key("prefix").value(corpus::kCorpusPrefix);
  json.key("grammar").value("sweep/[p<n>][i<n>][v<n>][c<n>][m<n>][d<n>][b|t|r][-s<seed>]");
  json.key("models").begin_array();
  for (const corpus::CorpusEntry& entry : corpus::default_corpus()) {
    json.begin_object();
    json.key("name").value(entry.name);
    json.key("profile").value(corpus::profile_name(entry.spec.profile));
    json.key("content_fingerprint").value(content_fingerprint_hex(entry.name));
    json.key("options").begin_object();
    for (const auto& [key, value] : api::builtin_option_defaults(entry.name)) {
      json.key(key).value(value);
    }
    json.end_object();
    json.end_object();
  }
  json.end_array();
  json.end_object();
  json.end_object();
  std::cout << json.take() << "\n";
  return 0;
}

int cmd_models(bool json) {
  if (json) return cmd_models_json();
  for (const api::BuiltinModel& entry : api::builtin_models()) {
    std::cout << entry.name << "\n    " << entry.description << "\n";
  }
  return 0;
}

int cmd_validate(api::Session& session, api::ModelId model) {
  const auto result = session.validate(model);
  if (report_failure(result)) return 1;
  std::cout << api::render(result.value());
  return result.value().has_errors() ? 1 : 0;
}

// The build_* functions turn a command's flags into its request (model
// handle unset) and the print_* functions render a response plus the exit
// verdict — shared verbatim by the local commands and the `remote` client,
// which is what makes a remote reply byte-identical to the local output.

api::SimulateRequest build_simulate_request(const std::vector<std::string>& flags) {
  api::SimulateRequest request;
  request.options.record_trace = has_flag(flags, "--trace");
  request.render_timeline = has_flag(flags, "--timeline");
  if (has_flag(flags, "--upper")) request.options.resolution = sim::Resolution::kUpperBound;
  if (has_flag(flags, "--random")) {
    request.options.resolution = sim::Resolution::kRandom;
    request.options.seed = parse_u64(*flag_value(flags, "--random"), "--random");
  }
  return request;
}

int print_simulate(const api::SimulateResponse& response, const std::vector<std::string>& flags) {
  std::cout << api::render(response);
  const auto& r = response.result;

  if (has_flag(flags, "--trace")) {
    constexpr std::size_t kMaxShown = 50;
    const auto& events = r.trace.events();
    std::cout << "\ntrace (" << events.size() << " events";
    if (events.size() > kMaxShown) std::cout << ", first " << kMaxShown;
    std::cout << "):\n";
    std::size_t shown = 0;
    for (const auto& event : events) {
      if (shown++ >= kMaxShown) break;
      std::cout << "  " << event.time << " " << sim::to_string(event.kind) << " "
                << event.subject << " [" << event.detail << "]\n";
    }
  }
  return r.quiescent || r.hit_limit ? 0 : 1;
}

int cmd_simulate(api::Session& session, api::ModelId model,
                 const std::vector<std::string>& flags) {
  api::SimulateRequest request = build_simulate_request(flags);
  request.model = model;
  const auto result = session.simulate(request);
  if (report_failure(result)) return 1;
  return print_simulate(result.value(), flags);
}

int print_analyze(const api::AnalyzeResponse& response) {
  std::cout << api::render(response);
  // Verdict in the exit code, like every other subcommand: nonzero when a
  // requested pass found a problem (deadlock, or an unguaranteed latency
  // bound; buffer/structure findings are informational).
  bool bad = !response.deadlock_free();
  for (const auto& check : response.latency_checks) {
    if (!check.guaranteed) bad = true;
  }
  return bad ? 1 : 0;
}

int cmd_analyze(api::Session& session, const api::AnalyzeRequest& request) {
  const auto result = session.analyze(request);
  if (report_failure(result)) return 1;
  return print_analyze(result.value());
}

int cmd_deadlock(api::Session& session, api::ModelId model) {
  api::AnalyzeRequest request{.model = model};
  request.buffers = request.structure = request.timing = false;
  const auto result = session.analyze(request);
  if (report_failure(result)) return 1;
  if (result.value().deadlock_free()) {
    std::cout << "no structural deadlock\n";
    return 0;
  }
  for (const auto& d : result.value().deadlocks) std::cout << d.description << "\n";
  return 1;
}

synth::ExploreEngine parse_engine(const std::string& name) {
  if (name == "greedy") return synth::ExploreEngine::kGreedy;
  if (name == "exhaustive") return synth::ExploreEngine::kExhaustive;
  if (name == "annealing") return synth::ExploreEngine::kAnnealing;
  throw UsageError("unknown engine '" + name + "' (greedy|exhaustive|annealing)");
}

api::ExploreRequest build_explore_request(const std::vector<std::string>& flags) {
  api::ExploreRequest request;
  request.options.engine = parse_engine(flag_value(flags, "--engine").value_or("greedy"));
  request.options.seed = parse_u64(flag_value(flags, "--seed").value_or("1"), "--seed");
  if (has_flag(flags, "--process")) {
    request.problem = synth::ProblemOptions{.granularity = synth::ElementGranularity::kProcess};
  }
  if (has_flag(flags, "--cluster")) {
    request.problem =
        synth::ProblemOptions{.granularity = synth::ElementGranularity::kClusterAtomic};
  }
  return request;
}

int print_explore(const api::ExploreResponse& response) {
  std::cout << api::render(response);
  return response.result.found_feasible ? 0 : 1;
}

int cmd_explore(api::Session& session, api::ModelId model,
                const std::vector<std::string>& flags) {
  api::ExploreRequest request = build_explore_request(flags);
  request.model = model;
  const auto result = session.explore(request);
  if (report_failure(result)) return 1;
  return print_explore(result.value());
}

std::vector<synth::StrategyKind> parse_strategies(const std::string& list) {
  std::vector<synth::StrategyKind> kinds;
  std::size_t start = 0;
  while (start <= list.size()) {
    const std::size_t comma = list.find(',', start);
    const std::string name =
        list.substr(start, comma == std::string::npos ? std::string::npos : comma - start);
    const auto kind = synth::parse_strategy(name);
    if (!kind) {
      throw UsageError("unknown strategy '" + name +
                       "' (independent|superposition|with-variants|serialized|incremental)");
    }
    kinds.push_back(*kind);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return kinds;
}

std::vector<synth::RankObjective> parse_rank(const std::string& list) {
  std::vector<synth::RankObjective> objectives;
  std::size_t start = 0;
  while (start <= list.size()) {
    const std::size_t comma = list.find(',', start);
    const std::string name =
        list.substr(start, comma == std::string::npos ? std::string::npos : comma - start);
    const auto objective = synth::parse_objective(name);
    if (!objective) {
      throw UsageError("unknown rank objective '" + name + "' (cost|utilization|time)");
    }
    objectives.push_back(*objective);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return objectives;
}

api::CompareRequest build_compare_request(const std::vector<std::string>& flags) {
  api::CompareRequest request;
  request.options.engine = parse_engine(flag_value(flags, "--engine").value_or("exhaustive"));
  request.options.seed = parse_u64(flag_value(flags, "--seed").value_or("1"), "--seed");
  request.all_orders = has_flag(flags, "--all-orders");
  if (const auto list = flag_value(flags, "--strategies")) {
    request.strategies = parse_strategies(*list);
  }
  if (const auto list = flag_value(flags, "--rank")) {
    request.objectives = parse_rank(*list);
  }
  if (has_flag(flags, "--process")) {
    request.problem = synth::ProblemOptions{.granularity = synth::ElementGranularity::kProcess};
  }
  if (has_flag(flags, "--cluster")) {
    request.problem =
        synth::ProblemOptions{.granularity = synth::ElementGranularity::kClusterAtomic};
  }
  return request;
}

int print_compare(const api::CompareResponse& response) {
  std::cout << api::render(response);
  // Verdict: the winning system strategy must be feasible; a subset with
  // only per-application rows (e.g. --strategies independent) succeeds
  // when every row is feasible.
  if (const auto* best = response.best()) return best->outcome.feasible ? 0 : 1;
  for (const auto& row : response.rows) {
    if (!row.outcome.feasible) return 1;
  }
  return 0;
}

int cmd_compare(api::Session& session, api::ModelId model,
                const std::vector<std::string>& flags) {
  api::CompareRequest request = build_compare_request(flags);
  request.model = model;

  // --stream submits through the async surface and reports progress on
  // stderr as slots land (the rendered table on stdout stays stable).
  const api::Result<api::AnyResponse> result = [&] {
    if (!has_flag(flags, "--stream")) return session.call({.payload = request});
    const auto started = std::chrono::steady_clock::now();
    auto handle = session.submit(
        {{.payload = request}},
        [&started](std::size_t slot, const api::Result<api::AnyResponse>& r,
                   std::string_view) {
          const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                              std::chrono::steady_clock::now() - started)
                              .count();
          std::cerr << "compare slot " << slot << (r.ok() ? " landed" : " failed") << " after "
                    << ms << " ms\n";
        });
    return std::move(handle.wait().front());
  }();
  if (report_failure(result)) return 1;
  return print_compare(std::get<api::CompareResponse>(result.value()));
}

api::ParetoRequest build_pareto_request(const std::vector<std::string>& flags) {
  api::ParetoRequest request;
  request.options.samples = parse_u64(flag_value(flags, "--samples").value_or("4096"), "--samples");
  request.options.seed = parse_u64(flag_value(flags, "--seed").value_or("1"), "--seed");
  return request;
}

int print_pareto(const api::ParetoResponse& response) {
  std::cout << api::render(response);
  return response.points.empty() ? 1 : 0;
}

int cmd_pareto(api::Session& session, api::ModelId model,
               const std::vector<std::string>& flags) {
  api::ParetoRequest request = build_pareto_request(flags);
  request.model = model;
  const auto result = session.pareto(request);
  if (report_failure(result)) return 1;
  return print_pareto(result.value());
}

api::SubmitOptions parse_submit_options(const std::vector<std::string>& flags) {
  api::SubmitOptions options;
  if (const auto name = flag_value(flags, "--priority")) {
    const auto priority = api::parse_priority(*name);
    if (!priority) throw UsageError("unknown priority '" + *name + "' (low|normal|high)");
    options.priority = *priority;
  }
  if (const auto ms = flag_value(flags, "--deadline-ms")) {
    options.deadline = std::chrono::milliseconds{parse_u64(*ms, "--deadline-ms")};
  }
  return options;
}

/// Seed-sweep simulate batch over every listed model, submitted through the
/// streaming surface. Slots land in any order (--stream shows them as they
/// do, on stderr); the stdout table is always in slot order, bit-identical
/// to a serial run. --priority/--deadline-ms pick the batch's scheduling
/// band on the executor.
int cmd_batch(api::Session& session, const std::vector<api::ModelId>& models,
              const std::vector<std::string>& names, const std::vector<std::string>& flags) {
  const std::uint64_t sims = parse_u64(flag_value(flags, "--sims").value_or("4"), "--sims");
  if (sims == 0) throw UsageError("'--sims' must be at least 1");
  const api::SubmitOptions submit_options = parse_submit_options(flags);

  std::vector<api::AnyRequest> requests;
  requests.reserve(models.size() * sims);
  for (const api::ModelId model : models) {
    for (std::uint64_t seed = 1; seed <= sims; ++seed) {
      api::SimulateRequest request{.model = model};
      request.options.resolution = sim::Resolution::kRandom;
      request.options.seed = seed;
      requests.emplace_back(request).options = submit_options;
    }
  }

  api::SlotCallback on_slot;
  const auto started = std::chrono::steady_clock::now();
  if (has_flag(flags, "--stream")) {
    const std::size_t total = requests.size();
    on_slot = [&started, total](std::size_t slot, const api::Result<api::AnyResponse>& r,
                                std::string_view) {
      const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                          std::chrono::steady_clock::now() - started)
                          .count();
      std::cerr << "slot " << slot << "/" << total << (r.ok() ? " landed" : " failed")
                << " after " << ms << " ms"
                << (r.ok() ? " (" + api::model_of(r.value()) + ")" : std::string{}) << "\n";
    };
  }

  auto handle = session.submit(requests, std::move(on_slot));
  const auto results = handle.wait();

  support::TextTable table{{"slot", "model", "seed", "firings", "end time", "status"}};
  bool all_ok = true;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const std::string& name = names[i / sims];
    const std::uint64_t seed = i % sims + 1;
    if (results[i].ok()) {
      const auto& r = std::get<api::SimulateResponse>(results[i].value()).result;
      table.add_row({std::to_string(i), name, std::to_string(seed),
                     std::to_string(r.total_firings),
                     std::to_string(r.end_time.count()) + "us", "ok"});
    } else {
      all_ok = false;
      table.add_row({std::to_string(i), name, std::to_string(seed), "-", "-",
                     results[i].error_summary()});
    }
  }
  std::cout << table;
  std::cout << requests.size() << " slots over " << models.size() << " model(s), executor "
            << session.executor().name() << "\n";
  return all_ok ? 0 : 1;
}

int cmd_demo(const std::string& name) {
  api::Session session;
  const auto model = session.load(api::ModelSpec{name});
  if (report_failure(model)) return 1;
  // Variant models emit the versioned `variants v1` section, so clusters,
  // interfaces and selection rules round-trip through the text format.
  const auto text = session.write_text(model.value().id);
  if (report_failure(text)) return 1;
  std::cout << text.value();
  return 0;
}

int cmd_selfcheck() {
  // Full pipeline through the facade: builtin -> text -> parse -> validate ->
  // simulate; compare behavior against the in-memory original.
  api::Session session;
  const auto original = session.load(api::ModelSpec{"fig1"});
  if (report_failure(original)) return 1;
  const auto text = session.write_text(original.value().id);
  if (report_failure(text)) return 1;
  const auto reparsed = session.load(api::ModelText{text.value(), "fig1-reparsed"});
  if (report_failure(reparsed)) return 1;

  const auto diags = session.validate(reparsed.value().id);
  if (report_failure(diags)) return 1;
  if (diags.value().has_errors()) {
    std::cerr << "selfcheck: reparsed model has validation errors\n"
              << api::render(diags.value());
    return 1;
  }

  const auto batch =
      session.call_batch({{.payload = api::SimulateRequest{.model = original.value().id}},
                          {.payload = api::SimulateRequest{.model = reparsed.value().id}}});
  for (const auto& run : batch) {
    if (report_failure(run)) return 1;
  }
  const auto& ra = std::get<api::SimulateResponse>(batch[0].value()).result;
  const auto& rb = std::get<api::SimulateResponse>(batch[1].value()).result;
  if (ra.total_firings != rb.total_firings || ra.end_time != rb.end_time) {
    std::cerr << "selfcheck: behavior differs after round-trip\n";
    return 1;
  }
  std::cout << "selfcheck OK: " << rb.total_firings << " firings, end " << rb.end_time << "\n";
  return 0;
}

/// State shared by every `--then` segment of one invocation: the model
/// store (sessions are views over it) and a tombstone-aware spec -> handle
/// cache so a model named twice is loaded once — but a spec whose handle a
/// previous segment unloaded is reloaded fresh instead of resurrecting the
/// tombstoned id (api::SpecCache owns that rule).
struct CliContext {
  std::shared_ptr<api::ModelStore> store = std::make_shared<api::ModelStore>();
  api::SpecCache specs{store};
  /// One executor per `--jobs N` value, shared across segments, so a later
  /// `executor-stats` segment reports the deadline telemetry of the batches
  /// earlier segments actually ran.
  std::map<std::size_t, std::shared_ptr<api::Executor>> executors;

  std::shared_ptr<api::Executor> executor_for(std::size_t jobs) {
    auto& executor = executors[jobs];
    if (!executor) executor = api::make_executor(jobs);
    return executor;
  }
};

/// Applies a segment's `--cache N` flag: enables the shared store's result
/// cache (idempotent — a later segment's flag keeps the earlier cache and
/// its statistics).
void apply_cache_flag(CliContext& ctx, const std::vector<std::string>& flags) {
  if (const auto capacity = flag_value(flags, "--cache")) {
    ctx.store->enable_cache({.capacity = parse_u64(*capacity, "--cache")});
  }
}

int run_cli(const std::string& command, const std::vector<std::string>& rest, CliContext& ctx) {
  if (command == "models" || command == "selfcheck") {
    check_flags(rest, {"--json"}, {"--cache"});
    apply_cache_flag(ctx, rest);
    return command == "models" ? cmd_models(has_flag(rest, "--json")) : cmd_selfcheck();
  }
  if (command == "cache-stats") {
    check_flags(rest, {}, {"--cache"});
    apply_cache_flag(ctx, rest);
    const auto stats = ctx.store->cache_stats();
    if (!stats) {
      std::cout << "result cache disabled (enable with '--cache N' on any segment)\n";
      return 0;
    }
    std::cout << api::render(*stats);
    return 0;
  }
  if (command == "executor-stats") {
    // Deadline-miss telemetry of every executor this invocation has used
    // (`--jobs N` materializes that executor's row even before first use).
    check_flags(rest, {}, {"--cache", "--jobs"});
    apply_cache_flag(ctx, rest);
    (void)ctx.executor_for(parse_u64(flag_value(rest, "--jobs").value_or("1"), "--jobs"));
    for (const auto& [jobs, executor] : ctx.executors) {
      std::cout << "executor " << executor->name() << "\n" << api::render(executor->stats());
    }
    return 0;
  }
  if (command == "demo") {
    const bool named = !rest.empty() && rest[0].rfind("--", 0) != 0;
    const std::vector<std::string> flags(rest.begin() + (named ? 1 : 0), rest.end());
    check_flags(flags, {}, {"--cache"});
    apply_cache_flag(ctx, flags);
    return cmd_demo(named ? rest[0] : "fig1");
  }

  if (command == "batch") {
    // Every leading non-flag token is a model spec; the seed sweep runs
    // over all of them as one streamed batch.
    std::size_t first_flag = 0;
    while (first_flag < rest.size() && rest[first_flag].rfind("--", 0) != 0) ++first_flag;
    if (first_flag == 0) {
      throw UsageError("'batch' expects at least one model before options");
    }
    const std::vector<std::string> specs(rest.begin(), rest.begin() + first_flag);
    const std::vector<std::string> flags(rest.begin() + first_flag, rest.end());
    check_flags(flags, {"--stream"},
                {"--sims", "--jobs", "--opt", "--cache", "--priority", "--deadline-ms"});
    (void)parse_u64(flag_value(flags, "--sims").value_or("4"), "--sims");
    (void)parse_submit_options(flags);
    apply_cache_flag(ctx, flags);
    const std::size_t jobs = parse_u64(flag_value(flags, "--jobs").value_or("1"), "--jobs");
    api::Session session{ctx.store, ctx.executor_for(jobs)};

    // `--opt` assignments apply to every built-in model in the list.
    const std::vector<std::string> assignments = flag_values(flags, "--opt");
    std::vector<api::ModelId> models;
    for (const std::string& spec : specs) {
      const auto loaded = ctx.specs.resolve(
          spec, api::find_builtin(spec) ? assignments : std::vector<std::string>{});
      if (report_failure(loaded)) return 1;
      models.push_back(loaded.value().id);
    }
    return cmd_batch(session, models, specs, flags);
  }

  // Reject unknown commands before touching the model argument, so a typoed
  // command never masquerades as a model-load failure.
  constexpr const char* kModelCommands[] = {"validate", "stats",   "simulate", "dot",
                                            "deadlock", "buffers", "timing",   "analyze",
                                            "explore",  "pareto",  "compare",  "unload"};
  bool known = false;
  for (const char* candidate : kModelCommands) {
    if (command == candidate) known = true;
  }
  if (!known || rest.empty()) return usage();
  if (rest[0].rfind("--", 0) == 0) {
    throw UsageError("expected a model (built-in name or .spit path) before options, got '" +
                     rest[0] + "'");
  }
  const std::vector<std::string> flags(rest.begin() + 1, rest.end());

  // Validate the flags — names, exclusions, and values — before the
  // (potentially expensive) model load, so a typoed option fails
  // immediately. The cmd_* handlers re-run the same parse helpers to
  // consume the values; the rules live in one place.
  const auto prevalidate_u64 = [&flags](const char* flag) {
    if (const auto value = flag_value(flags, flag)) (void)parse_u64(*value, flag);
  };
  if (command == "simulate") {
    check_flags(flags, {"--trace", "--timeline", "--upper"}, {"--random", "--opt", "--cache"});
    if (has_flag(flags, "--upper") && has_flag(flags, "--random")) {
      throw UsageError("'--upper' and '--random' are mutually exclusive");
    }
    prevalidate_u64("--random");
  } else if (command == "explore") {
    check_flags(flags, {"--process", "--cluster"}, {"--engine", "--seed", "--opt", "--cache"});
    if (has_flag(flags, "--process") && has_flag(flags, "--cluster")) {
      throw UsageError("'--process' and '--cluster' are mutually exclusive");
    }
    (void)parse_engine(flag_value(flags, "--engine").value_or("greedy"));
    prevalidate_u64("--seed");
  } else if (command == "pareto") {
    check_flags(flags, {}, {"--samples", "--seed", "--opt", "--cache"});
    prevalidate_u64("--samples");
    prevalidate_u64("--seed");
  } else if (command == "compare") {
    check_flags(flags, {"--all-orders", "--process", "--cluster", "--stream"},
                {"--engine", "--seed", "--strategies", "--jobs", "--rank", "--opt", "--cache"});
    if (has_flag(flags, "--process") && has_flag(flags, "--cluster")) {
      throw UsageError("'--process' and '--cluster' are mutually exclusive");
    }
    (void)parse_engine(flag_value(flags, "--engine").value_or("exhaustive"));
    if (const auto list = flag_value(flags, "--strategies")) (void)parse_strategies(*list);
    if (const auto list = flag_value(flags, "--rank")) (void)parse_rank(*list);
    prevalidate_u64("--seed");
    prevalidate_u64("--jobs");
  } else if (command == "timing" || command == "analyze") {
    check_flags(flags, {"--reconf"}, {"--opt", "--cache"});
  } else {
    // validate/stats/dot/deadlock/buffers/unload take no flags beyond
    // --opt/--cache
    check_flags(flags, {}, {"--opt", "--cache"});
  }

  // `--cache N` enables the shared store's result cache for this and every
  // later segment; `--jobs N` selects this segment's execution policy for
  // the batch/compare surface; everything else runs identically (results
  // are deterministic by seed). The session is a view over the
  // invocation's shared store.
  apply_cache_flag(ctx, flags);
  const std::size_t jobs = parse_u64(flag_value(flags, "--jobs").value_or("1"), "--jobs");
  api::Session session{ctx.store, ctx.executor_for(jobs)};

  if (command == "unload") {
    // Deliberately peeks instead of resolving: unloading must never *load*
    // (an unknown spec is reported, not built-then-tombstoned), and the
    // full three-way UnloadStatus contract stays observable — a second
    // `--then unload` of the same spec reports already-unloaded. Without
    // `--opt` every assignments-combination loaded for the spec is
    // targeted; with `--opt` only that exact combination.
    const std::vector<std::string> assignments = flag_values(flags, "--opt");
    std::vector<api::ModelId> targets;
    if (assignments.empty()) {
      targets = ctx.specs.handles(rest[0]);
    } else if (const auto cached = ctx.specs.peek(rest[0], assignments)) {
      targets.push_back(*cached);
    }
    if (targets.empty()) {
      std::cout << rest[0] << ": " << api::to_string(api::UnloadStatus::kNeverLoaded)
                << " (no earlier segment loaded it)\n";
      return 1;
    }
    bool any_unloaded = false;
    for (const api::ModelId target : targets) {
      const api::UnloadStatus status = session.unload(target);
      any_unloaded = any_unloaded || api::unloaded(status);
      std::cout << rest[0] << " #" << target.value() << ": " << api::to_string(status) << "\n";
    }
    return any_unloaded ? 0 : 1;
  }

  // `--opt key=value` loads a built-in with non-default typed options;
  // repeated specs reuse the handle loaded by an earlier segment (unless a
  // previous segment unloaded it — then the spec cache reloads fresh).
  const auto loaded = ctx.specs.resolve(rest[0], flag_values(flags, "--opt"));
  if (report_failure(loaded)) return 1;
  const api::ModelId model = loaded.value().id;

  if (command == "validate") return cmd_validate(session, model);
  if (command == "stats") {
    const auto result = session.stats(model);
    if (report_failure(result)) return 1;
    std::cout << result.value().to_string() << "\n";
    return 0;
  }
  if (command == "simulate") return cmd_simulate(session, model, flags);
  if (command == "dot") {
    const auto result = session.dot(model);
    if (report_failure(result)) return 1;
    std::cout << result.value();
    return 0;
  }
  if (command == "deadlock") return cmd_deadlock(session, model);
  if (command == "buffers") {
    api::AnalyzeRequest request{.model = model};
    request.deadlock = request.structure = request.timing = false;
    return cmd_analyze(session, request);
  }
  if (command == "timing") {
    api::AnalyzeRequest request{.model = model};
    request.deadlock = request.buffers = request.structure = false;
    request.include_reconfiguration = has_flag(flags, "--reconf");
    return cmd_analyze(session, request);
  }
  if (command == "analyze") {
    api::AnalyzeRequest request{.model = model};
    request.include_reconfiguration = has_flag(flags, "--reconf");
    return cmd_analyze(session, request);
  }
  if (command == "explore") return cmd_explore(session, model, flags);
  if (command == "pareto") return cmd_pareto(session, model, flags);
  if (command == "compare") return cmd_compare(session, model, flags);
  return usage();
}

// --- remote client mode ------------------------------------------------------
//
// `spivar_cli remote host:port <command...>` drives a spivar_serve instance:
// eval commands encode their request into the wire envelope (the model is
// named by target spec, `--opt` travels as target options, --priority/
// --deadline-ms as the slot's scheduling options) and render the decoded
// reply through the same print_* functions as the local commands — a remote
// run's stdout is byte-identical to the local command against the same
// store. Segments chained with --then share one connection, i.e. one
// server-side session.
//
// Consecutive eval segments are *pipelined*: each is sent as a `request v2`
// frame tagged with its position the moment it is built, so the server
// overlaps their evaluation (given --jobs > 1) instead of round-tripping
// one at a time. Replies may arrive out of order; they are buffered by
// frame id and printed in segment order, so stdout is unchanged from the
// sequential protocol. A control segment (ping, load, cache, ...) is a
// synchronization point: every outstanding reply is drained first. A
// failing segment stops the chain at the next synchronization point — later
// eval segments already in flight still evaluate server-side, but their
// replies print and the first failure's exit code wins.

template <class... Fns>
struct overloaded : Fns... {
  using Fns::operator()...;
};
template <class... Fns>
overloaded(Fns...) -> overloaded<Fns...>;

int print_response(const api::AnyResponse& response, const std::vector<std::string>& flags) {
  return std::visit(
      overloaded{
          [&](const api::SimulateResponse& r) { return print_simulate(r, flags); },
          [&](const api::AnalyzeResponse& r) { return print_analyze(r); },
          [&](const api::ExploreResponse& r) { return print_explore(r); },
          [&](const api::ParetoResponse& r) { return print_pareto(r); },
          [&](const api::CompareResponse& r) { return print_compare(r); },
      },
      response);
}

/// Sends one control frame and prints the info reply (or the error
/// response's diagnostics).
int remote_control(std::istream& in, std::ostream& out, const std::string& command,
                   const std::vector<std::string>& args) {
  out << api::wire::control_frame(command, args) << std::flush;
  const auto frame = api::wire::read_frame(in);
  if (!frame) {
    std::cerr << "error: connection closed before reply\n";
    return 1;
  }
  const auto info = api::wire::decode_info(*frame);
  if (info.ok()) {
    std::cout << info.value();
    if (!info.value().empty() && info.value().back() != '\n') std::cout << "\n";
    return 0;
  }
  const auto failure = api::wire::decode_response(*frame);
  std::cerr << api::render_diagnostics(failure.diagnostics());
  return 1;
}

/// True for commands that round-trip a control frame (everything that is
/// not an eval envelope).
bool is_remote_control(const std::string& command) {
  return command == "ping" || command == "models" || command == "cache-stats" ||
         command == "executor-stats" || command == "shutdown" || command == "cache" ||
         command == "load" || command == "unload" || command == "metrics" ||
         command == "trace";
}

int run_remote_control(std::istream& in, std::ostream& out, const std::string& command,
                       const std::vector<std::string>& rest) {
  if (command == "ping" || command == "models" || command == "cache-stats" ||
      command == "executor-stats" || command == "shutdown" || command == "metrics") {
    check_flags(rest, {}, {});
    return remote_control(in, out, command, {});
  }
  if (command == "trace") {
    // `trace [last|slowest|<id>]` — bare `trace` means last. Pass-through:
    // the server owns selector semantics.
    std::vector<std::string> args;
    if (!rest.empty() && rest[0].rfind("--", 0) != 0) args.push_back(rest[0]);
    const std::vector<std::string> flags(rest.begin() + args.size(), rest.end());
    check_flags(flags, {}, {});
    return remote_control(in, out, command, args);
  }
  if (command == "cache") {
    // Persistent-cache admin: `cache [stats|persist|flush]` (bare `cache`
    // means stats). The server owns the semantics; this is a pass-through.
    std::vector<std::string> args;
    if (!rest.empty() && rest[0].rfind("--", 0) != 0) args.push_back(rest[0]);
    const std::vector<std::string> flags(rest.begin() + args.size(), rest.end());
    check_flags(flags, {}, {});
    return remote_control(in, out, command, args);
  }
  if (command == "load" || command == "unload") {
    if (rest.empty() || rest[0].rfind("--", 0) == 0) {
      throw UsageError("'" + command + "' expects a model spec");
    }
    const std::vector<std::string> flags(rest.begin() + 1, rest.end());
    check_flags(flags, {}, {"--opt"});
    std::vector<std::string> args{rest[0]};
    for (const std::string& assignment : flag_values(flags, "--opt")) args.push_back(assignment);
    if (command == "unload" && args.size() > 1) {
      throw UsageError("'unload' does not take --opt (it targets every loaded combination)");
    }
    return remote_control(in, out, command, args);
  }
  throw UsageError("unknown remote control '" + command + "'");
}

/// Builds the wire envelope for one eval segment (simulate|analyze|explore|
/// pareto|compare) and returns the segment's flags for printing its reply.
api::AnyRequest build_remote_envelope(const std::string& command,
                                      const std::vector<std::string>& rest,
                                      std::vector<std::string>& flags_out) {
  if (rest.empty() || rest[0].rfind("--", 0) == 0) {
    throw UsageError("expected a model (built-in name or .spit path) before options");
  }
  const std::string spec = rest[0];
  const std::vector<std::string> flags(rest.begin() + 1, rest.end());

  api::AnyRequest envelope;
  if (command == "simulate") {
    check_flags(flags, {"--trace", "--timeline", "--upper"},
                {"--random", "--opt", "--priority", "--deadline-ms"});
    if (has_flag(flags, "--upper") && has_flag(flags, "--random")) {
      throw UsageError("'--upper' and '--random' are mutually exclusive");
    }
    envelope.payload = build_simulate_request(flags);
  } else if (command == "analyze") {
    check_flags(flags, {"--reconf"}, {"--opt", "--priority", "--deadline-ms"});
    api::AnalyzeRequest request;
    request.include_reconfiguration = has_flag(flags, "--reconf");
    envelope.payload = request;
  } else if (command == "explore") {
    check_flags(flags, {"--process", "--cluster"},
                {"--engine", "--seed", "--opt", "--priority", "--deadline-ms"});
    if (has_flag(flags, "--process") && has_flag(flags, "--cluster")) {
      throw UsageError("'--process' and '--cluster' are mutually exclusive");
    }
    envelope.payload = build_explore_request(flags);
  } else if (command == "pareto") {
    check_flags(flags, {}, {"--samples", "--seed", "--opt", "--priority", "--deadline-ms"});
    envelope.payload = build_pareto_request(flags);
  } else if (command == "compare") {
    check_flags(flags, {"--all-orders", "--process", "--cluster"},
                {"--engine", "--seed", "--strategies", "--rank", "--opt", "--priority",
                 "--deadline-ms"});
    if (has_flag(flags, "--process") && has_flag(flags, "--cluster")) {
      throw UsageError("'--process' and '--cluster' are mutually exclusive");
    }
    envelope.payload = build_compare_request(flags);
  } else {
    throw UsageError("unknown remote command '" + command +
                     "' (simulate|analyze|explore|pareto|compare|models|load|unload|"
                     "cache|cache-stats|executor-stats|metrics|trace|ping|shutdown)");
  }
  envelope.target = spec;
  envelope.target_options = flag_values(flags, "--opt");
  envelope.options = parse_submit_options(flags);
  flags_out = flags;
  return envelope;
}

/// One pipelined eval segment awaiting its v2 reply.
struct PendingReply {
  std::uint64_t id;
  std::vector<std::string> flags;  ///< print options for the decoded response
};

/// Reads frames until the reply tagged `id` arrives, buffering replies to
/// other in-flight frames (out-of-order completion is the point of v2).
std::optional<std::string> await_reply(std::istream& in, std::uint64_t id,
                                       std::map<std::uint64_t, std::string>& arrived) {
  if (const auto hit = arrived.find(id); hit != arrived.end()) {
    std::string frame = std::move(hit->second);
    arrived.erase(hit);
    return frame;
  }
  while (auto frame = api::wire::read_frame(in)) {
    const auto tagged = api::wire::response_frame_id(*frame);
    if (tagged == id) return frame;
    if (tagged) arrived.emplace(*tagged, std::move(*frame));
    // An untagged frame mid-pipeline is a protocol violation; skip it rather
    // than stall on a reply that will never match.
  }
  return std::nullopt;
}

/// Prints every outstanding pipelined reply in segment order. Returns the
/// first nonzero segment status (but always drains — the frames are on the
/// wire regardless).
int drain_pending(std::istream& in, std::vector<PendingReply>& pending,
                  std::map<std::uint64_t, std::string>& arrived) {
  int rc = 0;
  for (PendingReply& next : pending) {
    const auto frame = await_reply(in, next.id, arrived);
    if (!frame) {
      std::cerr << "error: connection closed before reply\n";
      return 1;
    }
    const auto result = api::wire::decode_response(*frame);
    int segment_rc = 0;
    if (report_failure(result)) {
      segment_rc = 1;
    } else {
      segment_rc = print_response(result.value(), next.flags);
    }
    if (rc == 0) rc = segment_rc;
  }
  pending.clear();
  return rc;
}

int run_remote(const std::string& endpoint_spec, const std::string& tenant_spec,
               const std::vector<std::vector<std::string>>& segments) {
  const auto endpoint = service::parse_endpoint(endpoint_spec);
  if (!endpoint) {
    std::cerr << "error: invalid endpoint '" << endpoint_spec << "' (expected host:port)\n";
    return 2;
  }
  service::Socket sock = service::connect_to(*endpoint);
  if (!sock.valid()) {
    std::cerr << "error: cannot connect to " << endpoint_spec << "\n";
    return 1;
  }
  service::FdStreamBuf buffer{sock.fd()};
  std::istream in{&buffer};
  std::ostream out{&buffer};
  if (!tenant_spec.empty()) {
    // Bind the connection before the first command: everything after the
    // hello evaluates in the tenant's namespace. NAME[:TOKEN].
    const std::size_t colon = tenant_spec.find(':');
    const std::string name = tenant_spec.substr(0, colon);
    const std::string token =
        colon == std::string::npos ? std::string{} : tenant_spec.substr(colon + 1);
    out << api::wire::hello_frame(name, token) << std::flush;
    const auto frame = api::wire::read_frame(in);
    if (!frame) {
      std::cerr << "error: connection closed before hello reply\n";
      return 1;
    }
    if (const auto info = api::wire::decode_info(*frame); !info.ok()) {
      const auto failure = api::wire::decode_response(*frame);
      std::cerr << api::render_diagnostics(failure.diagnostics());
      return 1;
    }
  }
  std::vector<PendingReply> pending;
  std::map<std::uint64_t, std::string> arrived;
  std::uint64_t next_id = 0;
  for (const auto& segment : segments) {
    if (segment.empty()) return usage();
    const std::vector<std::string> rest(segment.begin() + 1, segment.end());
    if (is_remote_control(segment[0])) {
      // Controls synchronize: outstanding replies print first, so segment
      // output order matches the command line exactly.
      if (const int rc = drain_pending(in, pending, arrived); rc != 0) return rc;
      if (const int rc = run_remote_control(in, out, segment[0], rest); rc != 0) return rc;
      continue;
    }
    std::vector<std::string> flags;
    const api::AnyRequest envelope = build_remote_envelope(segment[0], rest, flags);
    out << api::wire::encode(envelope, ++next_id) << std::flush;
    pending.push_back({next_id, std::move(flags)});
  }
  return drain_pending(in, pending, arrived);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  std::vector<std::string> args(argv + 1, argv + argc);

  // `remote <host:port> ...` switches the whole invocation into client
  // mode: the remaining segments run against a spivar_serve instance over
  // one connection instead of an in-process store.
  std::string remote_endpoint;
  std::string remote_tenant;
  if (args.front() == "remote") {
    if (args.size() < 3) return usage();
    remote_endpoint = args[1];
    args.erase(args.begin(), args.begin() + 2);
    if (args.front() == "--tenant") {
      if (args.size() < 3) return usage();
      remote_tenant = args[1];
      args.erase(args.begin(), args.begin() + 2);
    }
  }

  // Split the invocation into `--then`-separated command segments. All
  // segments share one ModelStore (and the load cache over it), so a model
  // loaded by the first command is evaluated — not re-parsed or re-built —
  // by every later one. (In remote mode the store lives in the server and
  // the segments share its session the same way.)
  std::vector<std::vector<std::string>> segments{{}};
  for (const std::string& arg : args) {
    if (arg == "--then") {
      segments.emplace_back();
    } else {
      segments.back().push_back(arg);
    }
  }

  CliContext ctx;
  try {
    if (!remote_endpoint.empty()) return run_remote(remote_endpoint, remote_tenant, segments);
    for (const auto& segment : segments) {
      if (segment.empty()) return usage();
      const std::vector<std::string> rest(segment.begin() + 1, segment.end());
      const int rc = run_cli(segment[0], rest, ctx);
      if (rc != 0) return rc;
    }
    return 0;
  } catch (const UsageError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return usage();
  }
}
