#include "api/wire.hpp"

#include <charconv>
#include <cstdlib>
#include <istream>
#include <limits>
#include <streambuf>
#include <utility>
#include <variant>

namespace spivar::api::wire {

namespace {

// --- writing primitives ------------------------------------------------------

std::string fmt_u64(std::uint64_t value) { return std::to_string(value); }
std::string fmt_i64(std::int64_t value) { return std::to_string(value); }

/// Shortest decimal that parses back to the same IEEE double — the
/// bit-identical transport for costs, utilizations and rates.
std::string fmt_f64(double value) {
  char buffer[64];
  const auto [end, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return ec == std::errc{} ? std::string(buffer, end) : std::string{"0"};
}

const char* fmt_bool(bool value) { return value ? "true" : "false"; }

// --- frame splitting / tokens ------------------------------------------------

/// Internal decode failure; converted into a diag::kWireError Result at the
/// decoder boundary, message prefixed with the 1-based line number.
struct FrameError {
  std::size_t line;
  std::string message;
};

[[noreturn]] void fail(std::size_t line, std::string message) {
  throw FrameError{line, std::move(message)};
}

struct Token {
  std::string text;
  bool quoted = false;
};

struct Line {
  std::size_t number = 0;
  std::vector<Token> tokens;

  [[nodiscard]] const std::string& key() const { return tokens.front().text; }
};

std::vector<Token> tokenize(std::string_view text, std::size_t number) {
  std::vector<Token> tokens;
  std::size_t i = 0;
  while (i < text.size()) {
    if (text[i] == ' ') {
      ++i;
      continue;
    }
    if (text[i] == '"') {
      std::string decoded;
      ++i;
      for (;; ++i) {
        if (i >= text.size()) fail(number, "unterminated quoted string");
        const char c = text[i];
        if (c == '"') break;
        if (c != '\\') {
          decoded.push_back(c);
          continue;
        }
        if (++i >= text.size()) fail(number, "dangling escape in quoted string");
        switch (text[i]) {
          case '\\': decoded.push_back('\\'); break;
          case '"': decoded.push_back('"'); break;
          case 'n': decoded.push_back('\n'); break;
          case 'r': decoded.push_back('\r'); break;
          case 't': decoded.push_back('\t'); break;
          default: fail(number, std::string{"unknown escape '\\"} + text[i] + "'");
        }
      }
      ++i;  // closing quote
      tokens.push_back({std::move(decoded), true});
      continue;
    }
    const std::size_t start = i;
    while (i < text.size() && text[i] != ' ') ++i;
    tokens.push_back({std::string{text.substr(start, i - start)}, false});
  }
  return tokens;
}

/// Non-empty lines of `frame`, tokenized, with their 1-based numbers.
std::vector<Line> split_frame(std::string_view frame) {
  std::vector<Line> lines;
  std::size_t number = 0;
  std::size_t begin = 0;
  while (begin <= frame.size()) {
    const std::size_t nl = frame.find('\n', begin);
    std::string_view raw =
        frame.substr(begin, nl == std::string_view::npos ? std::string_view::npos : nl - begin);
    begin = nl == std::string_view::npos ? frame.size() + 1 : nl + 1;
    ++number;
    if (!raw.empty() && raw.back() == '\r') raw.remove_suffix(1);
    if (raw.empty()) continue;
    Line line{.number = number, .tokens = tokenize(raw, number)};
    if (line.tokens.empty()) continue;  // whitespace-only lines are blank
    lines.push_back(std::move(line));
  }
  return lines;
}

/// Sequential reader over one line's tokens (past the key) with typed,
/// line-number-carrying accessors.
class Args {
 public:
  explicit Args(const Line& line, std::size_t first = 1) : line_(line), next_(first) {}

  [[nodiscard]] bool done() const noexcept { return next_ >= line_.tokens.size(); }
  [[nodiscard]] std::size_t number() const noexcept { return line_.number; }

  const Token& take(const char* what) {
    if (done()) fail(line_.number, std::string{"missing "} + what + " after '" + line_.key() + "'");
    return line_.tokens[next_++];
  }

  std::string str(const char* what) {
    const Token& token = take(what);
    if (!token.quoted) fail(line_.number, std::string{what} + " must be a quoted string");
    return token.text;
  }

  std::string word(const char* what) {
    const Token& token = take(what);
    if (token.quoted) fail(line_.number, std::string{what} + " must be unquoted");
    return token.text;
  }

  std::uint64_t u64(const char* what) {
    const std::string text = word(what);
    std::uint64_t value = 0;
    const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
    if (ec != std::errc{} || end != text.data() + text.size()) {
      fail(line_.number, std::string{"invalid "} + what + " '" + text + "'");
    }
    return value;
  }

  std::uint32_t u32(const char* what) {
    const std::uint64_t value = u64(what);
    if (value > std::numeric_limits<std::uint32_t>::max()) {
      fail(line_.number, std::string{what} + " out of range: " + std::to_string(value));
    }
    return static_cast<std::uint32_t>(value);
  }

  std::int64_t i64(const char* what) {
    const std::string text = word(what);
    std::int64_t value = 0;
    const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
    if (ec != std::errc{} || end != text.data() + text.size()) {
      fail(line_.number, std::string{"invalid "} + what + " '" + text + "'");
    }
    return value;
  }

  double f64(const char* what) {
    const std::string text = word(what);
    double value = 0.0;
    const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
    if (ec != std::errc{} || end != text.data() + text.size()) {
      fail(line_.number, std::string{"invalid "} + what + " '" + text + "'");
    }
    return value;
  }

  bool boolean(const char* what) {
    const std::string text = word(what);
    if (text == "true") return true;
    if (text == "false") return false;
    fail(line_.number, std::string{"invalid "} + what + " '" + text + "' (true|false)");
  }

  void finish() {
    if (!done()) {
      fail(line_.number, "unexpected trailing token '" + line_.tokens[next_].text + "' after '" +
                             line_.key() + "'");
    }
  }

 private:
  const Line& line_;
  std::size_t next_;
};

// --- small enum codecs -------------------------------------------------------

sim::Resolution parse_resolution(Args& args) {
  const std::string name = args.word("resolution");
  if (name == "lower") return sim::Resolution::kLowerBound;
  if (name == "upper") return sim::Resolution::kUpperBound;
  if (name == "random") return sim::Resolution::kRandom;
  fail(args.number(), "unknown resolution '" + name + "' (lower|upper|random)");
}

synth::ExploreEngine parse_engine(Args& args) {
  const std::string name = args.word("engine");
  if (name == "exhaustive") return synth::ExploreEngine::kExhaustive;
  if (name == "greedy") return synth::ExploreEngine::kGreedy;
  if (name == "annealing") return synth::ExploreEngine::kAnnealing;
  fail(args.number(), "unknown engine '" + name + "' (exhaustive|greedy|annealing)");
}

synth::Target parse_target_kind(Args& args) {
  const std::string name = args.word("target");
  if (name == "SW") return synth::Target::kSoftware;
  if (name == "HW") return synth::Target::kHardware;
  fail(args.number(), "unknown mapping target '" + name + "' (SW|HW)");
}

sim::TraceKind parse_trace_kind(Args& args) {
  const std::string name = args.word("trace kind");
  for (const auto kind : {sim::TraceKind::kFire, sim::TraceKind::kComplete,
                          sim::TraceKind::kReconfigure, sim::TraceKind::kSelect,
                          sim::TraceKind::kCancel, sim::TraceKind::kDrop}) {
    if (name == sim::to_string(kind)) return kind;
  }
  fail(args.number(), "unknown trace kind '" + name + "'");
}

analysis::FlowClass parse_flow_class(Args& args) {
  const std::string name = args.word("flow class");
  for (const auto flow :
       {analysis::FlowClass::kBalanced, analysis::FlowClass::kPossiblyUnbounded,
        analysis::FlowClass::kStarving, analysis::FlowClass::kSourceOnly,
        analysis::FlowClass::kSinkOnly, analysis::FlowClass::kRegister}) {
    if (name == analysis::to_string(flow)) return flow;
  }
  fail(args.number(), "unknown flow class '" + name + "'");
}

support::Severity parse_severity(Args& args) {
  const std::string name = args.word("severity");
  if (name == "note") return support::Severity::kNote;
  if (name == "warning") return support::Severity::kWarning;
  if (name == "error") return support::Severity::kError;
  fail(args.number(), "unknown severity '" + name + "' (note|warning|error)");
}

// --- comma lists -------------------------------------------------------------

template <typename T, typename Parse>
std::vector<T> parse_comma_list(Args& args, const char* what, Parse&& parse) {
  const std::string list = args.word(what);
  std::vector<T> values;
  std::size_t start = 0;
  while (start <= list.size()) {
    const std::size_t comma = list.find(',', start);
    const std::string name =
        list.substr(start, comma == std::string::npos ? std::string::npos : comma - start);
    const auto value = parse(name);
    if (!value) fail(args.number(), std::string{"unknown "} + what + " '" + name + "'");
    values.push_back(*value);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return values;
}

template <typename T>
std::string comma_list(const std::vector<T>& values) {
  std::string out;
  for (const T& value : values) {
    if (!out.empty()) out.push_back(',');
    out += to_string(value);
  }
  return out;
}

// --- shared request sections -------------------------------------------------

void encode_explore_options(std::string& out, const synth::ExploreOptions& options) {
  out += "engine " + std::string{to_string(options.engine)} + "\n";
  out += "seed " + fmt_u64(options.seed) + "\n";
  out += "exhaustive-limit " + fmt_u64(options.exhaustive_limit) + "\n";
  out += "annealing-trials " + fmt_u64(options.annealing_trials_per_element) + "\n";
  out += "annealing-temperature " + fmt_f64(options.annealing_initial_temperature) + "\n";
  out += "infeasibility-penalty " + fmt_f64(options.infeasibility_penalty) + "\n";
}

bool decode_explore_options(const std::string& key, Args& args, synth::ExploreOptions& options) {
  if (key == "engine") {
    options.engine = parse_engine(args);
  } else if (key == "seed") {
    options.seed = args.u64("seed");
  } else if (key == "exhaustive-limit") {
    options.exhaustive_limit = args.u64("exhaustive-limit");
  } else if (key == "annealing-trials") {
    options.annealing_trials_per_element = args.u64("annealing-trials");
  } else if (key == "annealing-temperature") {
    options.annealing_initial_temperature = args.f64("annealing-temperature");
  } else if (key == "infeasibility-penalty") {
    options.infeasibility_penalty = args.f64("infeasibility-penalty");
  } else {
    return false;
  }
  return true;
}

void encode_overrides(std::string& out, const std::optional<synth::ProblemOptions>& problem,
                      const std::optional<synth::ImplLibrary>& library) {
  if (problem) {
    out += std::string{"problem "} +
           (problem->granularity == synth::ElementGranularity::kProcess ? "process" : "cluster") +
           " " + fmt_bool(problem->skip_virtual) + "\n";
  }
  if (library) {
    out += "library " + fmt_f64(library->processor_cost) + " " +
           fmt_f64(library->processor_budget) + "\n";
    for (const auto& [name, impl] : library->elements()) {
      out += "element " + quote(name) + " " + fmt_f64(impl.sw_load) + " " +
             fmt_i64(impl.sw_wcet.count()) + " " + fmt_f64(impl.hw_cost) + " " +
             fmt_i64(impl.hw_wcet.count()) + " " + fmt_bool(impl.can_sw) + " " +
             fmt_bool(impl.can_hw);
      if (impl.period) out += " " + fmt_i64(impl.period->count());
      out += "\n";
    }
  }
}

bool decode_overrides(const std::string& key, Args& args,
                      std::optional<synth::ProblemOptions>& problem,
                      std::optional<synth::ImplLibrary>& library) {
  if (key == "problem") {
    synth::ProblemOptions options;
    const std::string granularity = args.word("granularity");
    if (granularity == "process") {
      options.granularity = synth::ElementGranularity::kProcess;
    } else if (granularity == "cluster") {
      options.granularity = synth::ElementGranularity::kClusterAtomic;
    } else {
      fail(args.number(), "unknown granularity '" + granularity + "' (cluster|process)");
    }
    options.skip_virtual = args.boolean("skip-virtual");
    problem = options;
  } else if (key == "library") {
    synth::ImplLibrary lib;
    lib.processor_cost = args.f64("processor-cost");
    lib.processor_budget = args.f64("processor-budget");
    library = std::move(lib);
  } else if (key == "element") {
    if (!library) fail(args.number(), "'element' before 'library'");
    const std::string name = args.str("element name");
    synth::ElementImpl impl;
    impl.sw_load = args.f64("sw-load");
    impl.sw_wcet = support::Duration{args.i64("sw-wcet-us")};
    impl.hw_cost = args.f64("hw-cost");
    impl.hw_wcet = support::Duration{args.i64("hw-wcet-us")};
    impl.can_sw = args.boolean("can-sw");
    impl.can_hw = args.boolean("can-hw");
    if (!args.done()) impl.period = support::Duration{args.i64("period-us")};
    library->add(name, impl);
  } else {
    return false;
  }
  return true;
}

// --- request payload codecs --------------------------------------------------

void encode_payload(std::string& out, const SimulateRequest& request) {
  out += std::string{"resolution "} + to_string(request.options.resolution) + "\n";
  out += "seed " + fmt_u64(request.options.seed) + "\n";
  out += "max-time-us " + fmt_i64(request.options.max_time.count()) + "\n";
  out += "max-firings " + fmt_i64(request.options.max_total_firings) + "\n";
  out += std::string{"record-trace "} + fmt_bool(request.options.record_trace) + "\n";
  out += "trace-limit " + fmt_u64(request.options.trace_limit) + "\n";
  out += std::string{"render-timeline "} + fmt_bool(request.render_timeline) + "\n";
}

bool decode_payload(const std::string& key, Args& args, SimulateRequest& request) {
  if (key == "resolution") {
    request.options.resolution = parse_resolution(args);
  } else if (key == "seed") {
    request.options.seed = args.u64("seed");
  } else if (key == "max-time-us") {
    request.options.max_time = support::TimePoint{args.i64("max-time-us")};
  } else if (key == "max-firings") {
    request.options.max_total_firings = args.i64("max-firings");
  } else if (key == "record-trace") {
    request.options.record_trace = args.boolean("record-trace");
  } else if (key == "trace-limit") {
    request.options.trace_limit = args.u64("trace-limit");
  } else if (key == "render-timeline") {
    request.render_timeline = args.boolean("render-timeline");
  } else {
    return false;
  }
  return true;
}

/// The analysis pass flags: AnalyzeRequest and AnalyzeResponse::Passes name
/// them alike and both travel as the same two lines.
template <typename Passes>
void encode_passes(std::string& out, const Passes& passes) {
  out += std::string{"passes "} + fmt_bool(passes.deadlock) + " " + fmt_bool(passes.buffers) +
         " " + fmt_bool(passes.structure) + " " + fmt_bool(passes.timing) + "\n";
  out += std::string{"include-reconfiguration "} + fmt_bool(passes.include_reconfiguration) +
         "\n";
}

template <typename Passes>
bool decode_passes(const std::string& key, Args& args, Passes& passes) {
  if (key == "passes") {
    passes.deadlock = args.boolean("deadlock");
    passes.buffers = args.boolean("buffers");
    passes.structure = args.boolean("structure");
    passes.timing = args.boolean("timing");
  } else if (key == "include-reconfiguration") {
    passes.include_reconfiguration = args.boolean("include-reconfiguration");
  } else {
    return false;
  }
  return true;
}

void encode_payload(std::string& out, const AnalyzeRequest& request) {
  encode_passes(out, request);
}

bool decode_payload(const std::string& key, Args& args, AnalyzeRequest& request) {
  return decode_passes(key, args, request);
}

void encode_payload(std::string& out, const ExploreRequest& request) {
  encode_explore_options(out, request.options);
  encode_overrides(out, request.problem, request.library);
}

bool decode_payload(const std::string& key, Args& args, ExploreRequest& request) {
  return decode_explore_options(key, args, request.options) ||
         decode_overrides(key, args, request.problem, request.library);
}

void encode_payload(std::string& out, const ParetoRequest& request) {
  out += "exhaustive-limit " + fmt_u64(request.options.exhaustive_limit) + "\n";
  out += "samples " + fmt_u64(request.options.samples) + "\n";
  out += "seed " + fmt_u64(request.options.seed) + "\n";
  encode_overrides(out, request.problem, request.library);
}

bool decode_payload(const std::string& key, Args& args, ParetoRequest& request) {
  if (key == "exhaustive-limit") {
    request.options.exhaustive_limit = args.u64("exhaustive-limit");
  } else if (key == "samples") {
    request.options.samples = args.u64("samples");
  } else if (key == "seed") {
    request.options.seed = args.u64("seed");
  } else {
    return decode_overrides(key, args, request.problem, request.library);
  }
  return true;
}

void encode_payload(std::string& out, const CompareRequest& request) {
  if (!request.strategies.empty()) {
    out += "strategies " + comma_list(request.strategies) + "\n";
  }
  encode_explore_options(out, request.options);
  out += std::string{"all-orders "} + fmt_bool(request.all_orders) + "\n";
  out += "max-orders " + fmt_u64(request.max_orders) + "\n";
  if (!request.objectives.empty()) {
    out += "objectives " + comma_list(request.objectives) + "\n";
  }
  encode_overrides(out, request.problem, request.library);
}

bool decode_payload(const std::string& key, Args& args, CompareRequest& request) {
  if (key == "strategies") {
    request.strategies =
        parse_comma_list<synth::StrategyKind>(args, "strategy", synth::parse_strategy);
  } else if (key == "all-orders") {
    request.all_orders = args.boolean("all-orders");
  } else if (key == "max-orders") {
    request.max_orders = args.u64("max-orders");
  } else if (key == "objectives") {
    request.objectives =
        parse_comma_list<synth::RankObjective>(args, "objective", synth::parse_objective);
  } else {
    return decode_explore_options(key, args, request.options) ||
           decode_overrides(key, args, request.problem, request.library);
  }
  return true;
}

// --- response payload codecs -------------------------------------------------

void encode_mapping_line(std::string& out, const char* key, const synth::Mapping& mapping) {
  for (const auto& [element, target] : mapping.assignments()) {
    out += std::string{key} + " " + quote(element) + " " + to_string(target) + "\n";
  }
}

void encode_names(std::string& out, const char* key, const std::vector<std::string>& names) {
  out += key;
  for (const std::string& name : names) out += " " + quote(name);
  out += "\n";
}

std::vector<std::string> decode_names(Args& args, const char* what) {
  std::vector<std::string> names;
  while (!args.done()) names.push_back(args.str(what));
  return names;
}

void encode_cost(std::string& out, const char* key, const synth::CostBreakdown& cost) {
  out += std::string{key} + " " + fmt_f64(cost.processor_cost) + " " + fmt_f64(cost.asic_cost) +
         " " + fmt_f64(cost.total) + " " + fmt_bool(cost.feasible) + " " +
         fmt_f64(cost.worst_utilization) + " " + quote(cost.infeasibility) + "\n";
}

void decode_cost(Args& args, synth::CostBreakdown& cost) {
  cost.processor_cost = args.f64("processor-cost");
  cost.asic_cost = args.f64("asic-cost");
  cost.total = args.f64("total");
  cost.feasible = args.boolean("feasible");
  cost.worst_utilization = args.f64("worst-utilization");
  cost.infeasibility = args.str("infeasibility");
}

void encode_payload(std::string& out, const SimulateResponse& response) {
  out += "model " + quote(response.model) + "\n";
  const sim::SimResult& r = response.result;
  out += "end-time-us " + fmt_i64(r.end_time.count()) + "\n";
  out += "total-firings " + fmt_i64(r.total_firings) + "\n";
  out += std::string{"quiescent "} + fmt_bool(r.quiescent) + "\n";
  out += std::string{"hit-limit "} + fmt_bool(r.hit_limit) + "\n";
  for (const sim::ProcessStats& p : r.processes) {
    out += "process-stat " + fmt_i64(p.firings) + " " + fmt_i64(p.busy.count()) + " " +
           fmt_i64(p.reconfigurations) + " " + fmt_i64(p.reconfig_time.count()) + " " +
           fmt_i64(p.cancelled);
    for (const std::int64_t firings : p.mode_firings) out += " " + fmt_i64(firings);
    out += "\n";
  }
  for (const sim::ChannelStats& c : r.channels) {
    out += "channel-stat " + fmt_i64(c.produced) + " " + fmt_i64(c.consumed) + " " +
           fmt_i64(c.dropped) + " " + fmt_i64(c.occupancy) + " " + fmt_i64(c.max_occupancy) +
           "\n";
  }
  for (const auto& [id, stats] : r.interfaces) {
    out += "interface-stat " + fmt_u64(id.value()) + " " + fmt_i64(stats.selections) + " " +
           fmt_i64(stats.reconfigurations) + " " + fmt_i64(stats.reconfig_time.count()) + "\n";
  }
  for (const sim::ConstraintMeasurement& c : r.constraints) {
    out += "constraint " + quote(c.name) + " " + fmt_bool(c.satisfied) + " " +
           fmt_f64(c.observed) + " " + fmt_f64(c.bound) + " " + fmt_i64(c.samples) + "\n";
  }
  for (const sim::TraceEvent& e : r.trace.events()) {
    out += "trace-event " + fmt_i64(e.time.count()) + " " + to_string(e.kind) + " " +
           quote(e.subject) + " " + quote(e.detail) + "\n";
  }
  out += std::string{"trace-truncated "} + fmt_bool(r.trace.truncated()) + "\n";
  for (const SimulateResponse::ProcessRow& row : response.processes) {
    out += "process-row " + quote(row.name) + " " + fmt_i64(row.firings) + " " +
           fmt_i64(row.busy.count()) + " " + fmt_i64(row.reconfigurations) + "\n";
  }
  for (const SimulateResponse::ChannelRow& row : response.channels) {
    out += "channel-row " + quote(row.name) + " " + fmt_i64(row.produced) + " " +
           fmt_i64(row.consumed) + " " + fmt_i64(row.occupancy) + " " +
           fmt_i64(row.max_occupancy) + "\n";
  }
  out += "timeline " + quote(response.timeline) + "\n";
}

/// Decoder state for rebuilding a SimulateResponse's Trace (sim::Trace only
/// grows through record(); the flag-only truncation marker is reproduced by
/// recording one overflow past a tight limit).
struct TraceRebuild {
  std::vector<sim::TraceEvent> events;
  bool truncated = false;

  [[nodiscard]] sim::Trace build() const {
    sim::Trace trace{truncated ? events.size() : std::max<std::size_t>(events.size(), 100'000)};
    for (const sim::TraceEvent& e : events) trace.record(e.time, e.kind, e.subject, e.detail);
    if (truncated) trace.record(support::TimePoint{}, sim::TraceKind::kFire, "", "");
    return trace;
  }
};

bool decode_payload(const std::string& key, Args& args, SimulateResponse& response,
                    TraceRebuild& trace) {
  sim::SimResult& r = response.result;
  if (key == "model") {
    response.model = args.str("model");
  } else if (key == "end-time-us") {
    r.end_time = support::TimePoint{args.i64("end-time-us")};
  } else if (key == "total-firings") {
    r.total_firings = args.i64("total-firings");
  } else if (key == "quiescent") {
    r.quiescent = args.boolean("quiescent");
  } else if (key == "hit-limit") {
    r.hit_limit = args.boolean("hit-limit");
  } else if (key == "process-stat") {
    sim::ProcessStats stats;
    stats.firings = args.i64("firings");
    stats.busy = support::Duration{args.i64("busy-us")};
    stats.reconfigurations = args.i64("reconfigurations");
    stats.reconfig_time = support::Duration{args.i64("reconfig-us")};
    stats.cancelled = args.i64("cancelled");
    while (!args.done()) stats.mode_firings.push_back(args.i64("mode firings"));
    r.processes.push_back(std::move(stats));
  } else if (key == "channel-stat") {
    sim::ChannelStats stats;
    stats.produced = args.i64("produced");
    stats.consumed = args.i64("consumed");
    stats.dropped = args.i64("dropped");
    stats.occupancy = args.i64("occupancy");
    stats.max_occupancy = args.i64("max-occupancy");
    r.channels.push_back(stats);
  } else if (key == "interface-stat") {
    const auto id = support::InterfaceId{args.u32("interface id")};
    sim::InterfaceStats stats;
    stats.selections = args.i64("selections");
    stats.reconfigurations = args.i64("reconfigurations");
    stats.reconfig_time = support::Duration{args.i64("reconfig-us")};
    r.interfaces.emplace(id, stats);
  } else if (key == "constraint") {
    sim::ConstraintMeasurement c;
    c.name = args.str("constraint name");
    c.satisfied = args.boolean("satisfied");
    c.observed = args.f64("observed");
    c.bound = args.f64("bound");
    c.samples = args.i64("samples");
    r.constraints.push_back(std::move(c));
  } else if (key == "trace-event") {
    sim::TraceEvent e;
    e.time = support::TimePoint{args.i64("time-us")};
    e.kind = parse_trace_kind(args);
    e.subject = args.str("subject");
    e.detail = args.str("detail");
    trace.events.push_back(std::move(e));
  } else if (key == "trace-truncated") {
    trace.truncated = args.boolean("trace-truncated");
  } else if (key == "process-row") {
    SimulateResponse::ProcessRow row;
    row.name = args.str("process name");
    row.firings = args.i64("firings");
    row.busy = support::Duration{args.i64("busy-us")};
    row.reconfigurations = args.i64("reconfigurations");
    response.processes.push_back(std::move(row));
  } else if (key == "channel-row") {
    SimulateResponse::ChannelRow row;
    row.name = args.str("channel name");
    row.produced = args.i64("produced");
    row.consumed = args.i64("consumed");
    row.occupancy = args.i64("occupancy");
    row.max_occupancy = args.i64("max-occupancy");
    response.channels.push_back(std::move(row));
  } else if (key == "timeline") {
    response.timeline = args.str("timeline");
  } else {
    return false;
  }
  return true;
}

void encode_payload(std::string& out, const AnalyzeResponse& response) {
  out += "model " + quote(response.model) + "\n";
  encode_passes(out, response.passes);
  for (const AnalyzeResponse::Deadlock& d : response.deadlocks) {
    out += "deadlock " + fmt_i64(d.initial_tokens) + " " + fmt_i64(d.required_tokens) + " " +
           quote(d.description);
    for (const std::string& name : d.cycle) out += " " + quote(name);
    out += "\n";
  }
  for (const analysis::ChannelFlow& flow : response.buffer_flows) {
    out += "buffer-flow " + fmt_u64(flow.channel.value()) + " " + quote(flow.name) + " " +
           to_string(flow.flow) + " " + fmt_f64(flow.max_inflow) + " " +
           fmt_f64(flow.min_drain) + "\n";
  }
  for (const analysis::LatencyCheck& check : response.latency_checks) {
    out += "latency-check " + quote(check.constraint) + " " +
           fmt_i64(check.path_latency.lo().count()) + " " +
           fmt_i64(check.path_latency.hi().count()) + " " + fmt_i64(check.bound.count()) + " " +
           fmt_bool(check.satisfiable) + " " + fmt_bool(check.guaranteed) + " " +
           fmt_i64(check.slack.count()) + "\n";
  }
  out += std::string{"structure "} + fmt_bool(response.structure.acyclic) + " " +
         fmt_u64(response.structure.components) + "\n";
  encode_names(out, "sources", response.structure.sources);
  encode_names(out, "sinks", response.structure.sinks);
  encode_names(out, "dead", response.structure.dead);
}

bool decode_payload(const std::string& key, Args& args, AnalyzeResponse& response) {
  if (key == "model") {
    response.model = args.str("model");
  } else if (key == "deadlock") {
    AnalyzeResponse::Deadlock d;
    d.initial_tokens = args.i64("initial tokens");
    d.required_tokens = args.i64("required tokens");
    d.description = args.str("description");
    d.cycle = decode_names(args, "cycle process");
    response.deadlocks.push_back(std::move(d));
  } else if (key == "buffer-flow") {
    analysis::ChannelFlow flow;
    flow.channel = support::ChannelId{args.u32("channel id")};
    flow.name = args.str("channel name");
    flow.flow = parse_flow_class(args);
    flow.max_inflow = args.f64("max-inflow");
    flow.min_drain = args.f64("min-drain");
    response.buffer_flows.push_back(std::move(flow));
  } else if (key == "latency-check") {
    analysis::LatencyCheck check;
    check.constraint = args.str("constraint name");
    const auto lo = support::Duration{args.i64("lo-us")};
    const auto hi = support::Duration{args.i64("hi-us")};
    check.path_latency = support::DurationInterval{lo, hi};
    check.bound = support::Duration{args.i64("bound-us")};
    check.satisfiable = args.boolean("satisfiable");
    check.guaranteed = args.boolean("guaranteed");
    check.slack = support::Duration{args.i64("slack-us")};
    response.latency_checks.push_back(std::move(check));
  } else if (key == "structure") {
    response.structure.acyclic = args.boolean("acyclic");
    response.structure.components = args.u64("components");
  } else if (key == "sources") {
    response.structure.sources = decode_names(args, "source");
  } else if (key == "sinks") {
    response.structure.sinks = decode_names(args, "sink");
  } else if (key == "dead") {
    response.structure.dead = decode_names(args, "dead process");
  } else {
    return decode_passes(key, args, response.passes);
  }
  return true;
}

void encode_payload(std::string& out, const ExploreResponse& response) {
  out += "model " + quote(response.model) + "\n";
  out += "problem " + quote(response.problem) + "\n";
  out += "applications " + fmt_u64(response.applications) + "\n";
  out += "elements " + fmt_u64(response.elements) + "\n";
  out += "library-origin " + quote(response.library_origin) + "\n";
  out += "engine " + quote(response.result.engine) + "\n";
  out += std::string{"found-feasible "} + fmt_bool(response.result.found_feasible) + "\n";
  out += "decisions " + fmt_i64(response.result.decisions) + "\n";
  out += "evaluations " + fmt_i64(response.result.evaluations) + "\n";
  encode_cost(out, "cost", response.result.cost);
  encode_names(out, "cost-software", response.result.cost.software);
  encode_names(out, "cost-hardware", response.result.cost.hardware);
  encode_mapping_line(out, "map", response.result.mapping);
}

bool decode_payload(const std::string& key, Args& args, ExploreResponse& response) {
  if (key == "model") {
    response.model = args.str("model");
  } else if (key == "problem") {
    response.problem = args.str("problem");
  } else if (key == "applications") {
    response.applications = args.u64("applications");
  } else if (key == "elements") {
    response.elements = args.u64("elements");
  } else if (key == "library-origin") {
    response.library_origin = args.str("library-origin");
  } else if (key == "engine") {
    response.result.engine = args.str("engine");
  } else if (key == "found-feasible") {
    response.result.found_feasible = args.boolean("found-feasible");
  } else if (key == "decisions") {
    response.result.decisions = args.i64("decisions");
  } else if (key == "evaluations") {
    response.result.evaluations = args.i64("evaluations");
  } else if (key == "cost") {
    decode_cost(args, response.result.cost);
  } else if (key == "cost-software") {
    response.result.cost.software = decode_names(args, "software element");
  } else if (key == "cost-hardware") {
    response.result.cost.hardware = decode_names(args, "hardware element");
  } else if (key == "map") {
    const std::string element = args.str("element");
    response.result.mapping.set(element, parse_target_kind(args));
  } else {
    return false;
  }
  return true;
}

void encode_payload(std::string& out, const ParetoResponse& response) {
  out += "model " + quote(response.model) + "\n";
  out += "applications " + fmt_u64(response.applications) + "\n";
  out += "library-origin " + quote(response.library_origin) + "\n";
  for (const synth::ParetoPoint& point : response.points) {
    out += "point " + fmt_f64(point.cost) + " " + fmt_i64(point.worst_latency.count());
    for (const auto& [element, target] : point.mapping.assignments()) {
      out += " " + quote(element) + " " + to_string(target);
    }
    out += "\n";
  }
}

bool decode_payload(const std::string& key, Args& args, ParetoResponse& response) {
  if (key == "model") {
    response.model = args.str("model");
  } else if (key == "applications") {
    response.applications = args.u64("applications");
  } else if (key == "library-origin") {
    response.library_origin = args.str("library-origin");
  } else if (key == "point") {
    synth::ParetoPoint point;
    point.cost = args.f64("cost");
    point.worst_latency = support::Duration{args.i64("worst-latency-us")};
    while (!args.done()) {
      const std::string element = args.str("element");
      point.mapping.set(element, parse_target_kind(args));
    }
    response.points.push_back(std::move(point));
  } else {
    return false;
  }
  return true;
}

void encode_outcome(std::string& out, const char* prefix, const synth::StrategyOutcome& outcome) {
  const std::string p{prefix};
  out += p + " " + quote(outcome.strategy) + " " + quote(outcome.detail) + " " +
         fmt_bool(outcome.feasible) + " " + fmt_i64(outcome.decisions) + " " +
         fmt_i64(outcome.evaluations) + "\n";
  encode_cost(out, (p + "-cost").c_str(), outcome.cost);
  encode_names(out, (p + "-software").c_str(), outcome.cost.software);
  encode_names(out, (p + "-hardware").c_str(), outcome.cost.hardware);
  encode_mapping_line(out, (p + "-map").c_str(), outcome.mapping);
  for (const synth::Mapping& mapping : outcome.per_app) {
    out += p + "-per-app\n";
    encode_mapping_line(out, (p + "-per-app-map").c_str(), mapping);
  }
}

void encode_payload(std::string& out, const CompareResponse& response) {
  out += "model " + quote(response.model) + "\n";
  out += "problem " + quote(response.problem) + "\n";
  out += "applications " + fmt_u64(response.applications) + "\n";
  out += "library-origin " + quote(response.library_origin) + "\n";
  if (!response.objectives.empty()) {
    out += "objectives " + comma_list(response.objectives) + "\n";
  }
  out += "ranking";
  for (const std::size_t index : response.ranking) out += " " + fmt_u64(index);
  out += "\n";
  for (const CompareResponse::Row& row : response.rows) {
    out += "row " + quote(row.strategy) + " " + quote(row.scope) + " " +
           fmt_u64(row.orders_tried) + " " + fmt_f64(row.worst_total) + " " +
           fmt_i64(row.decisions) + " " + fmt_i64(row.evaluations) + "\n";
    encode_outcome(out, "outcome", row.outcome);
    for (const CompareResponse::OrderOutcome& order : row.per_order) {
      out += "per-order " + fmt_f64(order.total) + " " + fmt_f64(order.worst_utilization) + " " +
             fmt_bool(order.feasible) + " " + fmt_i64(order.decisions);
      for (const std::size_t index : order.order) out += " " + fmt_u64(index);
      out += "\n";
    }
  }
}

bool decode_payload(const std::string& key, Args& args, CompareResponse& response) {
  CompareResponse::Row* row = response.rows.empty() ? nullptr : &response.rows.back();
  const auto require_row = [&]() -> CompareResponse::Row& {
    if (!row) fail(args.number(), "'" + key + "' before any 'row'");
    return *row;
  };
  if (key == "model") {
    response.model = args.str("model");
  } else if (key == "problem") {
    response.problem = args.str("problem");
  } else if (key == "applications") {
    response.applications = args.u64("applications");
  } else if (key == "library-origin") {
    response.library_origin = args.str("library-origin");
  } else if (key == "objectives") {
    response.objectives =
        parse_comma_list<synth::RankObjective>(args, "objective", synth::parse_objective);
  } else if (key == "ranking") {
    while (!args.done()) response.ranking.push_back(args.u64("ranking index"));
  } else if (key == "row") {
    CompareResponse::Row fresh;
    fresh.strategy = args.str("strategy");
    fresh.scope = args.str("scope");
    fresh.orders_tried = args.u64("orders-tried");
    fresh.worst_total = args.f64("worst-total");
    fresh.decisions = args.i64("decisions");
    fresh.evaluations = args.i64("evaluations");
    response.rows.push_back(std::move(fresh));
  } else if (key == "outcome") {
    synth::StrategyOutcome& outcome = require_row().outcome;
    outcome.strategy = args.str("strategy");
    outcome.detail = args.str("detail");
    outcome.feasible = args.boolean("feasible");
    outcome.decisions = args.i64("decisions");
    outcome.evaluations = args.i64("evaluations");
  } else if (key == "outcome-cost") {
    decode_cost(args, require_row().outcome.cost);
  } else if (key == "outcome-software") {
    require_row().outcome.cost.software = decode_names(args, "software element");
  } else if (key == "outcome-hardware") {
    require_row().outcome.cost.hardware = decode_names(args, "hardware element");
  } else if (key == "outcome-map") {
    const std::string element = args.str("element");
    require_row().outcome.mapping.set(element, parse_target_kind(args));
  } else if (key == "outcome-per-app") {
    require_row().outcome.per_app.emplace_back();
  } else if (key == "outcome-per-app-map") {
    auto& per_app = require_row().outcome.per_app;
    if (per_app.empty()) fail(args.number(), "'outcome-per-app-map' before 'outcome-per-app'");
    const std::string element = args.str("element");
    per_app.back().set(element, parse_target_kind(args));
  } else if (key == "per-order") {
    CompareResponse::OrderOutcome order;
    order.total = args.f64("total");
    order.worst_utilization = args.f64("worst-utilization");
    order.feasible = args.boolean("feasible");
    order.decisions = args.i64("decisions");
    while (!args.done()) order.order.push_back(args.u64("order index"));
    require_row().per_order.push_back(std::move(order));
  } else {
    return false;
  }
  return true;
}

// --- frame scaffolding -------------------------------------------------------

void encode_diagnostics(std::string& out, const support::DiagnosticList& diagnostics) {
  for (const support::Diagnostic& d : diagnostics.items()) {
    out += std::string{"diagnostic "} + to_string(d.severity) + " " + quote(d.code) + " " +
           quote(d.message) + "\n";
  }
}

/// Parses the body lines of a frame: diagnostics collect into `diagnostics`,
/// everything else dispatches to `body` (which returns false for unknown
/// keys). Requires the final `end` line.
template <typename Body>
void decode_body(const std::vector<Line>& lines, support::DiagnosticList& diagnostics,
                 Body&& body) {
  bool ended = false;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const Line& line = lines[i];
    if (ended) fail(line.number, "content after 'end'");
    if (line.tokens.front().quoted) fail(line.number, "expected a key, got a quoted string");
    const std::string& key = line.key();
    if (key == "end") {
      Args args{line};
      args.finish();
      ended = true;
      continue;
    }
    Args args{line};
    if (key == "diagnostic") {
      const support::Severity severity = parse_severity(args);
      std::string code = args.str("code");
      std::string message = args.str("message");
      diagnostics.add(severity, std::move(code), std::move(message));
    } else if (!body(key, args)) {
      fail(line.number, "unknown key '" + key + "'");
    }
    args.finish();
  }
  if (!ended) {
    fail(lines.empty() ? 1 : lines.back().number, "frame not terminated by 'end'");
  }
}

/// A frame's non-empty lines plus the header version the decoder accepted.
struct OpenedFrame {
  std::vector<Line> lines;
  int version = kVersion;
};

/// Checks a frame header `<tag> v<version> ...` and returns its lines.
/// Versions 1..max_version are accepted (the envelope decoders take v2 —
/// the pipelined headers — while `info` stays v1-only).
OpenedFrame open_frame(std::string_view frame, const char* tag, int max_version = kVersion) {
  std::vector<Line> lines = split_frame(frame);
  if (lines.empty()) fail(1, std::string{"empty frame (expected '"} + tag + "')");
  Args args{lines.front(), 0};
  const std::string head = args.word("frame tag");
  if (head != tag) fail(lines.front().number, "expected '" + std::string{tag} + "' frame, got '" + head + "'");
  const std::string version = args.word("version");
  int parsed = 0;
  const char* first = version.data() + 1;
  const char* last = version.data() + version.size();
  const bool well_formed =
      version.size() >= 2 && version.front() == 'v' &&
      [&] {
        const auto [end, ec] = std::from_chars(first, last, parsed);
        return ec == std::errc{} && end == last;
      }();
  if (!well_formed || parsed < 1 || parsed > max_version) {
    const std::string range = max_version == kVersion
                                  ? "v" + std::to_string(kVersion)
                                  : "v1..v" + std::to_string(max_version);
    fail(lines.front().number,
         "unsupported wire version '" + version + "' (expected " + range + ")");
  }
  return OpenedFrame{std::move(lines), parsed};
}

template <typename T>
Result<T> wire_failure(const FrameError& error) {
  return Result<T>::failure(diag::kWireError,
                            "line " + std::to_string(error.line) + ": " + error.message);
}

}  // namespace

// --- public surface ----------------------------------------------------------

std::string quote(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  out.push_back('"');
  for (const char c : text) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: out.push_back(c);
    }
  }
  out.push_back('"');
  return out;
}

namespace {

/// Everything below a request's header line — bodies are identical across
/// protocol versions, so both encoders share this.
void encode_request_body(std::string& out, const AnyRequest& request) {
  // Options without a target spec still travel (as an empty target), so
  // the invalid combination round-trips and fails identically on both
  // sides of the wire instead of silently becoming a valid request.
  if (!request.target.empty() || !request.target_options.empty()) {
    out += "target " + quote(request.target);
    for (const std::string& option : request.target_options) out += " " + quote(option);
    out += "\n";
  }
  if (const ModelId model = model_of(request.payload); model.valid()) {
    out += "model " + fmt_u64(model.value()) + "\n";
  }
  if (request.options.priority != Priority::kNormal) {
    out += std::string{"priority "} + to_string(request.options.priority) + "\n";
  }
  if (request.options.deadline) {
    out += "deadline-ms " + fmt_i64(request.options.deadline->count()) + "\n";
  }
  std::visit([&out](const auto& payload) { encode_payload(out, payload); }, request.payload);
  out += "end\n";
}

}  // namespace

std::string encode(const AnyRequest& request) {
  std::string out = "request v" + std::to_string(kVersion) + " " +
                    to_string(kind_of(request)) + "\n";
  encode_request_body(out, request);
  return out;
}

std::string encode(const AnyRequest& request, std::uint64_t frame_id) {
  std::string out = "request v" + std::to_string(kVersionPipelined) + " " +
                    to_string(kind_of(request)) + " " + fmt_u64(frame_id) + "\n";
  encode_request_body(out, request);
  return out;
}

Result<AnyRequest> decode_request(std::string_view frame) {
  try {
    const auto [lines, version] = open_frame(frame, "request", kVersionPipelined);
    Args header{lines.front(), 2};
    const std::string kind_name = header.word("request kind");
    if (version >= kVersionPipelined) (void)header.u64("frame id");
    header.finish();
    const std::optional<RequestKind> kind = parse_request_kind(kind_name);
    if (!kind) fail(lines.front().number, "unknown request kind '" + kind_name + "'");

    AnyRequest request;
    switch (*kind) {
      case RequestKind::kSimulate: request.payload = SimulateRequest{}; break;
      case RequestKind::kAnalyze: request.payload = AnalyzeRequest{}; break;
      case RequestKind::kExplore: request.payload = ExploreRequest{}; break;
      case RequestKind::kPareto: request.payload = ParetoRequest{}; break;
      case RequestKind::kCompare: request.payload = CompareRequest{}; break;
    }

    support::DiagnosticList ignored;
    decode_body(lines, ignored, [&](const std::string& key, Args& args) {
      if (key == "target") {
        request.target = args.str("target spec");
        while (!args.done()) request.target_options.push_back(args.str("target option"));
        return true;
      }
      if (key == "model") {
        set_model(request.payload, ModelId{args.u32("model handle")});
        return true;
      }
      if (key == "priority") {
        const std::string name = args.word("priority");
        const std::optional<Priority> priority = parse_priority(name);
        if (!priority) fail(args.number(), "unknown priority '" + name + "' (low|normal|high)");
        request.options.priority = *priority;
        return true;
      }
      if (key == "deadline-ms") {
        request.options.deadline = std::chrono::milliseconds{args.i64("deadline-ms")};
        return true;
      }
      return std::visit([&](auto& payload) { return decode_payload(key, args, payload); },
                        request.payload);
    });
    return Result<AnyRequest>::success(std::move(request));
  } catch (const FrameError& error) {
    return wire_failure<AnyRequest>(error);
  } catch (const std::exception& e) {
    return Result<AnyRequest>::failure(diag::kWireError, e.what());
  }
}

namespace {

/// The versioned header prefixes of a response frame: strictly ordered
/// ("response v1") and pipelined ("response v2 <id>").
std::string response_head() { return "response v" + std::to_string(kVersion); }
std::string response_head(std::uint64_t frame_id) {
  return "response v" + std::to_string(kVersionPipelined) + " " + fmt_u64(frame_id);
}

/// Status, kind and body shared by both response headers; `head` is the
/// already-versioned header prefix (see response_head).
std::string encode_response_frame(std::string head, const Result<AnyResponse>& result) {
  std::string out = std::move(head);
  if (!result.ok()) {
    out += " error\n";
    encode_diagnostics(out, result.diagnostics());
    out += "end\n";
    return out;
  }
  out += " ok " + std::string{to_string(kind_of(result.value()))} + "\n";
  encode_diagnostics(out, result.diagnostics());
  std::visit([&out](const auto& response) { encode_payload(out, response); }, result.value());
  out += "end\n";
  return out;
}

}  // namespace

std::string encode(const Result<AnyResponse>& result) {
  return encode_response_frame(response_head(), result);
}

std::string encode(const Result<AnyResponse>& result, std::uint64_t frame_id) {
  return encode_response_frame(response_head(frame_id), result);
}

std::string retag(std::string_view frame, std::uint64_t frame_id) {
  std::string out = response_head(frame_id);
  out.append(frame.substr(response_head().size()));
  return out;
}

Result<AnyResponse> decode_response(std::string_view frame) {
  try {
    const auto [lines, version] = open_frame(frame, "response", kVersionPipelined);
    Args header{lines.front(), 2};
    if (version >= kVersionPipelined) (void)header.u64("frame id");
    const std::string status = header.word("status");
    if (status == "error") {
      header.finish();
      support::DiagnosticList diagnostics;
      decode_body(lines, diagnostics, [](const std::string&, Args&) { return false; });
      if (diagnostics.empty()) {
        diagnostics.error(diag::kWireError, "error response without diagnostics");
      }
      return Result<AnyResponse>::failure(std::move(diagnostics));
    }
    if (status != "ok") {
      fail(lines.front().number, "unknown response status '" + status + "' (ok|error)");
    }
    const std::string kind_name = header.word("response kind");
    header.finish();
    const std::optional<RequestKind> kind = parse_request_kind(kind_name);
    if (!kind) fail(lines.front().number, "unknown response kind '" + kind_name + "'");

    support::DiagnosticList notes;
    AnyResponse response;
    switch (*kind) {
      case RequestKind::kSimulate: {
        SimulateResponse typed;
        TraceRebuild trace;
        decode_body(lines, notes, [&](const std::string& key, Args& args) {
          return decode_payload(key, args, typed, trace);
        });
        typed.result.trace = trace.build();
        response = std::move(typed);
        break;
      }
      case RequestKind::kAnalyze: {
        AnalyzeResponse typed;
        decode_body(lines, notes, [&](const std::string& key, Args& args) {
          return decode_payload(key, args, typed);
        });
        response = std::move(typed);
        break;
      }
      case RequestKind::kExplore: {
        ExploreResponse typed;
        decode_body(lines, notes, [&](const std::string& key, Args& args) {
          return decode_payload(key, args, typed);
        });
        response = std::move(typed);
        break;
      }
      case RequestKind::kPareto: {
        ParetoResponse typed;
        decode_body(lines, notes, [&](const std::string& key, Args& args) {
          return decode_payload(key, args, typed);
        });
        response = std::move(typed);
        break;
      }
      case RequestKind::kCompare: {
        CompareResponse typed;
        decode_body(lines, notes, [&](const std::string& key, Args& args) {
          return decode_payload(key, args, typed);
        });
        response = std::move(typed);
        break;
      }
    }
    return Result<AnyResponse>::success(std::move(response), std::move(notes));
  } catch (const FrameError& error) {
    return wire_failure<AnyResponse>(error);
  } catch (const std::exception& e) {
    return Result<AnyResponse>::failure(diag::kWireError, e.what());
  }
}

namespace {

/// The first line of `frame`, tokenized; nullopt when it does not tokenize.
/// Never throws: a peek that cannot read the header leaves the full decoder
/// to produce the line-numbered error.
std::optional<std::vector<Token>> head_tokens(std::string_view frame) {
  try {
    const std::size_t nl = frame.find('\n');
    return tokenize(nl == std::string_view::npos ? frame : frame.substr(0, nl), 1);
  } catch (const FrameError&) {
    return std::nullopt;
  }
}

/// The u64 at token `position` of a header line, provided the line starts
/// `<tag> v2`.
std::optional<std::uint64_t> frame_id_at(const std::vector<Token>& tokens, const char* tag,
                                         std::size_t position) {
  if (tokens.size() <= position) return std::nullopt;
  if (tokens[0].quoted || tokens[0].text != tag) return std::nullopt;
  if (tokens[1].quoted || tokens[1].text != "v" + std::to_string(kVersionPipelined)) {
    return std::nullopt;
  }
  const Token& id = tokens[position];
  if (id.quoted) return std::nullopt;
  std::uint64_t value = 0;
  const auto [end, ec] = std::from_chars(id.text.data(), id.text.data() + id.text.size(), value);
  if (ec != std::errc{} || end != id.text.data() + id.text.size()) return std::nullopt;
  return value;
}

}  // namespace

std::optional<std::uint64_t> request_frame_id(std::string_view frame) {
  // `request v2 <kind> <id>`
  const auto tokens = head_tokens(frame);
  return tokens ? frame_id_at(*tokens, "request", 3) : std::nullopt;
}

std::optional<std::uint64_t> response_frame_id(std::string_view frame) {
  // `response v2 <id> <status> ...`
  const auto tokens = head_tokens(frame);
  return tokens ? frame_id_at(*tokens, "response", 2) : std::nullopt;
}

FrameHead peek_head(std::string_view frame) {
  FrameHead head;
  const auto tokens = head_tokens(frame);
  if (!tokens || tokens->empty() || tokens->front().quoted) return head;
  head.tag = tokens->front().text;
  head.request_id = frame_id_at(*tokens, "request", 3);
  return head;
}

// --- service frames ----------------------------------------------------------

namespace {

/// Shared shape of the one-payload-line service frames (`batch`,
/// `control`): a header line plus the terminating `end`. The `end` is what
/// lets read_frame treat *every* frame uniformly — a typo'd tag consumes
/// exactly one frame and produces exactly one error reply instead of
/// desynchronizing the request/reply pairing. For backward-leniency the
/// parsers also accept the bare header without `end`.
std::optional<Line> service_frame_header(std::string_view frame, const char* tag) {
  const std::vector<Line> lines = split_frame(frame);
  if (lines.empty() || lines.size() > 2) return std::nullopt;
  if (lines.size() == 2 &&
      (lines[1].tokens.size() != 1 || lines[1].key() != "end" || lines[1].tokens[0].quoted)) {
    return std::nullopt;
  }
  Args args{lines.front(), 0};
  if (args.word("frame tag") != tag) return std::nullopt;
  if (args.word("version") != "v" + std::to_string(kVersion)) return std::nullopt;
  return lines.front();
}

}  // namespace

std::string batch_header(std::size_t slots) {
  return "batch v" + std::to_string(kVersion) + " " + fmt_u64(slots) + "\nend\n";
}

std::optional<std::size_t> parse_batch_header(std::string_view frame) {
  try {
    const std::optional<Line> header = service_frame_header(frame, "batch");
    if (!header) return std::nullopt;
    Args args{*header, 2};
    const std::size_t slots = args.u64("slot count");
    args.finish();
    return slots;
  } catch (const FrameError&) {
    return std::nullopt;
  }
}

std::string control_frame(std::string_view command, const std::vector<std::string>& args) {
  std::string out = "control v" + std::to_string(kVersion) + " " + std::string{command};
  for (const std::string& arg : args) out += " " + quote(arg);
  out += "\nend\n";
  return out;
}

std::optional<ControlCommand> parse_control(std::string_view frame) {
  try {
    const std::optional<Line> header = service_frame_header(frame, "control");
    if (!header) return std::nullopt;
    Args args{*header, 2};
    ControlCommand command;
    command.command = args.word("command");
    while (!args.done()) command.args.push_back(args.take("argument").text);
    return command;
  } catch (const FrameError&) {
    return std::nullopt;
  }
}

std::string hello_frame(std::string_view tenant, std::string_view token) {
  std::string out = "hello v" + std::to_string(kVersion) + " " + quote(tenant);
  if (!token.empty()) out += " " + quote(token);
  out += "\nend\n";
  return out;
}

std::optional<HelloCommand> parse_hello(std::string_view frame) {
  try {
    const std::optional<Line> header = service_frame_header(frame, "hello");
    if (!header) return std::nullopt;
    Args args{*header, 2};
    HelloCommand hello;
    hello.tenant = args.take("tenant").text;
    if (!args.done()) hello.token = args.take("token").text;
    args.finish();
    return hello;
  } catch (const FrameError&) {
    return std::nullopt;
  }
}

std::string encode_info(std::string_view text) {
  std::string out = "info v" + std::to_string(kVersion) + "\n";
  out += "text " + quote(text) + "\n";
  out += "end\n";
  return out;
}

Result<std::string> decode_info(std::string_view frame) {
  try {
    const std::vector<Line> lines = open_frame(frame, "info").lines;
    Args header{lines.front(), 2};
    header.finish();
    std::string text;
    support::DiagnosticList ignored;
    decode_body(lines, ignored, [&](const std::string& key, Args& args) {
      if (key != "text") return false;
      text = args.str("text");
      return true;
    });
    return Result<std::string>::success(std::move(text));
  } catch (const FrameError& error) {
    return wire_failure<std::string>(error);
  } catch (const std::exception& e) {
    return Result<std::string>::failure(diag::kWireError, e.what());
  }
}

// --- stream utilities --------------------------------------------------------

namespace {

/// std::getline(in, line), except that a set `before_wait` runs whenever the
/// next byte is not buffered yet — before each read that could block.
bool next_line(std::istream& in, std::string& line, const std::function<void()>& before_wait) {
  if (!before_wait) return static_cast<bool>(std::getline(in, line));
  using Traits = std::istream::traits_type;
  line.clear();
  const std::istream::sentry ok{in, /*noskipws=*/true};
  if (!ok) return false;
  std::streambuf& buffer = *in.rdbuf();
  while (true) {
    if (buffer.in_avail() <= 0) before_wait();
    const Traits::int_type c = buffer.sbumpc();
    if (Traits::eq_int_type(c, Traits::eof())) {
      // As getline: end of input after some characters is a last line.
      in.setstate(line.empty() ? std::ios::eofbit | std::ios::failbit : std::ios::eofbit);
      return !line.empty();
    }
    if (Traits::to_char_type(c) == '\n') return true;
    line.push_back(Traits::to_char_type(c));
  }
}

}  // namespace

std::optional<std::string> read_frame(std::istream& in, const std::function<void()>& before_wait) {
  // Every frame — envelope, info, batch header, control, or a typo'd tag —
  // is `end`-terminated, so the reader needs no per-tag knowledge and a
  // malformed frame consumes exactly one frame's worth of lines (one error
  // reply, stream stays in sync).
  std::string frame;
  std::string line;
  bool started = false;
  while (next_line(in, line, before_wait)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (!started) {
      if (line.empty()) continue;  // skip blank separators between frames
      started = true;
      frame = line + "\n";
      if (line == "end") return frame;  // stray terminator: one-line frame
      continue;
    }
    frame += line + "\n";
    if (line == "end") return frame;
  }
  if (started) return frame;  // truncated frame: let the decoder report it
  return std::nullopt;
}

}  // namespace spivar::api::wire
