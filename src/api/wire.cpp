#include "api/wire.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <concepts>
#include <istream>
#include <limits>
#include <ranges>
#include <span>
#include <streambuf>
#include <tuple>
#include <type_traits>
#include <utility>
#include <variant>

#include "support/hash.hpp"

namespace spivar::api::wire {

namespace {

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
  tokens.reserve(4);  // most lines are a key and a few columns
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
  lines.reserve(std::ranges::count(frame, '\n') + 1);
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

  const std::string& str(const char* what) {
    const Token& token = take(what);
    if (!token.quoted) fail(line_.number, std::string{what} + " must be a quoted string");
    return token.text;
  }

  const std::string& word(const char* what) {
    const Token& token = take(what);
    if (token.quoted) fail(line_.number, std::string{what} + " must be unquoted");
    return token.text;
  }

  /// A number, as std::from_chars reads it.
  template <typename T>
  T parse(const char* what) {
    const std::string& text = word(what);
    T value{};
    const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
    if (ec != std::errc{} || end != text.data() + text.size()) {
      fail(line_.number, std::string{"invalid "} + what + " '" + text + "'");
    }
    return value;
  }

  std::uint64_t u64(const char* what) { return parse<std::uint64_t>(what); }

  std::uint32_t u32(const char* what) {
    const std::uint64_t value = u64(what);
    if (value > std::numeric_limits<std::uint32_t>::max()) {
      fail(line_.number, std::string{what} + " out of range: " + std::to_string(value));
    }
    return static_cast<std::uint32_t>(value);
  }

  bool boolean(const char* what) {
    const std::string& text = word(what);
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

// --- tokens ------------------------------------------------------------------
//
// put_token appends one field's token to a frame and get_token reads it
// back, `label` naming the field in decode errors. Numbers are what
// std::to_chars writes: for a double, the shortest decimal that parses back
// to the same IEEE value, so costs, utilizations and rates travel
// bit-identically.

/// The wire's names for a synthesis problem's granularity.
constexpr const char* to_string(synth::ElementGranularity granularity) noexcept {
  return granularity == synth::ElementGranularity::kProcess ? "process" : "cluster";
}

/// Every value of each enum the wire names by its to_string, in the order a
/// decode error lists them.
constexpr auto values_of(sim::Resolution) {
  using enum sim::Resolution;
  return std::array{kLowerBound, kUpperBound, kRandom};
}
constexpr auto values_of(sim::TraceKind) {
  using enum sim::TraceKind;
  return std::array{kFire, kComplete, kReconfigure, kSelect, kCancel, kDrop};
}
constexpr auto values_of(synth::ExploreEngine) {
  using enum synth::ExploreEngine;
  return std::array{kExhaustive, kGreedy, kAnnealing};
}
constexpr auto values_of(synth::Target) {
  return std::array{synth::Target::kSoftware, synth::Target::kHardware};
}
constexpr auto values_of(synth::ElementGranularity) {
  return std::array{synth::ElementGranularity::kClusterAtomic, synth::ElementGranularity::kProcess};
}
constexpr auto values_of(analysis::FlowClass) {
  using enum analysis::FlowClass;
  return std::array{kBalanced, kPossiblyUnbounded, kStarving, kSourceOnly, kSinkOnly, kRegister};
}
constexpr auto values_of(support::Severity) {
  using enum support::Severity;
  return std::array{kNote, kWarning, kError};
}
constexpr auto values_of(Priority) {
  return std::array{Priority::kLow, Priority::kNormal, Priority::kHigh};
}

/// Durations and time points travel as their count.
template <typename T>
concept Counted = requires(const T& value) { T{value.count()}; };
/// Store ids travel as their index.
template <typename T>
concept IsId = requires(const T& id) { id.valid(); };
template <typename T>
concept IsOptional = requires(const T& value) { value.has_value(); };

void put_token(std::string& out, const auto& value) {
  using T = std::remove_cvref_t<decltype(value)>;
  if constexpr (std::is_convertible_v<T, std::string_view>) {
    out.push_back('"');
    for (const char c : std::string_view{value}) {
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
  } else if constexpr (std::is_same_v<T, bool>) {
    out += value ? "true" : "false";
  } else if constexpr (std::is_enum_v<T>) {
    out += to_string(value);
  } else if constexpr (Counted<T>) {
    put_token(out, value.count());
  } else if constexpr (IsId<T>) {
    put_token(out, value.value());
  } else if constexpr (IsOptional<T>) {
    put_token(out, *value);
  } else {
    char buffer[64];
    out.append(buffer, std::to_chars(buffer, buffer + sizeof(buffer), value).ptr);
  }
}

/// Feeds one field's value to a fingerprint as put_token writes it, but by
/// its bits: a double's bit pattern, not its decimal text. An optional's
/// value follows a presence mark.
void hash_token(support::Fnv1aHasher& hasher, const auto& value) {
  using T = std::remove_cvref_t<decltype(value)>;
  if constexpr (std::is_convertible_v<T, std::string_view>) {
    hasher.str(value);
  } else if constexpr (std::is_same_v<T, bool>) {
    hasher.boolean(value);
  } else if constexpr (std::is_enum_v<T>) {
    hasher.u64(static_cast<std::uint64_t>(value));
  } else if constexpr (Counted<T>) {
    hasher.i64(value.count());
  } else if constexpr (IsOptional<T>) {
    hasher.presence(value.has_value());
    if (value) hash_token(hasher, *value);
  } else if constexpr (std::is_floating_point_v<T>) {
    hasher.f64(value);
  } else {
    hasher.u64(static_cast<std::uint64_t>(value));
  }
}

/// The enum value whose to_string is the next token.
template <typename E>
E parse_name(Args& args, const char* what) {
  const std::string& name = args.word(what);
  for (const E value : values_of(E{})) {
    if (name == to_string(value)) return value;
  }
  std::string names;
  for (const E value : values_of(E{})) {
    if (!names.empty()) names.push_back('|');
    names += to_string(value);
  }
  fail(args.number(), "unknown " + std::string{what} + " '" + name + "' (" + names + ")");
}

template <typename T>
void get_token(Args& args, const char* label, T& value) {
  if constexpr (std::is_same_v<T, std::string>) {
    value = args.str(label);
  } else if constexpr (std::is_same_v<T, bool>) {
    value = args.boolean(label);
  } else if constexpr (std::is_enum_v<T>) {
    value = parse_name<T>(args, label);
  } else if constexpr (Counted<T>) {
    value = T{args.parse<std::int64_t>(label)};
  } else if constexpr (IsId<T>) {
    value = T{args.u32(label)};
  } else if constexpr (IsOptional<T>) {
    typename T::value_type decoded{};
    get_token(args, label, decoded);
    value = std::move(decoded);
  } else {
    value = args.parse<T>(label);
  }
}

// --- containers --------------------------------------------------------------
//
// A line per entry iterates entries() to encode and decodes each line into a
// fresh entry that add_entry() files. Containers whose storage is read-only
// (a mapping, a library, a diagnostic list) file through their own setters.

template <typename C>
const C& entries(const C& container) {
  return container;
}
const auto& entries(const synth::Mapping& mapping) { return mapping.assignments(); }
const auto& entries(const synth::ImplLibrary& library) { return library.elements(); }
const auto& entries(const support::DiagnosticList& list) { return list.items(); }

template <typename T>
void add_entry(std::vector<T>& container, T entry) {
  container.push_back(std::move(entry));
}
template <typename K, typename V>
void add_entry(std::map<K, V>& container, std::pair<K, V> entry) {
  container.emplace(std::move(entry));
}
void add_entry(synth::Mapping& mapping, std::pair<std::string, synth::Target> entry) {
  mapping.set(entry.first, entry.second);
}
void add_entry(synth::ImplLibrary& library, std::pair<std::string, synth::ElementImpl> entry) {
  library.add(std::move(entry.first), entry.second);
}
void add_entry(support::DiagnosticList& list, support::Diagnostic entry) {
  list.add(entry.severity, std::move(entry.code), std::move(entry.message));
}

/// What one entry of `C` decodes into (a map's key loses its const).
template <typename T>
struct Decoded {
  using type = T;
};
template <typename K, typename V>
struct Decoded<std::pair<const K, V>> {
  using type = std::pair<K, V>;
};
template <typename C>
using EntryOf = typename Decoded<
    std::ranges::range_value_t<decltype(entries(std::declval<const C&>()))>>::type;

// An owner line owns the lines after it: each element of a vector, or the
// value of an optional, is written with its owned lines, and an owned line
// decodes into the latest owner.

auto owners(auto& container) {
  if constexpr (IsOptional<decltype(container)>) {
    return std::span{container ? &*container : nullptr, container ? 1u : 0u};
  } else {
    return std::span{container};
  }
}

auto& add_owner(auto& container) {
  if constexpr (IsOptional<decltype(container)>) {
    return container.emplace();
  } else {
    return container.emplace_back();
  }
}

/// An owner line with no owned lines.
struct NoLines {
  void operator()(auto&, auto&) const {}
};

// --- columns -----------------------------------------------------------------
//
// A body line is a key followed by columns. Each column refers to the field
// it carries (const while encoding, mutable while decoding), writes it with
// put() and reads it back with get(), naming it in decode errors: "missing
// seed after 'seed'", "invalid hi-us 'x'". The columns of request lines also
// feed their values to a fingerprint with hash().

void put_all(std::string& out, const auto& columns) {
  std::apply([&](const auto&... column) { (column.put(out), ...); }, columns);
}

void get_all(Args& args, const auto& columns) {
  std::apply([&](const auto&... column) { (column.get(args), ...); }, columns);
}

void hash_all(support::Fnv1aHasher& hasher, const auto& columns) {
  std::apply([&](const auto&... column) { (column.hash(hasher), ...); }, columns);
}

/// One token.
template <typename T>
struct One {
  const char* label;
  T& value;

  void put(std::string& out) const {
    out.push_back(' ');
    put_token(out, value);
  }
  void get(Args& args) const { get_token(args, label, value); }
  void hash(support::Fnv1aHasher& hasher) const { hash_token(hasher, value); }
};

/// An optional last token, written only when the optional holds a value.
template <typename T>
struct Trailing {
  const char* label;
  T& value;

  void put(std::string& out) const {
    if (value) One{label, *value}.put(out);
  }
  void get(Args& args) const {
    if (!args.done()) get_token(args, label, value);
  }
  void hash(support::Fnv1aHasher& hasher) const { hash_token(hasher, value); }
};

/// A comma-separated list of names in one token, each read by `parse`
/// (which may accept aliases).
template <typename T, typename Parse>
struct Commas {
  const char* label;
  T& values;
  Parse parse;

  void put(std::string& out) const {
    for (std::size_t i = 0; i < values.size(); ++i) {
      out.push_back(i == 0 ? ' ' : ',');
      out += to_string(values[i]);
    }
  }
  void get(Args& args) const {
    values.clear();
    for (const auto part : std::views::split(args.word(label), ',')) {
      const std::string name{part.begin(), part.end()};
      const auto value = parse(name);
      if (!value) fail(args.number(), std::string{"unknown "} + label + " '" + name + "'");
      values.push_back(*value);
    }
  }
  void hash(support::Fnv1aHasher& hasher) const {
    hasher.u64(values.size());
    for (const auto& value : values) hash_token(hasher, value);
  }
};

/// A latency interval as two tokens, low then high.
template <typename T>
struct Interval {
  const char* lo;
  const char* hi;
  T& value;

  void put(std::string& out) const {
    const support::Duration bounds[] = {value.lo(), value.hi()};
    One{lo, bounds[0]}.put(out);
    One{hi, bounds[1]}.put(out);
  }
  void get(Args& args) const {
    support::Duration bounds[2];
    get_token(args, lo, bounds[0]);
    get_token(args, hi, bounds[1]);
    value = support::DurationInterval{bounds[0], bounds[1]};
  }
};

/// Decodes one more entry of `container` through `columns(entry)`.
template <typename C>
void get_entry(Args& args, C& container, const auto& columns) {
  EntryOf<C> entry{};
  get_all(args, columns(entry));
  add_entry(container, std::move(entry));
}

/// All remaining tokens: `columns(entry)` for each entry of `container`.
template <typename C, typename Columns>
struct Rest {
  C& container;
  Columns columns;

  void put(std::string& out) const {
    for (const auto& entry : entries(container)) put_all(out, columns(entry));
  }
  void get(Args& args) const {
    while (!args.done()) get_entry(args, container, columns);
  }
};

/// All remaining tokens, one entry of `container` each.
template <typename C>
auto rest(const char* label, C& container) {
  return Rest{container, [label](auto& entry) { return std::tuple{One{label, entry}}; }};
}

/// The columns of a line, in order.
template <typename... Columns>
std::tuple<Columns...> cols(Columns... columns) {
  return {columns...};
}

/// The columns of one mapping entry: `"element" SW`.
constexpr auto assignment = [](auto& entry) {
  return cols(One{"element", entry.first}, One{"mapping target", entry.second});
};

constexpr auto diagnostic = [](auto& d) {
  return cols(One{"severity", d.severity}, One{"code", d.code}, One{"message", d.message});
};

constexpr auto trace_event = [](auto& e) {
  return cols(One{"time-us", e.time}, One{"trace kind", e.kind}, One{"subject", e.subject},
              One{"detail", e.detail});
};

// --- encoding and decoding a description -------------------------------------
//
// A description lists a type's body lines in frame order through the shapes
// below. Writer writes every line it lists; Reader runs it once per body
// line and decodes that line into the one entry carrying its key; Hasher
// feeds the values of every line it lists to one digest. Keys are string
// literals, so a key can also label its line's one column.

class Writer {
 public:
  explicit Writer(std::string& out) : out_(out) {}

  /// A line that is always written.
  template <typename... Columns>
  void line(std::string_view key, const Columns&... columns) {
    out_ += key;
    (columns.put(out_), ...);
    out_.push_back('\n');
  }

  /// A line written only when `present`, and accepted whenever it is sent.
  template <typename... Columns>
  void line_if(bool present, std::string_view key, const Columns&... columns) {
    if (present) line(key, columns...);
  }

  /// A one-column line whose column is named like its key.
  void field(std::string_view key, const auto& value) { line(key, One{key.data(), value}); }

  /// One line per entry of `container`.
  template <typename C, typename Columns>
  void each(std::string_view key, const C& container, const Columns& columns) {
    for (const auto& entry : entries(container)) line_of(key, columns(entry));
  }

  /// One line per owner in `container`, each followed by its owned lines.
  template <typename C, typename Columns, typename Owned = NoLines>
  void group(std::string_view key, const C& container, const Columns& columns,
             const Owned& owned = {}) {
    for (const auto& owner : owners(container)) {
      line_of(key, columns(owner));
      owned(*this, owner);
    }
  }

  void trace(const sim::Trace& trace) {
    each("trace-event", trace.events(), trace_event);
    field("trace-truncated", trace.truncated());
  }

 private:
  void line_of(std::string_view key, const auto& columns) {
    std::apply([&](const auto&... column) { line(key, column...); }, columns);
  }

  std::string& out_;
};

/// sim::Trace grows only through record(), so a decoded trace is rebuilt
/// from its lines once the frame is read; the flag-only truncation marker is
/// reproduced by recording one overflow past a tight limit.
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

class Reader {
 public:
  /// Decodes `line` through `describe(*this)`; a key no entry carries is an
  /// error.
  template <typename Describe>
  void read(const Line& line, const Describe& describe) {
    Args args{line};
    args_ = &args;
    key_ = line.key();
    matched_ = false;
    describe(*this);
    if (!matched_) fail(line.number, "unknown key '" + line.key() + "'");
    args.finish();
  }

  /// Completes what spans lines, once the whole frame is read.
  void finish() {
    if (trace_ != nullptr) *trace_ = rebuild_.build();
  }

  template <typename... Columns>
  void line(std::string_view key, const Columns&... columns) {
    if (take(key)) (columns.get(*args_), ...);
  }

  template <typename... Columns>
  void line_if(bool /*present*/, std::string_view key, const Columns&... columns) {
    line(key, columns...);
  }

  void field(std::string_view key, auto& value) { line(key, One{key.data(), value}); }

  template <typename C, typename Columns>
  void each(std::string_view key, C& container, const Columns& columns) {
    if (take(key)) get_entry(*args_, container, columns);
  }

  template <typename C, typename Columns, typename Owned = NoLines>
  void group(std::string_view key, C& container, const Columns& columns, const Owned& owned = {}) {
    if (take(key)) return get_all(*args_, columns(add_owner(container)));
    if (matched_) return;
    if (const auto list = owners(container); !list.empty()) return owned(*this, list.back());
    // No owner yet: probe whether an owned line came before its owner.
    typename C::value_type scratch{};
    const bool probing = std::exchange(probing_, true);
    owned(*this, scratch);
    probing_ = probing;
    if (matched_ && !probing_) {
      fail(args_->number(), "'" + std::string{key_} + "' before '" + std::string{key} + "'");
    }
  }

  void trace(sim::Trace& trace) {
    trace_ = &trace;
    each("trace-event", rebuild_.events, trace_event);
    field("trace-truncated", rebuild_.truncated);
  }

 private:
  /// Whether the line is `key`'s and decodes now: a probe only notes the
  /// match.
  bool take(std::string_view key) {
    if (matched_ || key_ != key) return false;
    matched_ = true;
    return !probing_;
  }

  Args* args_ = nullptr;
  std::string_view key_;
  bool matched_ = false;
  bool probing_ = false;
  sim::Trace* trace_ = nullptr;
  TraceRebuild rebuild_;
};

/// Feeds the values of the lines a description lists, in frame order, to
/// one FNV-1a digest: a request's cache fingerprint. Keys are not fed (one
/// payload kind always lists the same lines); a presence mark goes before
/// each line_if line and a count before each each and group, so two
/// different value lists never feed the same words.
class Hasher {
 public:
  [[nodiscard]] std::uint64_t digest() const noexcept { return hasher_.digest(); }

  template <typename... Columns>
  void line(std::string_view /*key*/, const Columns&... columns) {
    (columns.hash(hasher_), ...);
  }

  template <typename... Columns>
  void line_if(bool present, std::string_view key, const Columns&... columns) {
    hasher_.presence(present);
    if (present) line(key, columns...);
  }

  void field(std::string_view /*key*/, const auto& value) { hash_token(hasher_, value); }

  template <typename C, typename Columns>
  void each(std::string_view /*key*/, const C& container, const Columns& columns) {
    const auto& list = entries(container);
    hasher_.u64(list.size());
    for (const auto& entry : list) hash_all(hasher_, columns(entry));
  }

  template <typename C, typename Columns, typename Owned = NoLines>
  void group(std::string_view /*key*/, const C& container, const Columns& columns,
             const Owned& owned = {}) {
    const auto list = owners(container);
    hasher_.u64(list.size());
    for (const auto& owner : list) {
      hash_all(hasher_, columns(owner));
      owned(*this, owner);
    }
  }

 private:
  support::Fnv1aHasher hasher_;
};

// --- descriptions ------------------------------------------------------------
//
// One describe() per wire type. `Like<T> auto&` binds both the const value a
// Writer encodes and the mutable one a Reader decodes into.

template <typename V, typename T>
concept Like = std::same_as<std::remove_const_t<V>, T>;

void describe(auto& io, Like<SimulateRequest> auto& request) {
  auto& options = request.options;
  io.field("resolution", options.resolution);
  io.field("seed", options.seed);
  io.field("max-time-us", options.max_time);
  io.field("max-firings", options.max_total_firings);
  io.field("record-trace", options.record_trace);
  io.field("trace-limit", options.trace_limit);
  io.field("render-timeline", request.render_timeline);
}

/// The analysis pass flags: AnalyzeRequest and AnalyzeResponse::Passes name
/// them alike.
void describe_passes(auto& io, auto& passes) {
  io.line("passes", One{"deadlock", passes.deadlock}, One{"buffers", passes.buffers},
          One{"structure", passes.structure}, One{"timing", passes.timing});
  io.field("include-reconfiguration", passes.include_reconfiguration);
}

void describe(auto& io, Like<AnalyzeRequest> auto& request) { describe_passes(io, request); }

void describe(auto& io, Like<synth::ExploreOptions> auto& options) {
  io.field("engine", options.engine);
  io.field("seed", options.seed);
  io.field("exhaustive-limit", options.exhaustive_limit);
  io.field("annealing-trials", options.annealing_trials_per_element);
  io.field("annealing-temperature", options.annealing_initial_temperature);
  io.field("infeasibility-penalty", options.infeasibility_penalty);
}

/// The problem and library overrides of explore, pareto and compare; the
/// library line owns its element lines.
void describe_overrides(auto& io, auto& request) {
  io.group("problem", request.problem, [](auto& problem) {
    return cols(One{"granularity", problem.granularity}, One{"skip-virtual", problem.skip_virtual});
  });
  io.group(
      "library", request.library,
      [](auto& library) {
        return cols(One{"processor-cost", library.processor_cost},
                    One{"processor-budget", library.processor_budget});
      },
      [](auto& owned, auto& library) {
        owned.each("element", library, [](auto& element) {
          auto& impl = element.second;
          return cols(One{"element name", element.first}, One{"sw-load", impl.sw_load},
                      One{"sw-wcet-us", impl.sw_wcet}, One{"hw-cost", impl.hw_cost},
                      One{"hw-wcet-us", impl.hw_wcet}, One{"can-sw", impl.can_sw},
                      One{"can-hw", impl.can_hw}, Trailing{"period-us", impl.period});
        });
      });
}

void describe(auto& io, Like<ExploreRequest> auto& request) {
  describe(io, request.options);
  describe_overrides(io, request);
}

void describe(auto& io, Like<ParetoRequest> auto& request) {
  io.field("exhaustive-limit", request.options.exhaustive_limit);
  io.field("samples", request.options.samples);
  io.field("seed", request.options.seed);
  describe_overrides(io, request);
}

void describe(auto& io, Like<CompareRequest> auto& request) {
  io.line_if(!request.strategies.empty(), "strategies",
             Commas{"strategy", request.strategies, synth::parse_strategy});
  describe(io, request.options);
  io.field("all-orders", request.all_orders);
  io.field("max-orders", request.max_orders);
  io.line_if(!request.objectives.empty(), "objectives",
             Commas{"objective", request.objectives, synth::parse_objective});
  describe_overrides(io, request);
}

/// The request envelope: target spec, model handle and scheduling options,
/// then the payload.
void describe(auto& io, Like<AnyRequest> auto& request) {
  // Options without a target spec still travel (as an empty target), so
  // the invalid combination round-trips and fails identically on both
  // sides of the wire instead of silently becoming a valid request.
  io.line_if(!request.target.empty() || !request.target_options.empty(), "target",
             One{"target spec", request.target}, rest("target option", request.target_options));
  std::visit(
      [&](auto& payload) {
        io.line_if(payload.model.valid(), "model", One{"model handle", payload.model});
        io.line_if(request.options.priority != Priority::kNormal, "priority",
                   One{"priority", request.options.priority});
        io.line_if(request.options.deadline.has_value(), "deadline-ms",
                   One{"deadline-ms", request.options.deadline});
        describe(io, payload);
      },
      request.payload);
}

void describe(auto& io, Like<SimulateResponse> auto& response) {
  auto& result = response.result;
  io.field("model", response.model);
  io.field("end-time-us", result.end_time);
  io.field("total-firings", result.total_firings);
  io.field("quiescent", result.quiescent);
  io.field("hit-limit", result.hit_limit);
  io.each("process-stat", result.processes, [](auto& p) {
    return cols(One{"firings", p.firings}, One{"busy-us", p.busy},
                One{"reconfigurations", p.reconfigurations}, One{"reconfig-us", p.reconfig_time},
                One{"cancelled", p.cancelled}, rest("mode firings", p.mode_firings));
  });
  io.each("channel-stat", result.channels, [](auto& c) {
    return cols(One{"produced", c.produced}, One{"consumed", c.consumed},
                One{"dropped", c.dropped}, One{"occupancy", c.occupancy},
                One{"max-occupancy", c.max_occupancy});
  });
  io.each("interface-stat", result.interfaces, [](auto& entry) {
    auto& stats = entry.second;
    return cols(One{"interface id", entry.first}, One{"selections", stats.selections},
                One{"reconfigurations", stats.reconfigurations},
                One{"reconfig-us", stats.reconfig_time});
  });
  io.each("constraint", result.constraints, [](auto& c) {
    return cols(One{"constraint name", c.name}, One{"satisfied", c.satisfied},
                One{"observed", c.observed}, One{"bound", c.bound}, One{"samples", c.samples});
  });
  io.trace(result.trace);
  io.each("process-row", response.processes, [](auto& row) {
    return cols(One{"process name", row.name}, One{"firings", row.firings},
                One{"busy-us", row.busy}, One{"reconfigurations", row.reconfigurations});
  });
  io.each("channel-row", response.channels, [](auto& row) {
    return cols(One{"channel name", row.name}, One{"produced", row.produced},
                One{"consumed", row.consumed}, One{"occupancy", row.occupancy},
                One{"max-occupancy", row.max_occupancy});
  });
  io.field("timeline", response.timeline);
}

void describe(auto& io, Like<AnalyzeResponse> auto& response) {
  io.field("model", response.model);
  describe_passes(io, response.passes);
  io.each("deadlock", response.deadlocks, [](auto& d) {
    return cols(One{"initial tokens", d.initial_tokens}, One{"required tokens", d.required_tokens},
                One{"description", d.description}, rest("cycle process", d.cycle));
  });
  io.each("buffer-flow", response.buffer_flows, [](auto& flow) {
    return cols(One{"channel id", flow.channel}, One{"channel name", flow.name},
                One{"flow class", flow.flow}, One{"max-inflow", flow.max_inflow},
                One{"min-drain", flow.min_drain});
  });
  io.each("latency-check", response.latency_checks, [](auto& check) {
    return cols(One{"constraint name", check.constraint},
                Interval{"lo-us", "hi-us", check.path_latency}, One{"bound-us", check.bound},
                One{"satisfiable", check.satisfiable}, One{"guaranteed", check.guaranteed},
                One{"slack-us", check.slack});
  });
  auto& structure = response.structure;
  io.line("structure", One{"acyclic", structure.acyclic}, One{"components", structure.components});
  io.line("sources", rest("source", structure.sources));
  io.line("sinks", rest("sink", structure.sinks));
  io.line("dead", rest("dead process", structure.dead));
}

/// A cost breakdown's three lines, under the keys its owner gives them.
void describe_cost(auto& io, auto& cost, std::string_view key, std::string_view software,
                   std::string_view hardware) {
  io.line(key, One{"processor-cost", cost.processor_cost}, One{"asic-cost", cost.asic_cost},
          One{"total", cost.total}, One{"feasible", cost.feasible},
          One{"worst-utilization", cost.worst_utilization},
          One{"infeasibility", cost.infeasibility});
  io.line(software, rest("software element", cost.software));
  io.line(hardware, rest("hardware element", cost.hardware));
}

void describe(auto& io, Like<ExploreResponse> auto& response) {
  auto& result = response.result;
  io.field("model", response.model);
  io.field("problem", response.problem);
  io.field("applications", response.applications);
  io.field("elements", response.elements);
  io.field("library-origin", response.library_origin);
  io.field("engine", result.engine);
  io.field("found-feasible", result.found_feasible);
  io.field("decisions", result.decisions);
  io.field("evaluations", result.evaluations);
  describe_cost(io, result.cost, "cost", "cost-software", "cost-hardware");
  io.each("map", result.mapping, assignment);
}

void describe(auto& io, Like<ParetoResponse> auto& response) {
  io.field("model", response.model);
  io.field("applications", response.applications);
  io.field("library-origin", response.library_origin);
  io.each("point", response.points, [](auto& point) {
    return cols(One{"cost", point.cost}, One{"worst-latency-us", point.worst_latency},
                Rest{point.mapping, assignment});
  });
}

/// One compare row: its best outcome, then the orders it tried.
void describe_row(auto& io, auto& row) {
  auto& outcome = row.outcome;
  io.line("outcome", One{"strategy", outcome.strategy}, One{"detail", outcome.detail},
          One{"feasible", outcome.feasible}, One{"decisions", outcome.decisions},
          One{"evaluations", outcome.evaluations});
  describe_cost(io, outcome.cost, "outcome-cost", "outcome-software", "outcome-hardware");
  io.each("outcome-map", outcome.mapping, assignment);
  io.group(
      "outcome-per-app", outcome.per_app, [](auto&) { return cols(); },
      [](auto& owned, auto& mapping) { owned.each("outcome-per-app-map", mapping, assignment); });
  io.each("per-order", row.per_order, [](auto& order) {
    return cols(One{"total", order.total}, One{"worst-utilization", order.worst_utilization},
                One{"feasible", order.feasible}, One{"decisions", order.decisions},
                rest("order index", order.order));
  });
}

void describe(auto& io, Like<CompareResponse> auto& response) {
  io.field("model", response.model);
  io.field("problem", response.problem);
  io.field("applications", response.applications);
  io.field("library-origin", response.library_origin);
  io.line_if(!response.objectives.empty(), "objectives",
             Commas{"objective", response.objectives, synth::parse_objective});
  io.line("ranking", rest("ranking index", response.ranking));
  io.group(
      "row", response.rows,
      [](auto& row) {
        return cols(One{"strategy", row.strategy}, One{"scope", row.scope},
                    One{"orders-tried", row.orders_tried}, One{"worst-total", row.worst_total},
                    One{"decisions", row.decisions}, One{"evaluations", row.evaluations});
      },
      [](auto& owned, auto& row) { describe_row(owned, row); });
}

// --- frame scaffolding -------------------------------------------------------

/// Decodes the body lines of a frame through `body(reader)`, after the
/// `diagnostic` lines every frame may carry, which collect into
/// `diagnostics`. Requires the final `end` line.
template <typename Body>
void decode_body(const std::vector<Line>& lines, support::DiagnosticList& diagnostics,
                 const Body& body) {
  Reader reader;
  bool ended = false;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const Line& line = lines[i];
    if (ended) fail(line.number, "content after 'end'");
    if (line.tokens.front().quoted) fail(line.number, "expected a key, got a quoted string");
    if (line.key() == "end") {
      Args{line}.finish();
      ended = true;
      continue;
    }
    reader.read(line, [&](Reader& io) {
      io.each("diagnostic", diagnostics, diagnostic);
      body(io);
    });
  }
  if (!ended) {
    fail(lines.empty() ? 1 : lines.back().number, "frame not terminated by 'end'");
  }
  reader.finish();
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
  const std::string& head = args.word("frame tag");
  if (head != tag) {
    fail(lines.front().number, "expected '" + std::string{tag} + "' frame, got '" + head + "'");
  }
  const std::string& version = args.word("version");
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

/// Runs a decoder: a malformed frame, or a model error its values raise,
/// comes back as a diag::kWireError failure ("line N: ..." when the frame
/// is at fault).
template <typename T>
Result<T> decoded(const auto& decode) {
  try {
    return decode();
  } catch (const FrameError& error) {
    return Result<T>::failure(diag::kWireError,
                              "line " + std::to_string(error.line) + ": " + error.message);
  } catch (const std::exception& e) {
    return Result<T>::failure(diag::kWireError, e.what());
  }
}

/// `<head>\n`, the lines `body(writer)` lists, then `end`.
std::string encode_frame(std::string head, const auto& body) {
  std::string out = std::move(head);
  out.push_back('\n');
  Writer writer{out};
  body(writer);
  out += "end\n";
  return out;
}

std::string request_head(int version, const AnyRequest& request) {
  return "request v" + std::to_string(version) + " " + to_string(kind_of(request));
}

/// The versioned header prefixes of a response frame: strictly ordered
/// ("response v1") and pipelined ("response v2 <id>").
std::string response_head() { return "response v" + std::to_string(kVersion); }
std::string response_head(std::uint64_t frame_id) {
  return "response v" + std::to_string(kVersionPipelined) + " " + std::to_string(frame_id);
}

/// Status, kind and body shared by both response headers; `head` is the
/// already-versioned header prefix (see response_head).
std::string encode_response_frame(std::string head, const Result<AnyResponse>& result) {
  head += result.ok() ? " ok " : " error";
  if (result.ok()) head += to_string(kind_of(result.value()));
  return encode_frame(std::move(head), [&](Writer& io) {
    io.each("diagnostic", result.diagnostics(), diagnostic);
    if (result.ok()) std::visit([&](const auto& typed) { describe(io, typed); }, result.value());
  });
}

}  // namespace

// --- public surface ----------------------------------------------------------

std::string quote(std::string_view text) {
  std::string out;
  put_token(out, text);
  return out;
}

std::string encode(const AnyRequest& request) {
  return encode_frame(request_head(kVersion, request),
                      [&](Writer& io) { describe(io, request); });
}

std::string encode(const AnyRequest& request, std::uint64_t frame_id) {
  return encode_frame(request_head(kVersionPipelined, request) + " " + std::to_string(frame_id),
                      [&](Writer& io) { describe(io, request); });
}

Result<AnyRequest> decode_request(std::string_view frame) {
  return decoded<AnyRequest>([&] {
    const auto [lines, version] = open_frame(frame, "request", kVersionPipelined);
    Args header{lines.front(), 2};
    const std::string& kind_name = header.word("request kind");
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
    decode_body(lines, ignored, [&](Reader& io) { describe(io, request); });
    return Result<AnyRequest>::success(std::move(request));
  });
}

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
  return decoded<AnyResponse>([&] {
    const auto [lines, version] = open_frame(frame, "response", kVersionPipelined);
    Args header{lines.front(), 2};
    if (version >= kVersionPipelined) (void)header.u64("frame id");
    const std::string& status = header.word("status");
    support::DiagnosticList diagnostics;
    if (status == "error") {
      header.finish();
      decode_body(lines, diagnostics, [](Reader&) {});
      if (diagnostics.empty()) {
        diagnostics.error(diag::kWireError, "error response without diagnostics");
      }
      return Result<AnyResponse>::failure(std::move(diagnostics));
    }
    if (status != "ok") {
      fail(lines.front().number, "unknown response status '" + status + "' (ok|error)");
    }
    const std::string& kind_name = header.word("response kind");
    header.finish();
    const std::optional<RequestKind> kind = parse_request_kind(kind_name);
    if (!kind) fail(lines.front().number, "unknown response kind '" + kind_name + "'");

    AnyResponse response;
    switch (*kind) {
      case RequestKind::kSimulate: response = SimulateResponse{}; break;
      case RequestKind::kAnalyze: response = AnalyzeResponse{}; break;
      case RequestKind::kExplore: response = ExploreResponse{}; break;
      case RequestKind::kPareto: response = ParetoResponse{}; break;
      case RequestKind::kCompare: response = CompareResponse{}; break;
    }
    decode_body(lines, diagnostics, [&](Reader& io) {
      std::visit([&](auto& typed) { describe(io, typed); }, response);
    });
    return Result<AnyResponse>::success(std::move(response), std::move(diagnostics));
  });
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
  head.request_id = frame_id_at(*tokens, "request", 3);  // `request v2 <kind> <id>`
  return head;
}

// --- service frames ----------------------------------------------------------

namespace {

/// Shared shape of the one-payload-line service frames (`control`,
/// `hello`): a header line plus the terminating `end`. The `end` is what
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

std::string control_frame(std::string_view command, const std::vector<std::string>& args) {
  std::string out = "control v" + std::to_string(kVersion) + " " + std::string{command};
  for (const std::string& arg : args) One{"argument", arg}.put(out);
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
  std::string out = "hello v" + std::to_string(kVersion);
  One{"tenant", tenant}.put(out);
  if (!token.empty()) One{"token", token}.put(out);
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
  return encode_frame("info v" + std::to_string(kVersion),
                      [&](Writer& io) { io.field("text", text); });
}

Result<std::string> decode_info(std::string_view frame) {
  return decoded<std::string>([&] {
    const std::vector<Line> lines = open_frame(frame, "info").lines;
    Args header{lines.front(), 2};
    header.finish();
    std::string text;
    support::DiagnosticList ignored;
    decode_body(lines, ignored, [&](Reader& io) { io.field("text", text); });
    return Result<std::string>::success(std::move(text));
  });
}

// --- stream utilities --------------------------------------------------------

namespace {

/// Reads one line into `line` as std::getline does and returns its length,
/// nullopt at the end of input. With a `before_wait` or a `room`, it reads
/// byte by byte: a set `before_wait` runs whenever the next byte is not
/// buffered yet, before each read that could block, and only the first
/// `room` characters are stored (the rest of a longer line is read and
/// dropped, and counts in the length).
std::optional<std::size_t> next_line(std::istream& in, std::string& line,
                                     const std::function<void()>& before_wait,
                                     std::size_t room) {
  if (!before_wait && room == std::string::npos) {
    if (!std::getline(in, line)) return std::nullopt;
    return line.size();
  }
  using Traits = std::istream::traits_type;
  line.clear();
  const std::istream::sentry ok{in, /*noskipws=*/true};
  if (!ok) return std::nullopt;
  std::streambuf& buffer = *in.rdbuf();
  std::size_t length = 0;
  while (true) {
    if (before_wait && buffer.in_avail() <= 0) before_wait();
    const Traits::int_type c = buffer.sbumpc();
    if (Traits::eq_int_type(c, Traits::eof())) {
      // As getline: end of input after some characters is a last line.
      in.setstate(length == 0 ? std::ios::eofbit | std::ios::failbit : std::ios::eofbit);
      return length == 0 ? std::nullopt : std::optional{length};
    }
    if (Traits::to_char_type(c) == '\n') return length;
    if (length++ < room) line.push_back(Traits::to_char_type(c));
  }
}

/// Whether `line` ends a frame: its only token is `end`, as the decoders
/// read it (they drop the spaces around tokens).
bool is_end(std::string_view line) {
  const std::size_t first = line.find_first_not_of(' ');
  return first != std::string_view::npos &&
         line.substr(first, line.find_last_not_of(' ') + 1 - first) == "end";
}

}  // namespace

std::optional<std::string> read_frame(std::istream& in, const std::function<void()>& before_wait,
                                      FrameLimit* limit) {
  // Every frame — envelope, info, control, hello, or a typo'd tag — is
  // `end`-terminated, so the reader needs no per-tag knowledge and a
  // malformed frame consumes exactly one frame's worth of lines (one error
  // reply, stream stays in sync).
  const std::size_t max_bytes = limit != nullptr ? limit->max_bytes : std::string::npos;
  if (limit != nullptr) limit->exceeded = false;
  std::string frame;
  std::string line;
  std::size_t bytes = 0;  // the frame's bytes so far, newlines included
  while (const std::optional<std::size_t> length = next_line(in, line, before_wait, max_bytes)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (bytes == 0 && line.empty()) continue;  // skip blank separators between frames
    bytes += *length + 1;
    if (bytes <= max_bytes) {
      frame += line + "\n";
    } else if (!limit->exceeded) {
      // Keep the header line, when it fitted, and store nothing more.
      limit->exceeded = true;
      if (!frame.empty()) frame.erase(frame.find('\n') + 1);
    }
    // `end` closes the frame (alone, it is a one-line frame: a stray
    // terminator); a line over the limit never does.
    if (*length <= max_bytes && is_end(line)) return frame;
  }
  if (bytes > 0) return frame;  // truncated frame: let the decoder report it
  return std::nullopt;
}

}  // namespace spivar::api::wire

// --- request fingerprints ----------------------------------------------------

namespace spivar::api {

namespace {

/// The digest of the values `describe()` lists for `request`.
std::uint64_t digest_of(const auto& request) {
  wire::Hasher io;
  wire::describe(io, request);
  return io.digest();
}

/// Whether some value appears twice in `values`; allocates nothing.
bool has_duplicates(const auto& values) {
  for (auto it = values.begin(); it != values.end(); ++it) {
    if (std::find(values.begin(), it, *it) != it) return true;
  }
  return false;
}

}  // namespace

std::uint64_t fingerprint(const RequestPayload& payload) {
  const auto* compare = std::get_if<CompareRequest>(&payload);
  if (compare != nullptr && has_duplicates(compare->strategies)) {
    // A duplicate strategy adds no row, so it must not add a key: hash the
    // list compare runs, in first-seen order (it orders the rows).
    CompareRequest canonical = *compare;
    canonical.strategies.clear();
    for (const synth::StrategyKind kind : compare->strategies) {
      if (std::ranges::find(canonical.strategies, kind) == canonical.strategies.end()) {
        canonical.strategies.push_back(kind);
      }
    }
    return digest_of(canonical);
  }
  return std::visit([](const auto& request) { return digest_of(request); }, payload);
}

std::uint64_t fingerprint(const AnyRequest& request) { return fingerprint(request.payload); }

}  // namespace spivar::api
