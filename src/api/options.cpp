#include "api/options.hpp"

#include <algorithm>
#include <charconv>
#include <concepts>
#include <functional>
#include <utility>

#include "corpus/spec.hpp"

namespace spivar::api {

namespace {

// --- value parsers ----------------------------------------------------------
// One overload per field type occurring in the option structs; each returns
// false on malformed input without touching `out`.

template <typename Int>
bool parse_integer(const std::string& text, Int& out) {
  Int value{};
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || end != text.data() + text.size()) return false;
  out = value;
  return true;
}

// One template covers every integer field width (int, int64_t, size_t —
// whether or not size_t aliases uint64_t on the platform); bool and char
// keep their dedicated overloads below.
template <typename Int>
  requires std::integral<Int> && (!std::same_as<Int, bool>) && (!std::same_as<Int, char>)
bool parse_value(const std::string& text, Int& out) {
  return parse_integer(text, out);
}

bool parse_value(const std::string& text, bool& out) {
  if (text == "true" || text == "1") {
    out = true;
    return true;
  }
  if (text == "false" || text == "0") {
    out = false;
    return true;
  }
  return false;
}

bool parse_value(const std::string& text, char& out) {
  if (text.size() != 1) return false;
  out = text.front();
  return true;
}

/// Durations are assigned in (fractional) milliseconds: "t_conf_ms=2.5".
bool parse_value(const std::string& text, support::Duration& out) {
  double millis = 0.0;
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), millis);
  if (ec != std::errc{} || end != text.data() + text.size() || millis < 0.0) return false;
  out = support::Duration::micros(static_cast<std::int64_t>(millis * 1000.0));
  return true;
}

// --- value rendering (models --json, option defaults) -----------------------

template <typename Int>
  requires std::integral<Int> && (!std::same_as<Int, bool>) && (!std::same_as<Int, char>)
std::string render_value(Int value) {
  return std::to_string(value);
}

std::string render_value(bool value) { return value ? "true" : "false"; }
std::string render_value(char value) { return std::string(1, value); }

std::string render_value(support::Duration value) {
  const double millis = static_cast<double>(value.count()) / 1000.0;
  std::string out(32, '\0');
  const auto [end, ec] = std::to_chars(out.data(), out.data() + out.size(), millis);
  out.resize(ec == std::errc{} ? static_cast<std::size_t>(end - out.data()) : 0);
  return out;
}

// --- per-model field tables -------------------------------------------------

template <typename Opts>
struct FieldEntry {
  using Options = Opts;
  std::string key;
  std::function<bool(Opts&, const std::string&)> set;
  std::function<std::string(const Opts&)> render;
};

template <typename Opts>
using FieldTable = std::vector<FieldEntry<Opts>>;

/// Binds "key" to a member of the option struct (`Class` may be a base of
/// `Opts`, so Fig3Options reuses the inherited Fig2Options fields).
template <typename Opts, typename Class, typename Member>
FieldEntry<Opts> field(const char* key, Member Class::* member) {
  return {key,
          [member](Opts& options, const std::string& value) {
            return parse_value(value, options.*member);
          },
          [member](const Opts& options) { return render_value(options.*member); }};
}

FieldTable<models::Fig1Options> fig1_fields() {
  using O = models::Fig1Options;
  return {field<O>("tag", &O::tag), field<O>("tagged", &O::tagged),
          field<O>("source_period_ms", &O::source_period),
          field<O>("source_firings", &O::source_firings)};
}

FieldTable<models::Fig2Options> fig2_fields() {
  using O = models::Fig2Options;
  return {field<O>("source_period_ms", &O::source_period),
          field<O>("source_firings", &O::source_firings)};
}

FieldTable<models::Fig3Options> fig3_fields() {
  using O = models::Fig3Options;
  return {field<O>("source_period_ms", &O::source_period),
          field<O>("source_firings", &O::source_firings),
          field<O>("user_choice", &O::user_choice), field<O>("t_conf1_ms", &O::t_conf1),
          field<O>("t_conf2_ms", &O::t_conf2)};
}

FieldTable<models::VideoOptions> video_fields() {
  using O = models::VideoOptions;
  return {field<O>("frames", &O::frames), field<O>("frame_period_ms", &O::frame_period),
          field<O>("requests", &O::requests), field<O>("request_period_ms", &O::request_period),
          field<O>("t_conf_ms", &O::t_conf), field<O>("input_valve", &O::input_valve),
          field<O>("output_valve", &O::output_valve)};
}

FieldTable<models::TvOptions> tv_fields() {
  using O = models::TvOptions;
  return {field<O>("region", &O::region), field<O>("frame_period_ms", &O::frame_period),
          field<O>("frames", &O::frames)};
}

FieldTable<models::EmissionOptions> emission_fields() {
  using O = models::EmissionOptions;
  return {field<O>("samples", &O::samples), field<O>("sample_period_ms", &O::sample_period)};
}

FieldTable<models::SyntheticSpec> synthetic_fields() {
  using O = models::SyntheticSpec;
  return {field<O>("shared_processes", &O::shared_processes),
          field<O>("interfaces", &O::interfaces), field<O>("variants", &O::variants),
          field<O>("cluster_size", &O::cluster_size), field<O>("modes", &O::modes),
          field<O>("predicate_depth", &O::predicate_depth), field<O>("seed", &O::seed)};
}

template <typename Opts>
std::string known_keys(const FieldTable<Opts>& table) {
  std::string out;
  for (const auto& entry : table) {
    if (!out.empty()) out += ", ";
    out += entry.key;
  }
  return out;
}

/// Classic edit distance, for "did you mean" hints on unknown keys.
std::size_t edit_distance(std::string_view a, std::string_view b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diagonal = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t replace = diagonal + (a[i - 1] == b[j - 1] ? 0 : 1);
      diagonal = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, replace});
    }
  }
  return row[b.size()];
}

/// The closest known key when it is plausibly a typo (edit distance <= 2,
/// or less than half the key's length); empty otherwise.
template <typename Opts>
std::string nearest_key(const FieldTable<Opts>& table, std::string_view key) {
  std::string best;
  std::size_t best_distance = std::string::npos;
  for (const auto& entry : table) {
    const std::size_t distance = edit_distance(entry.key, key);
    if (distance < best_distance) {
      best_distance = distance;
      best = entry.key;
    }
  }
  if (best_distance <= 2 || best_distance * 2 < key.size()) return best;
  return {};
}

/// Applies every assignment on top of `options` (the builtin's defaults, or
/// a corpus name's parsed knobs); collects all problems instead of stopping
/// at the first one.
template <typename Opts>
Result<BuiltinOptions> apply(const FieldTable<Opts>& table, std::string_view builtin,
                             const std::vector<std::string>& assignments, Opts options = {}) {
  support::DiagnosticList diagnostics;
  for (const std::string& assignment : assignments) {
    const auto eq = assignment.find('=');
    if (eq == std::string::npos || eq == 0) {
      diagnostics.error(diag::kBadOption, "expected key=value, got '" + assignment + "'");
      continue;
    }
    const std::string key = assignment.substr(0, eq);
    const std::string value = assignment.substr(eq + 1);
    bool matched = false;
    for (const auto& entry : table) {
      if (entry.key != key) continue;
      matched = true;
      if (!entry.set(options, value)) {
        diagnostics.error(diag::kBadOption,
                          "invalid value '" + value + "' for " + std::string{builtin} + " option '" +
                              key + "'");
      }
      break;
    }
    if (!matched) {
      std::string message = "'" + std::string{builtin} + "' has no option '" + key +
                            "' (known: " + known_keys(table) + ")";
      if (const std::string hint = nearest_key(table, key); !hint.empty()) {
        message += "; did you mean '" + hint + "'?";
      }
      diagnostics.error(diag::kBadOption, std::move(message));
    }
  }
  if constexpr (std::same_as<Opts, models::SyntheticSpec>) {
    // The merged spec, name knobs and assignments together, is what mints.
    if (!diagnostics.has_errors()) {
      if (const std::string why = models::size_error(options); !why.empty()) {
        diagnostics.error(diag::kBadOption, "'" + std::string{builtin} + "' options: " + why);
      }
    }
  }
  if (diagnostics.has_errors()) return Result<BuiltinOptions>::failure(std::move(diagnostics));
  return Result<BuiltinOptions>::success(BuiltinOptions{std::move(options)});
}

/// Routes a callback to the builtin's field table; returns false for names
/// without one (unknown, or a model without options).
template <typename Fn>
bool with_fields(std::string_view builtin, Fn&& fn) {
  if (builtin == "fig1") {
    fn(fig1_fields());
  } else if (builtin == "fig2") {
    fn(fig2_fields());
  } else if (builtin == "fig3") {
    fn(fig3_fields());
  } else if (builtin == "video_system") {
    fn(video_fields());
  } else if (builtin == "multistandard_tv") {
    fn(tv_fields());
  } else if (builtin == "emission_control") {
    fn(emission_fields());
  } else if (builtin == "synthetic") {
    fn(synthetic_fields());
  } else {
    return false;
  }
  return true;
}

}  // namespace

Result<BuiltinOptions> parse_builtin_options(std::string_view builtin,
                                             const std::vector<std::string>& assignments) {
  // Corpus names are parameterized synthetics: assignments land on top of
  // the knobs already encoded in the name.
  if (corpus::is_corpus_name(builtin)) {
    std::string error;
    const auto parsed = corpus::parse_name(builtin, &error);
    if (!parsed) return Result<BuiltinOptions>::failure(diag::kUnknownBuiltin, error);
    return apply(synthetic_fields(), builtin, assignments, parsed->spec);
  }
  std::optional<Result<BuiltinOptions>> result;
  const bool known = with_fields(builtin, [&](const auto& table) {
    result = apply(table, builtin, assignments);
  });
  if (!known) {
    return Result<BuiltinOptions>::failure(
        diag::kUnknownBuiltin, "no built-in model '" + std::string{builtin} + "' to parse options for");
  }
  return *std::move(result);
}

std::vector<std::string> builtin_option_keys(std::string_view builtin) {
  std::vector<std::string> keys;
  const std::string_view table_name = corpus::is_corpus_name(builtin) ? "synthetic" : builtin;
  with_fields(table_name, [&](const auto& table) {
    keys.reserve(table.size());
    for (const auto& entry : table) keys.push_back(entry.key);
  });
  return keys;
}

std::vector<std::pair<std::string, std::string>> builtin_option_defaults(
    std::string_view builtin) {
  std::vector<std::pair<std::string, std::string>> out;
  if (corpus::is_corpus_name(builtin)) {
    const auto parsed = corpus::parse_name(builtin);
    if (!parsed) return out;
    for (const auto& entry : synthetic_fields()) {
      out.emplace_back(entry.key, entry.render(parsed->spec));
    }
    return out;
  }
  with_fields(builtin, [&](const auto& table) {
    using Opts = typename std::decay_t<decltype(table)>::value_type::Options;
    const Opts defaults{};
    out.reserve(table.size());
    for (const auto& entry : table) out.emplace_back(entry.key, entry.render(defaults));
  });
  return out;
}

}  // namespace spivar::api
