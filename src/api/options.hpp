// Typed per-model options for registry loading.
//
// Every builtin's option struct travels through one std::variant, so
// ModelSpec (store.hpp) stays a single type while the registry dispatches
// to the matching factory. std::monostate selects the model's defaults; a
// mismatched alternative (e.g. VideoOptions for "fig2") is a load failure,
// not a silent fallback. parse_builtin_options() turns the CLI's
// `--opt key=value` assignments into the right struct.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "api/result.hpp"
#include "models/emission_control.hpp"
#include "models/fig1.hpp"
#include "models/fig2.hpp"
#include "models/multistandard_tv.hpp"
#include "models/synthetic.hpp"
#include "models/video_system.hpp"

namespace spivar::api {

/// One alternative per builtin family; std::monostate = registry defaults.
using BuiltinOptions =
    std::variant<std::monostate, models::Fig1Options, models::Fig2Options, models::Fig3Options,
                 models::VideoOptions, models::TvOptions, models::EmissionOptions,
                 models::SyntheticSpec>;

/// Builds the typed option struct for `builtin` from "key=value" assignments
/// (e.g. {"frames=100", "input_valve=false"}). Unknown keys and malformed
/// values come back as diagnostics listing what the model understands;
/// unassigned fields keep their defaults. Duration-valued keys carry an
/// `_ms` suffix and accept fractional milliseconds.
[[nodiscard]] Result<BuiltinOptions> parse_builtin_options(
    std::string_view builtin, const std::vector<std::string>& assignments);

/// The option keys `parse_builtin_options` understands for `builtin`
/// (empty for unknown names) — help text and error messages. Corpus
/// (`sweep/...`) names report the synthetic knob set.
[[nodiscard]] std::vector<std::string> builtin_option_keys(std::string_view builtin);

/// (key, default value) pairs for `builtin`, rendered in the same format the
/// parser accepts — the machine-readable listing behind `models --json`.
/// For corpus names the "defaults" are the knobs encoded in the name.
[[nodiscard]] std::vector<std::pair<std::string, std::string>> builtin_option_defaults(
    std::string_view builtin);

}  // namespace spivar::api
