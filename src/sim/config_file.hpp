#pragma once

#include <initializer_list>
#include <string>
#include <utility>

#include "sim/cli.hpp"
#include "sim/sim_config.hpp"

namespace ibsim::sim {

/// Plain-text configuration for SimConfig: one `key = value` pair per
/// line, `#` comments, whitespace-insensitive — the same flavour of file
/// OpenSM uses for its CC settings, so a deployment-style workflow
/// ("edit the conf, rerun") works without recompiling.
///
/// The keys are the settable rows of the field table
/// (src/sim/config_fields.cpp); `simulate --help` lists each one with
/// its value form and default. All keys are optional; unknown keys are
/// an error.
///
/// Each key may appear at most once; a duplicate is an error naming both
/// lines (silent last-wins would hide typos and merge accidents). An
/// unknown key's diagnostic suggests the closest recognised key when one
/// is within a small edit distance ("did you mean 'topology'?").
///
/// Returns an empty string on success, or a "line N: ..." diagnostic.
[[nodiscard]] std::string apply_config_text(const std::string& text, SimConfig* config);

/// Load and apply a config file; same diagnostics, plus I/O errors.
[[nodiscard]] std::string apply_config_file(const std::string& path, SimConfig* config);

/// Register one string option per config key on `cli`, named by the key
/// with '-' for '_' and showing its value in `defaults` as the default.
void add_config_flags(Cli* cli, const SimConfig& defaults);

/// Apply the config flags given on `cli`'s command line over `config`;
/// a flag not given leaves its field as it is, so flags layer over a
/// config file. Returns "" or a "--flag=value: ..." diagnostic.
[[nodiscard]] std::string apply_config_flags(const Cli& cli, SimConfig* config);

/// Store a program's own integer options in SimConfig fields: each
/// {option, key} pair sets the field of config key `key` to the value of
/// `cli`'s integer option `option`, through set_field, so a value the
/// field cannot hold is rejected rather than cast. Returns "" or an
/// "--option=value: ..." diagnostic.
[[nodiscard]] std::string apply_int_options(
    const Cli& cli, std::initializer_list<std::pair<const char*, const char*>> options,
    SimConfig* config);

}  // namespace ibsim::sim
