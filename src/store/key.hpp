#pragma once

#include <string>

#include "sim/sim_config.hpp"

namespace ibsim::store {

/// Canonical text form of a fully-resolved SimConfig: one `name=value`
/// line per keyed row of the field table (sim/config_fields.hpp), in
/// table order, each value pinned exactly (doubles as C hexfloat, times
/// as integer picoseconds). Only orchestration rows stay out:
/// `result_store` names where results are cached and `threads` how many
/// workers compute them.
[[nodiscard]] std::string canonical_config_text(const sim::SimConfig& config);

/// The content key one run is stored under: SHA-256 over a versioned
/// header, the canonical config text (which includes the seed), and the
/// build's code-version stamp. Two processes built from the same commit
/// with clean trees compute identical keys for identical configs; any
/// config field, the seed, or the code version changing changes the key.
[[nodiscard]] std::string run_key(const sim::SimConfig& config);

/// run_key with an explicit version stamp (tests exercise version
/// sensitivity without rebuilding).
[[nodiscard]] std::string run_key_with_version(const sim::SimConfig& config,
                                               const std::string& code_version);

}  // namespace ibsim::store
