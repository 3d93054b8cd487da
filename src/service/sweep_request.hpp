#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "service/json.hpp"
#include "sim/sim_config.hpp"
#include "sim/sweep_service.hpp"

namespace ibsim::service {

/// One sweep submission, as carried by the daemon protocol:
///
///   {"op": "submit", "name": "table2",
///    "base": {"topology": "clos", "sim_time_us": 2000, ...},
///    "axes": {"p_percent": [0, 50, 100], "cc_enabled": [0, 1]}}
///
/// `base` and `axes` use exactly the config-file key vocabulary
/// (sim/config_file.hpp) — the request is a config file plus a Cartesian
/// sweep over it, nothing more, so every key gets the config parser's
/// validation and "did you mean" diagnostics for free.
struct SweepRequest {
  std::string name;
  /// Base settings in request order, as (key, value-text) pairs.
  std::vector<std::pair<std::string, std::string>> base;
  /// Sweep axes in request order; each axis is (key, value-texts).
  std::vector<std::pair<std::string, std::vector<std::string>>> axes;
};

/// Parse a protocol submit object into a SweepRequest. Returns true on
/// success; on failure fills `*error` (unknown fields, wrong types,
/// empty axes — requests fail loudly like config files do).
[[nodiscard]] bool parse_sweep_request(const Json& json, SweepRequest* request,
                                       std::string* error);

/// Most cells one request may expand to.
inline constexpr std::size_t kMaxSweepCells = 65536;

/// Expand a request into cells: the Cartesian product of the axes, in
/// row-major request order (last axis varies fastest). Each cell starts
/// from `base_config`, applies the request's base keys, then its axis
/// assignments — both through the config-file parser, so an invalid
/// value or unknown key aborts the whole expansion with its diagnostic.
/// So does a cell that cannot be built (sim::check_config), naming the
/// cell, and a product of more than kMaxSweepCells cells, naming the
/// count. An axes-less request expands to the single base cell.
[[nodiscard]] bool expand_sweep(const SweepRequest& request,
                                const sim::SimConfig& base_config,
                                std::vector<sim::SweepCell>* cells, std::string* error);

}  // namespace ibsim::service
