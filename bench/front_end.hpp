#pragma once

// The command-line front end the paper benches share: --version, --full
// (or IBSIM_FULL=1) for the paper preset, the SimConfig fields a bench
// exposes as simulate's flags, the comma-separated --algos/--workloads
// lists and the result table's --csv.
// The result store makes every bench resumable: a rerun with the same
// --result-store serves finished cells from disk and simulates only what
// is missing, and the printed tables are byte-identical either way
// (store results round-trip bit-exactly). Benches end with
// store::report_stats, which prints the store's statistics to stderr so
// cold and warm stdout can be diffed — the CI store-smoke job does
// exactly that.

#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/table.hpp"
#include "sim/cli.hpp"
#include "sim/config_file.hpp"
#include "sim/experiment.hpp"
#include "store/result_store.hpp"
#include "store/version.hpp"

namespace ibsim::bench {

/// A paper bench's command line: `--version`, `--full` and the field-table
/// flags `keys`, which show the quick preset's values as their defaults.
inline sim::Cli paper_cli(const char* program, const std::string& title,
                          const char* full_help,
                          std::initializer_list<std::string_view> keys) {
  sim::Cli cli(std::string(program) + ": " + title);
  cli.add_version(store::version_line(program));
  cli.add_flag("full", full_help);
  sim::add_config_flags(&cli, sim::ExperimentPreset::quick().base, keys);
  return cli;
}

/// Parse argv, pick the preset --full or IBSIM_FULL=1 selects and apply
/// the given field-table flags over its base. Returns false after --help or
/// --version; a bad value exits 2.
inline bool parse_preset(sim::Cli& cli, int argc, char** argv, sim::ExperimentPreset* preset) {
  if (!cli.parse(argc, argv)) return false;
  *preset = sim::ExperimentPreset::from_env(cli.flag("full"));
  sim::exit_on_error(sim::apply_config_flags(cli, &preset->base));
  return true;
}

/// The comma-separated names given to `option` (empty items dropped),
/// each of which `registry` must hold; an unknown name exits 2.
template <typename Registry>
std::vector<std::string> registered_names(const sim::Cli& cli, const char* option,
                                          const Registry& registry, const char* what) {
  std::vector<std::string> names;
  std::istringstream list(cli.get_string(option));
  for (std::string name; std::getline(list, name, ',');) {
    if (name.empty()) continue;
    if (!registry.contains(name)) {
      std::fprintf(stderr, "unknown %s '%s' (valid: %s)\n", what, name.c_str(),
                   registry.names_joined().c_str());
      std::exit(2);
    }
    names.push_back(name);
  }
  return names;
}

/// Write `table` as CSV to the path given to --csv, if any.
inline void write_csv(const sim::Cli& cli, const analysis::TextTable& table) {
  const std::string& path = cli.get_string("csv");
  if (path.empty()) return;
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fputs(table.render_csv().c_str(), f);
  std::fclose(f);
  std::printf("CSV written to %s\n", path.c_str());
}

}  // namespace ibsim::bench
