#include "sim/config_file.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>
#include <vector>

#include "core/assert.hpp"
#include "sim/config_fields.hpp"

namespace ibsim::sim {

namespace {

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return {};
  const auto end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

/// The simulate flag of a config key: '-' in place of '_'.
std::string flag_name(const ConfigField& field) {
  std::string flag = field.name;
  std::replace(flag.begin(), flag.end(), '_', '-');
  return flag;
}

/// Levenshtein edit distance with a cutoff: stops caring past `limit`
/// (returns limit + 1), which keeps suggestion scans cheap.
std::size_t edit_distance(const std::string& a, const std::string& b, std::size_t limit) {
  if (a.size() > b.size()) return edit_distance(b, a, limit);
  if (b.size() - a.size() > limit) return limit + 1;
  std::vector<std::size_t> row(a.size() + 1);
  for (std::size_t i = 0; i <= a.size(); ++i) row[i] = i;
  for (std::size_t j = 1; j <= b.size(); ++j) {
    std::size_t prev_diag = row[0];
    row[0] = j;
    std::size_t best = row[0];
    for (std::size_t i = 1; i <= a.size(); ++i) {
      const std::size_t subst = prev_diag + (a[i - 1] == b[j - 1] ? 0 : 1);
      prev_diag = row[i];
      row[i] = std::min({row[i - 1] + 1, row[i] + 1, subst});
      best = std::min(best, row[i]);
    }
    if (best > limit) return limit + 1;
  }
  return row[a.size()];
}

/// "unknown key" diagnostic, suggesting the nearest recognised key
/// within a small edit distance — and nothing when no key is plausibly
/// close, so a genuinely unknown key does not get a nonsense suggestion.
std::string unknown_key(const std::string& key) {
  // One typo per ~4 characters of key, at least 2: catches "topolgy",
  // "result_stor", "cc_algoo" without matching unrelated keys.
  const std::size_t limit = std::max<std::size_t>(2, key.size() / 4);
  const char* best = nullptr;
  std::size_t best_distance = limit + 1;
  for (const ConfigField& field : config_fields()) {
    if (!field.settable()) continue;
    const std::size_t d = edit_distance(key, field.name, limit);
    if (d < best_distance) {
      best_distance = d;
      best = field.name;
    }
  }
  std::string err = "unknown key '" + key + "'";
  if (best != nullptr) err += " (did you mean '" + std::string(best) + "'?)";
  return err;
}

}  // namespace

std::string apply_config_text(const std::string& text, SimConfig* config) {
  std::istringstream in(text);
  std::string line;
  int line_number = 0;
  std::map<std::string, int> seen_at;  // key -> first line, for duplicate detection
  while (std::getline(in, line)) {
    ++line_number;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      return "line " + std::to_string(line_number) + ": expected 'key = value'";
    }
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    if (key.empty() || value.empty()) {
      return "line " + std::to_string(line_number) + ": empty key or value";
    }
    const auto [it, inserted] = seen_at.emplace(key, line_number);
    if (!inserted) {
      // Silent last-wins hides typos and merge accidents; make the
      // collision loud and point at both occurrences.
      return "line " + std::to_string(line_number) + ": duplicate key '" + key +
             "' (already set at line " + std::to_string(it->second) + ")";
    }
    const ConfigField* field = find_config_field(key);
    const std::string err =
        field != nullptr ? set_field(*field, value, config) : unknown_key(key);
    if (!err.empty()) return "line " + std::to_string(line_number) + ": " + err;
  }
  return {};
}

std::string apply_config_file(const std::string& path, SimConfig* config) {
  std::ifstream in(path);
  if (!in.good()) return "cannot open config file '" + path + "'";
  std::stringstream buf;
  buf << in.rdbuf();
  return apply_config_text(buf.str(), config);
}

void add_config_flags(Cli* cli, const SimConfig& defaults) {
  for (const ConfigField& field : config_fields()) {
    if (!field.settable()) continue;
    cli->add_string(flag_name(field), field_text(field, defaults), field.help,
                    field_placeholder(field));
  }
}

std::string apply_config_flags(const Cli& cli, SimConfig* config) {
  for (const ConfigField& field : config_fields()) {
    if (!field.settable()) continue;
    const std::string flag = flag_name(field);
    if (!cli.was_set(flag)) continue;
    const std::string& value = cli.get_string(flag);
    if (std::string err = set_field(field, value, config); !err.empty()) {
      return "--" + flag + "=" + value + ": " + err;
    }
  }
  return {};
}

std::string apply_int_options(
    const Cli& cli, std::initializer_list<std::pair<const char*, const char*>> options,
    SimConfig* config) {
  for (const auto& [option, key] : options) {
    const ConfigField* field = find_config_field(key);
    IBSIM_ASSERT(field != nullptr, "apply_int_options names no settable config key");
    const std::string value = std::to_string(cli.get_int(option));
    if (std::string err = set_field(*field, value, config); !err.empty()) {
      return "--" + std::string(option) + "=" + value + ": " + err;
    }
  }
  return {};
}

}  // namespace ibsim::sim
