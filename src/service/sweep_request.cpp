#include "service/sweep_request.hpp"

#include <limits>

#include "sim/config_file.hpp"

namespace ibsim::service {

namespace {

/// A scalar request value as config-file value text. Numbers keep their
/// request spelling (Json preserves it), so "0.1" reaches the config
/// parser exactly as the client wrote it.
bool value_text(const Json& v, std::string* out, std::string* error) {
  switch (v.kind()) {
    case Json::Kind::String: *out = v.as_string(); return true;
    case Json::Kind::Number: *out = v.number_text(); return true;
    case Json::Kind::Bool: *out = v.as_bool() ? '1' : '0'; return true;
    default:
      *error = "expected a string, number, or bool value";
      return false;
  }
}

}  // namespace

bool parse_sweep_request(const Json& json, SweepRequest* request, std::string* error) {
  *request = SweepRequest{};
  if (!json.is_object()) {
    *error = "submit request must be a JSON object";
    return false;
  }
  for (const auto& [key, value] : json.members()) {
    if (key == "op") continue;  // dispatched by the caller
    if (key == "name") {
      if (!value.is_string()) {
        *error = "'name' must be a string";
        return false;
      }
      request->name = value.as_string();
      continue;
    }
    if (key == "base") {
      if (!value.is_object()) {
        *error = "'base' must be an object of config keys";
        return false;
      }
      for (const auto& [config_key, config_value] : value.members()) {
        std::string text;
        if (!value_text(config_value, &text, error)) {
          *error = "base." + config_key + ": " + *error;
          return false;
        }
        request->base.emplace_back(config_key, std::move(text));
      }
      continue;
    }
    if (key == "axes") {
      if (!value.is_object()) {
        *error = "'axes' must be an object of config key -> value list";
        return false;
      }
      for (const auto& [axis_key, axis_values] : value.members()) {
        if (!axis_values.is_array() || axis_values.elements().empty()) {
          *error = "axes." + axis_key + ": must be a non-empty array";
          return false;
        }
        std::vector<std::string> texts;
        texts.reserve(axis_values.elements().size());
        for (const Json& element : axis_values.elements()) {
          std::string text;
          if (!value_text(element, &text, error)) {
            *error = "axes." + axis_key + ": " + *error;
            return false;
          }
          texts.push_back(std::move(text));
        }
        request->axes.emplace_back(axis_key, std::move(texts));
      }
      continue;
    }
    // Same philosophy as the config-file parser: an unrecognised field
    // is a typo until proven otherwise.
    *error = "unknown request field '" + key + "'";
    return false;
  }
  if (request->name.empty()) {
    *error = "submit request needs a non-empty 'name'";
    return false;
  }
  return true;
}

bool expand_sweep(const SweepRequest& request, const sim::SimConfig& base_config,
                  std::vector<sim::SweepCell>* cells, std::string* error) {
  cells->clear();

  // Base keys become one config-file text applied up front (duplicate
  // keys within the base are caught by the config parser itself).
  std::string base_text;
  for (const auto& [key, value] : request.base) {
    base_text += key + " = " + value + "\n";
  }
  sim::SimConfig with_base = base_config;
  if (std::string err = sim::apply_config_text(base_text, &with_base); !err.empty()) {
    *error = "base: " + err;
    return false;
  }

  // The cell count is checked before anything is sized by it. The
  // product saturates instead of wrapping, so a huge request cannot pass
  // for a small or empty one.
  constexpr std::size_t kSaturated = std::numeric_limits<std::size_t>::max();
  std::size_t total = 1;
  for (const auto& [key, values] : request.axes) {
    const std::size_t n = values.size();
    total = n != 0 && total > kSaturated / n ? kSaturated : total * n;
  }
  if (total > kMaxSweepCells) {
    *error = "the axes give " +
             (total == kSaturated ? std::string("over 2^64") : std::to_string(total)) +
             " cells; a sweep holds at most " + std::to_string(kMaxSweepCells);
    return false;
  }

  // Row-major Cartesian product: the odometer's last axis ticks fastest,
  // matching the nesting order a hand-written loop over the request
  // would produce. Axis assignments apply as a second config text, so an
  // axis may legitimately override a base key without tripping the
  // parser's per-file duplicate detection.
  cells->reserve(total);
  std::vector<std::size_t> odometer(request.axes.size(), 0);
  for (std::size_t n = 0; n < total; ++n) {
    std::string label;
    std::string axis_text;
    for (std::size_t a = 0; a < request.axes.size(); ++a) {
      const auto& [key, values] = request.axes[a];
      const std::string& value = values[odometer[a]];
      if (!label.empty()) label += ' ';
      label += key + "=" + value;
      axis_text += key + " = " + value + "\n";
    }
    sim::SweepCell cell;
    cell.label = label.empty() ? request.name : label;
    cell.config = with_base;
    std::string err = sim::apply_config_text(axis_text, &cell.config);
    if (err.empty()) err = sim::check_config(cell.config);
    if (!err.empty()) {
      *error = "cell '" + cell.label + "': " + err;
      cells->clear();
      return false;
    }
    cells->push_back(std::move(cell));
    for (std::size_t a = request.axes.size(); a-- > 0;) {
      if (++odometer[a] < request.axes[a].second.size()) break;
      odometer[a] = 0;
    }
  }
  return true;
}

}  // namespace ibsim::service
