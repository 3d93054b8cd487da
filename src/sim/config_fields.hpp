#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <variant>

#include "sim/sim_config.hpp"

namespace ibsim::sim {

/// How a field's text form relates to the value stored in SimConfig.
enum class FieldUnit : std::uint8_t {
  kPlain,         ///< the text is the stored value
  kCount,         ///< a non-negative integer; 0 means "auto"
  kMicroseconds,  ///< integer microseconds, stored as core::Time picoseconds
  kLifetime,      ///< kMicroseconds, except that 0 means core::kTimeNever
  kPercent,       ///< a percentage, stored as a fraction
};

/// Where a field appears.
enum class FieldScope : std::uint8_t {
  kKeyed,    ///< a text key (config file, simulate flag) that feeds the run key
  kKeyOnly,  ///< feeds the run key but is set in code only
  kUnkeyed,  ///< a text key kept out of the run key: orchestration that never changes results
};

/// Accessor naming the SimConfig member a row sets.
template <typename T>
using FieldMember = T& (*)(SimConfig&);

/// One row of the SimConfig field table.
struct ConfigField {
  /// Config-file key; the simulate flag is this name with
  /// '-' for '_'. Key-only rows use it for their run-key line alone.
  const char* name;
  /// The member, typed: the type fixes how text parses and the integer
  /// range it must fit.
  std::variant<FieldMember<bool>, FieldMember<std::uint8_t>, FieldMember<std::uint16_t>,
               FieldMember<std::int32_t>, FieldMember<std::int64_t>,
               FieldMember<std::uint64_t>, FieldMember<double>, FieldMember<std::string>,
               FieldMember<TopologyKind>, FieldMember<ib::CctFill>>
      member;
  FieldUnit unit;
  FieldScope scope;
  /// simulate --help text.
  const char* help;
  /// Extra validation of string values (registry names, trace
  /// categories): returns an error or "".
  std::string (*check)(const std::string& text) = nullptr;

  [[nodiscard]] bool settable() const { return scope != FieldScope::kKeyOnly; }
  [[nodiscard]] bool keyed() const { return scope != FieldScope::kUnkeyed; }
};

/// Every SimConfig field, each named in exactly one row
/// (src/sim/config_fields.cpp). The config-file parser, simulate's
/// flags and the run key's canonical text are all generated from it.
[[nodiscard]] std::span<const ConfigField> config_fields();

/// The settable row called `name`, or nullptr.
[[nodiscard]] const ConfigField* find_config_field(std::string_view name);

/// Parse `text` in the field's unit and store it. Integers outside the
/// member's range (after unit scaling) are rejected, never wrapped.
/// Returns "" or an error naming the field; `config` is untouched on
/// error.
[[nodiscard]] std::string set_field(const ConfigField& field, const std::string& text,
                                    SimConfig* config);

/// The field's value spelled as set_field reads it (simulate --help
/// prints these as defaults).
[[nodiscard]] std::string field_text(const ConfigField& field, const SimConfig& config);

/// What set_field accepts, for --help: "0|1", "int", "us", an enum's
/// spellings, ...
[[nodiscard]] std::string field_placeholder(const ConfigField& field);

/// The field's run-key line, "name=value\n", pinning the stored value
/// exactly: doubles as hexfloat, times as integer picoseconds. Rows
/// whose text unit differs from the stored one swap the name's unit
/// suffix ("sim_time_us" -> "sim_time_ps", "p_percent" -> "p").
[[nodiscard]] std::string field_canonical_line(const ConfigField& field,
                                               const SimConfig& config);

}  // namespace ibsim::sim
