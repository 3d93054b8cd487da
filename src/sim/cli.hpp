#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ibsim::sim {

/// Minimal long-option parser shared by the bench and example binaries:
/// `--flag`, `--key=value` or `--key value`. Unknown options abort with a
/// usage message listing the registered options.
class Cli {
 public:
  explicit Cli(std::string program_description);

  /// Register options with defaults (also defines the help text).
  void add_flag(const std::string& name, const std::string& help);
  void add_int(const std::string& name, std::int64_t default_value, const std::string& help);
  /// `placeholder` names the value form in the usage text.
  void add_string(const std::string& name, std::string default_value, const std::string& help,
                  std::string placeholder = "str");

  /// Parse argv. On `--help` prints usage and returns false (caller
  /// should exit 0); on errors prints a message and calls exit(2).
  [[nodiscard]] bool parse(int argc, char** argv);

  [[nodiscard]] bool flag(const std::string& name) const;
  /// True when the option appeared on the command line (as opposed to
  /// holding its registered default). Lets callers layer flags over a
  /// config file without the defaults clobbering it.
  [[nodiscard]] bool was_set(const std::string& name) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name) const;
  [[nodiscard]] const std::string& get_string(const std::string& name) const;

  void print_usage() const;

 private:
  enum class Kind { Flag, Int, String };
  struct Option {
    Kind kind;
    std::string help;
    bool flag_value = false;
    std::int64_t int_value = 0;
    std::string string_value;
    std::string placeholder = "str";
    bool set_on_command_line = false;
  };

  const Option& require(const std::string& name, Kind kind) const;

  std::string description_;
  std::map<std::string, Option> options_;
  std::vector<std::string> order_;
};

}  // namespace ibsim::sim
