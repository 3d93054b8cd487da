#include "sim/cli.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "core/assert.hpp"

namespace ibsim::sim {

Cli::Cli(std::string program_description) : description_(std::move(program_description)) {
  add_flag("help", "show this help");
}

void Cli::add_flag(const std::string& name, const std::string& help) {
  options_[name] = Option{Kind::Flag, help, false, 0, {}};
  order_.push_back(name);
}

void Cli::add_int(const std::string& name, std::int64_t default_value, const std::string& help) {
  Option opt{Kind::Int, help, false, 0, {}};
  opt.int_value = default_value;
  options_[name] = std::move(opt);
  order_.push_back(name);
}

void Cli::add_string(const std::string& name, std::string default_value,
                     const std::string& help, std::string placeholder) {
  Option opt{Kind::String, help, false, 0, {}};
  opt.string_value = std::move(default_value);
  opt.placeholder = std::move(placeholder);
  options_[name] = std::move(opt);
  order_.push_back(name);
}

bool Cli::parse(int argc, char** argv) {
  auto fail = [&](const std::string& msg) {
    std::fprintf(stderr, "error: %s\n", msg.c_str());
    print_usage();
    std::exit(2);
  };

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) fail("unexpected argument '" + arg + "'");
    arg = arg.substr(2);
    std::string value;
    bool has_value = false;
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      has_value = true;
    }
    auto it = options_.find(arg);
    if (it == options_.end()) fail("unknown option '--" + arg + "'");
    Option& opt = it->second;
    opt.set_on_command_line = true;
    if (opt.kind == Kind::Flag) {
      if (has_value) fail("flag '--" + arg + "' does not take a value");
      opt.flag_value = true;
      continue;
    }
    if (!has_value) {
      if (i + 1 >= argc) fail("option '--" + arg + "' needs a value");
      value = argv[++i];
    }
    // An empty value or one the type cannot hold is as wrong as a
    // non-number: strto* would read "" as 0 and clamp an overflow.
    char* end = nullptr;
    errno = 0;
    switch (opt.kind) {
      case Kind::Int:
        opt.int_value = std::strtoll(value.c_str(), &end, 10);
        if (value.empty() || *end != '\0' || errno == ERANGE) {
          fail("'--" + arg + "' expects an integer");
        }
        break;
      case Kind::String:
        opt.string_value = value;
        break;
      case Kind::Flag:
        break;
    }
  }
  if (flag("help")) {
    print_usage();
    return false;
  }
  return true;
}

const Cli::Option& Cli::require(const std::string& name, Kind kind) const {
  auto it = options_.find(name);
  IBSIM_ASSERT(it != options_.end(), "unregistered CLI option queried");
  IBSIM_ASSERT(it->second.kind == kind, "CLI option queried with the wrong type");
  return it->second;
}

bool Cli::flag(const std::string& name) const { return require(name, Kind::Flag).flag_value; }

bool Cli::was_set(const std::string& name) const {
  const auto it = options_.find(name);
  IBSIM_ASSERT(it != options_.end(), "unregistered CLI option queried");
  return it->second.set_on_command_line;
}

std::int64_t Cli::get_int(const std::string& name) const {
  return require(name, Kind::Int).int_value;
}

const std::string& Cli::get_string(const std::string& name) const {
  return require(name, Kind::String).string_value;
}

void Cli::print_usage() const {
  std::printf("%s\n\noptions:\n", description_.c_str());
  for (const std::string& name : order_) {
    const Option& opt = options_.at(name);
    std::string left = "--" + name;
    switch (opt.kind) {
      case Kind::Flag: break;
      case Kind::Int: left += "=<int> (default " + std::to_string(opt.int_value) + ")"; break;
      case Kind::String:
        left += "=<" + opt.placeholder + ">" +
                (opt.string_value.empty() ? std::string{}
                                          : " (default " + opt.string_value + ")");
        break;
    }
    std::printf("  %-44s %s\n", left.c_str(), opt.help.c_str());
  }
}

}  // namespace ibsim::sim
