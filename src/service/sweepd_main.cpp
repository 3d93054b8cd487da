// sweepd — the sweep daemon. Listens on a Unix socket for
// newline-delimited JSON sweep requests (see service/server.hpp for the
// protocol), schedules cells across a persistent worker pool, and
// serves/publishes results through the on-disk result store so repeated
// and concurrent campaigns only simulate what is missing.
//
// Usage:
//   sweepd --socket=PATH [--result-store=DIR] [--threads=N]
//          [--config=FILE] [--version]
//
// --config seeds the base SimConfig every request starts from (same
// key = value format as simulate --config); requests then layer their
// own base and axes on top.

#include <charconv>
#include <cstdio>
#include <cstring>
#include <string>
#include <system_error>

#include "service/server.hpp"
#include "sim/config_file.hpp"
#include "store/version.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: sweepd --socket=PATH [--result-store=DIR] [--threads=N]\n"
               "              [--config=FILE] [--version]\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  ibsim::service::SweepServer::Options options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--version") {
      std::printf("%s\n", ibsim::store::version_line("sweepd").c_str());
      return 0;
    }
    if (arg.rfind("--socket=", 0) == 0) {
      socket_path = arg.substr(std::strlen("--socket="));
    } else if (arg.rfind("--result-store=", 0) == 0) {
      options.service.store_dir = arg.substr(std::strlen("--result-store="));
    } else if (arg.rfind("--threads=", 0) == 0) {
      // Strict, as simulate --threads is: "abc" or "-4" must not quietly
      // become the hardware default.
      const std::string value = arg.substr(std::strlen("--threads="));
      const char* last = value.data() + value.size();
      const auto [end, ec] = std::from_chars(value.data(), last, options.service.threads);
      if (ec != std::errc{} || end != last || options.service.threads < 0) {
        std::fprintf(stderr, "sweepd: %s: expected a non-negative integer (0 = auto)\n",
                     arg.c_str());
        return 2;
      }
    } else if (arg.rfind("--config=", 0) == 0) {
      const std::string path = arg.substr(std::strlen("--config="));
      const std::string err = ibsim::sim::apply_config_file(path, &options.base_config);
      if (!err.empty()) {
        std::fprintf(stderr, "sweepd: %s: %s\n", path.c_str(), err.c_str());
        return 2;
      }
    } else {
      std::fprintf(stderr, "sweepd: unknown argument '%s'\n", arg.c_str());
      usage();
      return 2;
    }
  }
  if (socket_path.empty()) {
    usage();
    return 2;
  }
  options.socket_path = socket_path;

  ibsim::service::SweepServer server(std::move(options));
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "sweepd: %s\n", error.c_str());
    return 1;
  }
  std::fprintf(stderr, "sweepd %s listening on %s\n", ibsim::store::code_version(),
               socket_path.c_str());
  if (server.service().store() != nullptr) {
    std::fprintf(stderr, "sweepd: result store at %s\n",
                 server.service().store()->dir().c_str());
  }
  server.wait();  // until a client sends {"op":"shutdown"}
  server.stop();
  if (server.service().store() != nullptr) {
    std::fprintf(stderr, "sweepd: %s\n", server.service().store()->stats_line().c_str());
  }
  return 0;
}
