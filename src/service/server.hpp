#pragma once

#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/socket.hpp"
#include "sim/sim_config.hpp"
#include "sim/sweep_service.hpp"

namespace ibsim::service {

/// The sweepd daemon's transport: a Unix-domain-socket server speaking
/// newline-delimited JSON, one object per line, over a SweepService.
///
/// Requests (client → server), dispatched on the "op" field:
///
///   {"op":"ping"}                          → {"event":"pong"}
///   {"op":"submit","name":...,"base":{...},"axes":{...}}
///       → {"event":"accepted","job":J,"cells":N}
///       → one {"event":"cell","job":J,"index":I,"label":...,"key":...,
///              "cached":B,"shared":B,"all_rcv_gbps":X,...} per cell,
///          streamed as cells complete (store hits arrive immediately)
///       → {"event":"done","job":J,"cells":N,"store_hits":H}
///   {"op":"status"}                        → {"event":"status","jobs":[...]}
///   {"op":"drain"}   blocks until every job is complete
///                                          → {"event":"drained","jobs":N}
///   {"op":"shutdown"}                      → {"event":"bye"}, daemon exits
///
/// Malformed input produces {"event":"error","message":...} and keeps
/// the connection open. Connections are handled on their own threads;
/// submissions from concurrent clients dedup against each other through
/// the service (identical in-flight cells run once, fanning out to every
/// subscriber).
class SweepServer {
 public:
  struct Options {
    std::string socket_path;
    /// Defaults each request's cells start from (before its base keys).
    sim::SimConfig base_config;
    sim::SweepService::Options service;
  };

  explicit SweepServer(Options options);
  ~SweepServer();  // stop() if still running

  /// Bind the socket and start serving. False (with `*error`) if the
  /// socket cannot be bound.
  [[nodiscard]] bool start(std::string* error);

  /// Block until a client's shutdown request (or stop()).
  void wait();

  /// Close the listener and all connections, join every thread.
  void stop();

  [[nodiscard]] sim::SweepService& service() { return *service_; }
  [[nodiscard]] const std::string& socket_path() const { return options_.socket_path; }

 private:
  /// Per-connection state shared with in-flight completion callbacks:
  /// the callbacks outlive the read loop when a client disconnects
  /// mid-sweep, so the fd and its write lock are reference-counted.
  struct Connection {
    Fd fd;
    std::mutex write_mu;  ///< cell events and replies interleave safely
  };

  void accept_loop();
  void handle_connection(const std::shared_ptr<Connection>& conn);
  void handle_line(const std::shared_ptr<Connection>& conn, const std::string& line);

  Options options_;
  std::unique_ptr<sim::SweepService> service_;
  Fd listener_;
  std::thread accept_thread_;

  std::mutex mu_;
  std::condition_variable shutdown_cv_;
  bool shutdown_requested_ = false;
  bool running_ = false;
  std::vector<std::shared_ptr<Connection>> connections_;
  std::vector<std::thread> connection_threads_;
};

}  // namespace ibsim::service
