#include "service/server.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>

#include "service/json.hpp"
#include "service/sweep_request.hpp"

namespace ibsim::service {

namespace {

/// Serialized writer over one connection: a raw fd plus the
/// connection's write mutex. Callbacks capture it by value together
/// with the owning Connection shared_ptr, which keeps the fd open (a
/// stopped server shuts the socket down but never closes it while
/// callbacks exist, so a stale fd number can never alias a new file).
struct ConnWriter {
  int fd;
  std::mutex* mu;
  void send(const Json& event) const {
    std::lock_guard<std::mutex> lock(*mu);
    // A dead client makes this fail; completions for its jobs are
    // simply dropped (the results are in the store regardless).
    (void)write_line(fd, event.dump());
  }
};

Json error_event(const std::string& message) {
  Json e = Json::object();
  e.set("event", Json::string("error"));
  e.set("message", Json::string(message));
  return e;
}

}  // namespace

SweepServer::SweepServer(Options options) : options_(std::move(options)) {
  service_ = std::make_unique<sim::SweepService>(options_.service);
}

SweepServer::~SweepServer() { stop(); }

bool SweepServer::start(std::string* error) {
  if (!listen_unix(options_.socket_path, &listener_, error)) return false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    running_ = true;
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
  return true;
}

void SweepServer::accept_loop() {
  for (;;) {
    Fd fd;
    if (!accept_unix(listener_, &fd)) return;  // listener shut down
    auto conn = std::make_shared<Connection>();
    conn->fd = std::move(fd);
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) return;  // raced with stop(); conn closes on scope exit
    connections_.push_back(conn);
    connection_threads_.emplace_back([this, conn] { handle_connection(conn); });
  }
}

void SweepServer::handle_connection(const std::shared_ptr<Connection>& conn) {
  std::string buffer;
  std::string line;
  while (read_line(conn->fd.get(), &buffer, &line)) {
    if (line.empty()) continue;
    handle_line(conn, line);
  }
}

void SweepServer::handle_line(const std::shared_ptr<Connection>& conn,
                              const std::string& line) {
  const ConnWriter writer{conn->fd.get(), &conn->write_mu};

  std::string parse_error;
  const Json request = Json::parse(line, &parse_error);
  if (!parse_error.empty()) {
    writer.send(error_event("bad JSON: " + parse_error));
    return;
  }
  const Json* op = request.find("op");
  if (op == nullptr || !op->is_string()) {
    writer.send(error_event("request needs a string 'op' field"));
    return;
  }

  if (op->as_string() == "ping") {
    Json pong = Json::object();
    pong.set("event", Json::string("pong"));
    writer.send(pong);
    return;
  }

  if (op->as_string() == "status") {
    Json status = Json::object();
    status.set("event", Json::string("status"));
    Json jobs = Json::array();
    for (const sim::SweepService::JobStatus& s : service_->status()) {
      Json job = Json::object();
      job.set("id", Json::number_int(static_cast<std::int64_t>(s.id)));
      job.set("name", Json::string(s.name));
      job.set("cells", Json::number_int(static_cast<std::int64_t>(s.cells)));
      job.set("done", Json::number_int(static_cast<std::int64_t>(s.done)));
      job.set("store_hits", Json::number_int(static_cast<std::int64_t>(s.store_hits)));
      job.set("complete", Json::boolean(s.complete));
      jobs.push_back(std::move(job));
    }
    status.set("jobs", std::move(jobs));
    if (service_->store() != nullptr) {
      const store::ResultStore::Stats stats = service_->store()->stats();
      Json store = Json::object();
      store.set("dir", Json::string(service_->store()->dir()));
      store.set("hits", Json::number_int(static_cast<std::int64_t>(stats.hits)));
      store.set("misses", Json::number_int(static_cast<std::int64_t>(stats.misses)));
      store.set("puts", Json::number_int(static_cast<std::int64_t>(stats.puts)));
      store.set("entries",
                Json::number_int(static_cast<std::int64_t>(service_->store()->entries())));
      status.set("store", std::move(store));
    }
    writer.send(status);
    return;
  }

  if (op->as_string() == "drain") {
    // Blocks this connection's thread only; other clients keep talking.
    service_->drain();
    Json drained = Json::object();
    drained.set("event", Json::string("drained"));
    drained.set("jobs",
                Json::number_int(static_cast<std::int64_t>(service_->status().size())));
    writer.send(drained);
    return;
  }

  if (op->as_string() == "shutdown") {
    Json bye = Json::object();
    bye.set("event", Json::string("bye"));
    writer.send(bye);
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_requested_ = true;
    shutdown_cv_.notify_all();
    return;
  }

  if (op->as_string() == "submit") {
    SweepRequest sweep;
    std::string error;
    if (!parse_sweep_request(request, &sweep, &error)) {
      writer.send(error_event(error));
      return;
    }
    std::vector<sim::SweepCell> cells;
    if (!expand_sweep(sweep, options_.base_config, &cells, &error)) {
      writer.send(error_event(error));
      return;
    }
    const std::size_t n_cells = cells.size();

    // Per-job hit counter shared by the callbacks (cell events may fire
    // from several worker threads).
    auto hits = std::make_shared<std::atomic<std::size_t>>(0);
    auto on_cell = [writer, hits](const sim::SweepService::CellOutcome& outcome) {
      if (outcome.cached) hits->fetch_add(1, std::memory_order_relaxed);
      Json cell = Json::object();
      cell.set("event", Json::string("cell"));
      cell.set("job", Json::number_int(static_cast<std::int64_t>(outcome.job)));
      cell.set("index", Json::number_int(static_cast<std::int64_t>(outcome.index)));
      cell.set("label", Json::string(outcome.label));
      cell.set("key", Json::string(outcome.key));
      cell.set("cached", Json::boolean(outcome.cached));
      cell.set("shared", Json::boolean(outcome.shared));
      cell.set("all_rcv_gbps", Json::number(outcome.result.all_rcv_gbps));
      cell.set("hotspot_rcv_gbps", Json::number(outcome.result.hotspot_rcv_gbps));
      cell.set("non_hotspot_rcv_gbps", Json::number(outcome.result.non_hotspot_rcv_gbps));
      cell.set("total_throughput_gbps",
               Json::number(outcome.result.total_throughput_gbps));
      writer.send(cell);
    };
    auto on_done = [writer, hits, n_cells](std::uint64_t job) {
      Json done = Json::object();
      done.set("event", Json::string("done"));
      done.set("job", Json::number_int(static_cast<std::int64_t>(job)));
      done.set("cells", Json::number_int(static_cast<std::int64_t>(n_cells)));
      done.set("store_hits", Json::number_int(static_cast<std::int64_t>(
                                 hits->load(std::memory_order_relaxed))));
      writer.send(done);
    };

    // The accepted event must precede every cell event, and submit()
    // fires store hits synchronously — hold the job back until the
    // header is on the wire. conn (not just the raw fd) is captured by
    // the callbacks' writer so the socket outlives a client that
    // disconnects mid-sweep.
    Json accepted = Json::object();
    accepted.set("event", Json::string("accepted"));
    accepted.set("name", Json::string(sweep.name));
    accepted.set("cells", Json::number_int(static_cast<std::int64_t>(n_cells)));
    writer.send(accepted);
    service_->submit(sweep.name, std::move(cells),
                     [conn, on_cell](const sim::SweepService::CellOutcome& outcome) {
                       on_cell(outcome);
                     },
                     [conn, on_done](std::uint64_t job) { on_done(job); });
    return;
  }

  writer.send(error_event("unknown op '" + op->as_string() + "'"));
}

void SweepServer::wait() {
  std::unique_lock<std::mutex> lock(mu_);
  shutdown_cv_.wait(lock, [&] { return shutdown_requested_ || !running_; });
}

void SweepServer::stop() {
  std::vector<std::shared_ptr<Connection>> connections;
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_ && accept_thread_.joinable() == false && connection_threads_.empty()) {
      return;
    }
    running_ = false;
    shutdown_cv_.notify_all();
    connections = std::move(connections_);
    threads = std::move(connection_threads_);
    connections_.clear();
    connection_threads_.clear();
  }
  // shutdown() (not just close) wakes a blocked accept()/read(). The
  // listener closes only after the accept loop has exited: until then
  // that thread still reads the fd.
  if (listener_.valid()) ::shutdown(listener_.get(), SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.close();
  for (const auto& conn : connections) {
    if (conn->fd.valid()) ::shutdown(conn->fd.get(), SHUT_RDWR);
  }
  for (std::thread& t : threads) t.join();
  ::unlink(options_.socket_path.c_str());
}

}  // namespace ibsim::service
