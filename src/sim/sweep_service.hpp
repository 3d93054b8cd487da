#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "sim/simulation.hpp"
#include "store/result_store.hpp"

namespace ibsim::sim {

/// One sweep cell: a fully-resolved config plus a stable human label of
/// its axis coordinates ("p_percent=50 cc_enabled=1").
struct SweepCell {
  std::string label;
  SimConfig config;
};

/// What one pool worker did: how long it spent inside Simulation runs,
/// and how many runs it claimed. Idle workers claim the next queued run,
/// so the busy times should be near-equal even when run lengths are
/// wildly skewed (moving/windy scenarios).
struct SweepWorkerStats {
  double busy_seconds = 0.0;
  std::uint64_t runs = 0;
};

/// The one code path that turns sweep cells into results: a worker pool
/// executing cells, with the result store and in-flight run
/// deduplication layered in front of it. run_parallel submits one job
/// and drains; sweepd's Unix-socket server (service/server.hpp) keeps
/// one service for its lifetime; tests drive it in-process.
///
/// Every cell is identified by its store run key (store/key.hpp), even
/// when no store is configured — simulations are deterministic, so two
/// cells with one key share one execution: the first submission
/// schedules the run, later ones (from any job) subscribe to it. With a
/// store, cells already on disk complete at submit time without
/// touching the pool, and fresh results are published for the next
/// campaign. The cache hierarchy a cell falls through is therefore:
/// store hit → in-flight subscription → scheduled run. A cell that
/// writes a trace or counter CSV skips the store both ways: a stored
/// result would leave its files unwritten.
///
/// Workers start as scheduled runs need them, up to the resolved thread
/// count, and then stay until the service is destroyed. A sweep served
/// entirely from the store starts none.
class SweepService {
 public:
  struct Options {
    /// Result-store directory ("" = no persistence, dedup still works).
    std::string store_dir;
    /// Most worker threads (0 = resolve_threads' default).
    std::int32_t threads = 0;
  };

  /// Completion record of one cell, delivered to the submitting job's
  /// callback from whichever thread finished the cell (a worker, or the
  /// submitting thread itself for store hits).
  struct CellOutcome {
    std::uint64_t job = 0;
    std::size_t index = 0;  ///< cell position within the job
    std::string label;
    std::string key;      ///< store run key of the cell
    bool cached = false;  ///< served from the on-disk store at submit
    bool shared = false;  ///< subscribed to another cell's in-flight run
    SimResult result;
  };
  using CellCallback = std::function<void(const CellOutcome&)>;
  using DoneCallback = std::function<void(std::uint64_t job)>;

  struct JobStatus {
    std::uint64_t id = 0;
    std::string name;
    std::size_t cells = 0;
    std::size_t done = 0;
    std::size_t store_hits = 0;
    bool complete = false;
  };

  explicit SweepService(Options options);
  /// Stops accepting work, drains nothing: pending cells are abandoned,
  /// in-flight runs finish (their callbacks still fire) and workers join.
  ~SweepService();

  /// Submit an expanded sweep. `on_cell` fires once per cell (store
  /// hits fire before submit returns), `on_done` once after every
  /// `on_cell` of the job has returned. Callbacks come from arbitrary
  /// threads and must synchronize their own side effects. Returns the
  /// job id.
  std::uint64_t submit(std::string name, std::vector<SweepCell> cells,
                       CellCallback on_cell, DoneCallback on_done = nullptr);

  /// Snapshot of every job submitted so far, in submission order.
  [[nodiscard]] std::vector<JobStatus> status();

  /// Block until every submitted job has completed.
  void drain();

  /// The service's store (null when running without persistence).
  [[nodiscard]] const std::shared_ptr<store::ResultStore>& store() const { return store_; }

  /// Per-worker busy time and run count, one entry per worker started.
  [[nodiscard]] std::vector<SweepWorkerStats> worker_stats();

 private:
  struct Job {
    std::uint64_t id = 0;
    std::string name;
    std::size_t cells = 0;
    std::size_t done = 0;       ///< cells with a result
    std::size_t delivered = 0;  ///< cells whose on_cell has returned
    bool done_sent = false;     ///< on_done claimed by some delivery
    std::size_t store_hits = 0;
    CellCallback on_cell;
    DoneCallback on_done;
  };

  /// One subscriber of an in-flight run: which job/cell wants the result.
  struct Subscriber {
    std::uint64_t job = 0;
    std::size_t index = 0;
    std::string label;
    bool shared = false;
  };

  struct InFlight {
    SimConfig config;
    std::vector<Subscriber> subscribers;
    bool scheduled = false;  ///< queued for (or claimed by) a worker
  };

  void worker_loop(std::size_t worker);
  /// Deliver a finished result to every subscriber of `key` and advance
  /// their jobs' completion counts. Called with `mu_` held; callbacks
  /// run outside the lock.
  void complete_locked(std::unique_lock<std::mutex>& lock, const std::string& key,
                       const SimResult& result);
  /// Count `n` more returned on_cell calls of `job`. True exactly once
  /// per job: for the delivery that finds every cell delivered, which
  /// then owes the job its on_done. Deliveries of one job run on
  /// several threads (workers, and submit for store hits), so the last
  /// cell to *complete* need not be the last to *return*.
  [[nodiscard]] static bool delivered_locked(Job& job, std::size_t n);

  std::shared_ptr<store::ResultStore> store_;  // null without a store
  std::size_t max_workers_ = 0;

  std::mutex mu_;
  std::condition_variable work_cv_;   ///< workers wait for queue_
  std::condition_variable drain_cv_;  ///< drain() waits for completion
  bool stopping_ = false;
  /// Callback batches currently running outside the lock. drain() must
  /// wait these out: a job's `done` count advances before its callbacks
  /// fire, so done==cells alone would let drain() return with the last
  /// cell's delivery still in flight.
  std::size_t delivering_ = 0;
  std::deque<std::string> queue_;  ///< keys of runs awaiting a worker
  std::unordered_map<std::string, InFlight> inflight_;
  std::unordered_map<std::uint64_t, Job> jobs_;
  std::vector<std::uint64_t> job_order_;
  std::uint64_t next_job_ = 1;
  std::vector<SweepWorkerStats> worker_stats_;  ///< indexed like workers_
  std::vector<std::thread> workers_;            ///< grows on demand, up to max_workers_
};

}  // namespace ibsim::sim
