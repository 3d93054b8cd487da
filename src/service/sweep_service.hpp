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

#include "service/sweep_request.hpp"
#include "sim/simulation.hpp"
#include "store/result_store.hpp"

namespace ibsim::service {

/// The daemon's scheduling core: a persistent worker pool executing
/// sweep cells, with the result store and in-flight run deduplication
/// layered in front of it. Transport-free — the Unix-socket server
/// (service/server.hpp) sits on top, and tests drive the service
/// in-process.
///
/// Every cell is identified by its store run key (store/key.hpp), even
/// when no store is configured — simulations are deterministic, so two
/// jobs submitting an identical cell concurrently share one execution:
/// the first submission schedules the run, later ones subscribe to it.
/// With a store, cells already on disk complete at submit time without
/// touching the pool, and fresh results are published for the next
/// campaign. The cache hierarchy a cell falls through is therefore:
/// store hit → in-flight subscription → scheduled run.
class SweepService {
 public:
  struct Options {
    /// Result-store directory ("" = no persistence, dedup still works).
    std::string store_dir;
    /// Worker threads (0 = hardware concurrency via resolve_threads).
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
    bool shared = false;  ///< subscribed to another job's in-flight run
    sim::SimResult result;
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
    sim::SimConfig config;
    std::vector<Subscriber> subscribers;
    bool scheduled = false;  ///< queued for (or claimed by) a worker
  };

  void worker_loop();
  /// Deliver a finished result to every subscriber of `key` and advance
  /// their jobs' completion counts. Called with `mu_` held; callbacks
  /// run outside the lock.
  void complete_locked(std::unique_lock<std::mutex>& lock, const std::string& key,
                       const sim::SimResult& result, bool cached);
  /// Count `n` more returned on_cell calls of `job`. True exactly once
  /// per job: for the delivery that finds every cell delivered, which
  /// then owes the job its on_done. Deliveries of one job run on
  /// several threads (workers, and submit for store hits), so the last
  /// cell to *complete* need not be the last to *return*.
  [[nodiscard]] static bool delivered_locked(Job& job, std::size_t n);

  std::shared_ptr<store::ResultStore> store_;  // null without a store
  std::vector<std::thread> workers_;

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
};

}  // namespace ibsim::service
