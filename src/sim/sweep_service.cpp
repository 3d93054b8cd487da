#include "sim/sweep_service.hpp"

#include <chrono>

#include "sim/experiment.hpp"
#include "store/key.hpp"

namespace ibsim::sim {

SweepService::SweepService(Options options)
    : max_workers_(static_cast<std::size_t>(resolve_threads(options.threads))) {
  if (!options.store_dir.empty()) {
    store_ = store::StoreRegistry::instance().open(options.store_dir);
  }
}

SweepService::~SweepService() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

std::uint64_t SweepService::submit(std::string name, std::vector<SweepCell> cells,
                                   CellCallback on_cell, DoneCallback on_done) {
  // Key every cell and probe the store before taking the service lock:
  // hashing and disk reads are the slow part of submission and need no
  // shared state.
  struct Prepared {
    std::string key;
    bool hit = false;
    SimResult result;
  };
  std::vector<Prepared> prepared(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    prepared[i].key = store::run_key(cells[i].config);
    if (store_ != nullptr && !cells[i].config.telemetry.writes_files()) {
      prepared[i].hit = store_->get(prepared[i].key, &prepared[i].result);
    }
  }

  std::vector<CellOutcome> immediate;
  std::uint64_t id = 0;
  {
    std::unique_lock<std::mutex> lock(mu_);
    id = next_job_++;
    Job job;
    job.id = id;
    job.name = std::move(name);
    job.cells = cells.size();
    job.on_cell = std::move(on_cell);
    job.on_done = std::move(on_done);

    std::size_t scheduled = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (prepared[i].hit) {
        ++job.done;
        ++job.store_hits;
        CellOutcome outcome;
        outcome.job = id;
        outcome.index = i;
        outcome.label = cells[i].label;
        outcome.key = prepared[i].key;
        outcome.cached = true;
        outcome.result = std::move(prepared[i].result);
        immediate.push_back(std::move(outcome));
        continue;
      }
      InFlight& flight = inflight_[prepared[i].key];
      Subscriber sub;
      sub.job = id;
      sub.index = i;
      sub.label = cells[i].label;
      // Joining a run someone else already scheduled (another job, or an
      // earlier duplicate cell of this one) — the scheduling dedup the
      // daemon exists for.
      sub.shared = flight.scheduled;
      flight.subscribers.push_back(std::move(sub));
      if (!flight.scheduled) {
        flight.config = cells[i].config;
        flight.scheduled = true;
        queue_.push_back(prepared[i].key);
        ++scheduled;
        if (workers_.size() < max_workers_) {
          worker_stats_.emplace_back();
          workers_.emplace_back([this, w = workers_.size()] { worker_loop(w); });
        }
      }
    }
    jobs_.emplace(id, std::move(job));
    job_order_.push_back(id);
    ++delivering_;  // store-hit callbacks below run outside the lock
    for (std::size_t i = 0; i < scheduled; ++i) work_cv_.notify_one();
  }

  // Callbacks fire outside the lock; a fully-cached job completes before
  // submit returns, which is what makes warm reruns instant.
  Job* job = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    job = &jobs_.at(id);
  }
  for (const CellOutcome& outcome : immediate) {
    if (job->on_cell) job->on_cell(outcome);
  }
  bool finished = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // An empty job finishes here too: 0 of 0 cells delivered.
    finished = delivered_locked(*job, immediate.size());
  }
  if (finished && job->on_done) job->on_done(id);
  {
    std::lock_guard<std::mutex> lock(mu_);
    --delivering_;
  }
  drain_cv_.notify_all();
  return id;
}

bool SweepService::delivered_locked(Job& job, std::size_t n) {
  job.delivered += n;
  if (job.delivered < job.cells || job.done_sent) return false;
  job.done_sent = true;
  return true;
}

void SweepService::worker_loop(std::size_t worker) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
    if (stopping_) return;  // pending cells are abandoned by design
    const std::string key = std::move(queue_.front());
    queue_.pop_front();
    const SimConfig config = inflight_.at(key).config;
    lock.unlock();

    const auto start = std::chrono::steady_clock::now();
    const SimResult result = run_sim(config);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    // Publish after timing: busy time is simulation work only.
    if (store_ != nullptr && !config.telemetry.writes_files()) {
      store_->put(key, store::canonical_config_text(config), result, wall);
    }

    lock.lock();
    worker_stats_[worker].busy_seconds += wall;
    ++worker_stats_[worker].runs;
    complete_locked(lock, key, result);
  }
}

void SweepService::complete_locked(std::unique_lock<std::mutex>& lock,
                                   const std::string& key, const SimResult& result) {
  // Take the subscriber list out of the in-flight table first: a submit
  // racing with this completion then starts a fresh entry (and, having
  // missed the store before our put, at worst re-runs the cell — wasted
  // work, never a wrong or missed delivery).
  auto node = inflight_.extract(key);
  if (node.empty()) return;

  struct Delivery {
    CellCallback on_cell;
    CellOutcome outcome;
  };
  std::vector<Delivery> deliveries;
  for (Subscriber& sub : node.mapped().subscribers) {
    Job& job = jobs_.at(sub.job);
    ++job.done;
    Delivery d;
    d.on_cell = job.on_cell;  // copy: invoked outside the lock
    d.outcome.job = sub.job;
    d.outcome.index = sub.index;
    d.outcome.label = std::move(sub.label);
    d.outcome.key = key;
    d.outcome.shared = sub.shared;
    d.outcome.result = result;
    deliveries.push_back(std::move(d));
  }

  ++delivering_;
  lock.unlock();
  for (const Delivery& d : deliveries) {
    if (d.on_cell) d.on_cell(d.outcome);
  }
  lock.lock();
  std::vector<DoneCallback> done_callbacks;
  std::vector<std::uint64_t> done_ids;
  for (const Delivery& d : deliveries) {
    Job& job = jobs_.at(d.outcome.job);
    if (delivered_locked(job, 1) && job.on_done) {
      done_callbacks.push_back(job.on_done);  // copy: invoked outside the lock
      done_ids.push_back(job.id);
    }
  }
  lock.unlock();
  for (std::size_t i = 0; i < done_callbacks.size(); ++i) {
    done_callbacks[i](done_ids[i]);
  }
  lock.lock();
  --delivering_;
  drain_cv_.notify_all();
}

std::vector<SweepService::JobStatus> SweepService::status() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<JobStatus> out;
  out.reserve(job_order_.size());
  for (const std::uint64_t id : job_order_) {
    const Job& job = jobs_.at(id);
    JobStatus s;
    s.id = job.id;
    s.name = job.name;
    s.cells = job.cells;
    s.done = job.done;
    s.store_hits = job.store_hits;
    s.complete = job.done == job.cells;
    out.push_back(std::move(s));
  }
  return out;
}

std::vector<SweepWorkerStats> SweepService::worker_stats() {
  std::lock_guard<std::mutex> lock(mu_);
  return worker_stats_;
}

void SweepService::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  drain_cv_.wait(lock, [&] {
    if (delivering_ > 0) return false;
    for (const auto& [id, job] : jobs_) {
      if (job.done < job.cells) return false;
    }
    return true;
  });
}

}  // namespace ibsim::sim
