#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "sim/simulation.hpp"

namespace ibsim::store {

/// On-disk, content-addressed store of simulation results.
///
/// Layout under the store directory:
///
///   objects/<key[0:2]>/<key>   one record per run (see result_store.cpp)
///   tmp/                       in-flight writes before publication
///   index.tsv                  append-only log: key, version, time, host
///
/// Publishing is write-then-rename: a record is materialised in tmp/ and
/// renamed into objects/, so readers — concurrent threads or other
/// processes sharing the directory — only ever observe absent or
/// complete records. A record that fails validation (torn write from a
/// crashed producer, version drift in the format) reads as a miss and
/// is overwritten by the next producer. Concurrent producers of the
/// same key race benignly: both write equivalent records and the last
/// rename wins.
///
/// get/put are thread-safe. Instances are usually shared through
/// StoreRegistry so a sweep's workers and its harness count stats on
/// the same object.
class ResultStore {
 public:
  /// Opens (and creates, if needed) the store directory. Throws nothing:
  /// a directory that cannot be created leaves the store in an error
  /// state where every get misses and every put is dropped (error()
  /// tells why) — a broken cache must degrade to "no cache", never
  /// break the sweep.
  explicit ResultStore(std::string dir);

  /// Look up a run by key. On a hit fills `*result` and returns true.
  bool get(const std::string& key, sim::SimResult* result);

  /// Publish a run. `config_text` is the canonical config
  /// (store/key.hpp) kept for provenance and debugging; `wall_seconds`
  /// is how long the simulation took to compute.
  void put(const std::string& key, const std::string& config_text,
           const sim::SimResult& result, double wall_seconds);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t puts = 0;
    std::uint64_t bad_records = 0;  ///< torn/invalid records encountered
  };
  [[nodiscard]] Stats stats() const;

  /// One-line human summary: "store <dir>: hits=H misses=M puts=P ...",
  /// or "store <dir>: disabled: <why>" when error() is set.
  [[nodiscard]] std::string stats_line() const;

  [[nodiscard]] const std::string& dir() const { return dir_; }
  /// Empty when the store is usable; otherwise why it is disabled.
  [[nodiscard]] const std::string& error() const { return error_; }

 private:
  [[nodiscard]] std::string object_path(const std::string& key) const;

  std::string dir_;
  std::string error_;
  std::mutex write_mu_;  // serializes puts within this process
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> puts_{0};
  std::atomic<std::uint64_t> bad_records_{0};
  std::atomic<std::uint64_t> tmp_seq_{0};
};

/// Process-wide directory-keyed registry of open stores, so every
/// subsystem touching `--result-store=DIR` (run_parallel and the front
/// ends reporting its stats) shares one ResultStore per directory
/// and its stats aggregate in one place.
class StoreRegistry {
 public:
  static StoreRegistry& instance();

  /// Get-or-open the store at `dir` (normalized lexically).
  [[nodiscard]] std::shared_ptr<ResultStore> open(const std::string& dir);

  /// Drop registry references (open stores stay valid for holders).
  void clear();

 private:
  StoreRegistry() = default;
  std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<ResultStore>> stores_;
};

/// Print the stats_line() of the registry's store at `dir` to stderr, so
/// a front end's stdout stays byte-identical between cold and warm runs.
/// No-op for an empty `dir` (no store).
void report_stats(const std::string& dir);

}  // namespace ibsim::store
