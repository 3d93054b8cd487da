#include "store/result_store.hpp"

#include "../sim/expect_identical.hpp"
#include "sim/experiment.hpp"
#include "store/key.hpp"
#include "store/version.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

namespace ibsim::store {
namespace {

namespace fs = std::filesystem;

class ResultStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("ibsim_store_test_" +
            std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override {
    fs::remove_all(dir_);
    StoreRegistry::instance().clear();
  }

  std::string dir_string() const { return dir_.string(); }

  static sim::SimConfig small_config(std::uint64_t seed) {
    sim::SimConfig config;
    config.topology = sim::TopologyKind::SingleSwitch;
    config.single_switch_nodes = 6;
    config.sim_time = 200 * core::kMicrosecond;
    config.warmup = 0;
    config.scenario.n_hotspots = 1;
    config.seed = seed;
    return config;
  }

  fs::path dir_;
};

TEST_F(ResultStoreTest, PutGetRoundTripWithProvenance) {
  ResultStore store({dir_string(), 0});
  ASSERT_TRUE(store.error().empty()) << store.error();

  const sim::SimConfig config = small_config(1);
  const sim::SimResult result = sim::run_sim(config);
  const std::string key = run_key(config);

  EXPECT_FALSE(store.contains(key));
  store.put(key, canonical_config_text(config), result, 0.25);
  EXPECT_TRUE(store.contains(key));
  EXPECT_EQ(store.entries(), 1u);

  RunRecord record;
  ASSERT_TRUE(store.get_record(key, &record));
  EXPECT_EQ(record.key, key);
  EXPECT_EQ(record.config_text, canonical_config_text(config));
  EXPECT_EQ(record.provenance.code_version, code_version());
  EXPECT_DOUBLE_EQ(record.provenance.wall_seconds, 0.25);
  EXPECT_EQ(record.result.delivered_bytes, result.delivered_bytes);
  EXPECT_EQ(record.result.events_executed, result.events_executed);

  // A second store on the same directory sees the record (cross-process
  // sharing is just cross-instance sharing of the same tree).
  ResultStore reopened({dir_string(), 0});
  sim::SimResult cached;
  EXPECT_TRUE(reopened.get(key, &cached));
  EXPECT_EQ(cached.delivered_bytes, result.delivered_bytes);
}

TEST_F(ResultStoreTest, MissesCountAndKeysList) {
  ResultStore store({dir_string(), 0});
  sim::SimResult result;
  EXPECT_FALSE(store.get("0000000000000000000000000000000000000000000000000000000000000000",
                         &result));
  EXPECT_EQ(store.stats().misses, 1u);
  EXPECT_EQ(store.stats().hits, 0u);

  const sim::SimConfig config = small_config(1);
  const std::string key = run_key(config);
  store.put(key, canonical_config_text(config), sim::run_sim(config), 0.0);
  EXPECT_TRUE(store.get(key, &result));
  EXPECT_EQ(store.stats().hits, 1u);
  EXPECT_EQ(store.stats().puts, 1u);
  EXPECT_EQ(store.keys(), std::vector<std::string>{key});
}

TEST_F(ResultStoreTest, TornRecordReadsAsMiss) {
  ResultStore store({dir_string(), 0});
  const sim::SimConfig config = small_config(1);
  const std::string key = run_key(config);
  store.put(key, canonical_config_text(config), sim::run_sim(config), 0.0);

  // Corrupt the record in place — a torn write from a crashed producer.
  const fs::path object = dir_ / "objects" / key.substr(0, 2) / key;
  ASSERT_TRUE(fs::exists(object));
  {
    std::ofstream out(object, std::ios::trunc);
    out << "ibsim-store-record-v1\ngarbage";
  }
  sim::SimResult result;
  EXPECT_FALSE(store.get(key, &result));
  EXPECT_GE(store.stats().bad_records, 1u);

  // The next producer overwrites it and it reads cleanly again.
  store.put(key, canonical_config_text(config), sim::run_sim(config), 0.0);
  EXPECT_TRUE(store.get(key, &result));
}

TEST_F(ResultStoreTest, EvictionKeepsStoreBounded) {
  ResultStore store({dir_string(), 2});
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const sim::SimConfig config = small_config(seed);
    store.put(run_key(config), canonical_config_text(config), sim::run_sim(config), 0.0);
  }
  EXPECT_LE(store.entries(), 2u);
  EXPECT_GE(store.stats().evictions, 2u);
}

TEST_F(ResultStoreTest, UnusableDirectoryDegradesToNoCache) {
  // A file where the directory should be: creation fails, and the store
  // must degrade to "no cache" rather than break the sweep.
  { std::ofstream out(dir_string()); }
  ResultStore store({dir_string() + "/sub", 0});
  EXPECT_FALSE(store.error().empty());
  const sim::SimConfig config = small_config(1);
  sim::SimResult result;
  EXPECT_FALSE(store.get(run_key(config), &result));
  store.put(run_key(config), canonical_config_text(config), sim::run_sim(config), 0.0);
  EXPECT_FALSE(store.contains(run_key(config)));
  // The front ends' one stats line is where the user learns why.
  EXPECT_EQ(store.stats_line(), "store " + dir_string() + "/sub: disabled: " + store.error());
}

TEST_F(ResultStoreTest, RegistrySharesOneStorePerDirectory) {
  const auto a = StoreRegistry::instance().open(dir_string());
  const auto b = StoreRegistry::instance().open(dir_string() + "/.");
  EXPECT_EQ(a.get(), b.get());
}

TEST_F(ResultStoreTest, RunParallelWarmSweepIsAllHits) {
  std::vector<sim::SimConfig> configs;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    sim::SimConfig config = small_config(seed);
    config.result_store = dir_string();
    configs.push_back(config);
  }

  sim::SweepReport cold;
  const std::vector<sim::SimResult> fresh = sim::run_parallel(configs, 2, &cold);
  EXPECT_EQ(cold.store_hits, 0u);
  EXPECT_EQ(cold.store_misses, 3u);

  // The warm pass starts no simulation at all: no worker is spawned, and
  // every result comes back from disk field for field.
  sim::SweepReport warm;
  const std::vector<sim::SimResult> cached = sim::run_parallel(configs, 2, &warm);
  EXPECT_EQ(warm.store_hits, 3u);
  EXPECT_EQ(warm.store_misses, 0u);
  EXPECT_TRUE(warm.workers.empty());
  ASSERT_EQ(cached.size(), fresh.size());
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    sim::expect_identical(cached[i], fresh[i], "seed " + std::to_string(i + 1));
  }
}

TEST_F(ResultStoreTest, RunParallelResumesInterruptedSweep) {
  std::vector<sim::SimConfig> configs;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    sim::SimConfig config = small_config(seed);
    config.result_store = dir_string();
    configs.push_back(config);
  }

  // A campaign killed after one cell: only that cell is on disk.
  (void)sim::run_parallel({configs[0]}, 1);

  // The rerun computes exactly the two missing cells.
  sim::SweepReport report;
  const std::vector<sim::SimResult> results = sim::run_parallel(configs, 2, &report);
  EXPECT_EQ(report.store_hits, 1u);
  EXPECT_EQ(report.store_misses, 2u);
  EXPECT_EQ(results.size(), 3u);
  for (const sim::SimResult& r : results) EXPECT_GT(r.delivered_bytes, 0);
}

}  // namespace
}  // namespace ibsim::store
