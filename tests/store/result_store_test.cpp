#include "store/result_store.hpp"

#include "../sim/expect_identical.hpp"
#include "sim/experiment.hpp"
#include "store/key.hpp"
#include "store/serialize.hpp"
#include "store/version.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
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

  /// Records on disk: regular files under objects/.
  std::size_t object_count() const {
    std::size_t n = 0;
    for (const auto& entry : fs::recursive_directory_iterator(dir_ / "objects")) {
      if (entry.is_regular_file()) ++n;
    }
    return n;
  }

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
  ResultStore store(dir_string());
  ASSERT_TRUE(store.error().empty()) << store.error();

  const sim::SimConfig config = small_config(1);
  const sim::SimResult result = sim::run_sim(config);
  const std::string key = run_key(config);

  sim::SimResult cached;
  EXPECT_FALSE(store.get(key, &cached));
  store.put(key, canonical_config_text(config), result, 0.25);
  EXPECT_EQ(object_count(), 1u);

  ASSERT_TRUE(store.get(key, &cached));
  EXPECT_EQ(cached.delivered_bytes, result.delivered_bytes);
  EXPECT_EQ(cached.events_executed, result.events_executed);

  // The record keeps its provenance and config text for whoever reads
  // the file.
  std::ifstream in(dir_ / "objects" / key.substr(0, 2) / key, std::ios::binary);
  const std::string record{std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  EXPECT_NE(record.find("\nkey " + key + "\n"), std::string::npos);
  EXPECT_NE(record.find("\nversion " + std::string(code_version()) + "\n"), std::string::npos);
  EXPECT_NE(record.find("\nwall_seconds 0x1p-2\n"), std::string::npos);  // 0.25, as %a
  const std::string config_text = canonical_config_text(config);
  EXPECT_NE(record.find("\nconfig_bytes " + std::to_string(config_text.size()) + "\n" +
                        config_text + "result_bytes "),
            std::string::npos);

  // A second store on the same directory sees the record (cross-process
  // sharing is just cross-instance sharing of the same tree).
  ResultStore reopened(dir_string());
  EXPECT_TRUE(reopened.get(key, &cached));
  EXPECT_EQ(cached.delivered_bytes, result.delivered_bytes);
}

TEST_F(ResultStoreTest, MissesCountAndKeysList) {
  ResultStore store(dir_string());
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
  EXPECT_EQ(object_count(), 1u);
}

TEST_F(ResultStoreTest, TornRecordReadsAsMiss) {
  ResultStore store(dir_string());
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

TEST_F(ResultStoreTest, HugeListCountReadsAsMiss) {
  ResultStore store(dir_string());
  const sim::SimConfig config = small_config(1);
  const std::string key = run_key(config);
  const sim::SimResult result = sim::run_sim(config);
  store.put(key, canonical_config_text(config), result, 0.0);

  // Re-frame the record around a result whose rank_finish count no file
  // could hold, so only parse_result sees the damage: a corrupt record
  // must be a miss, not a process abort.
  std::string result_text = serialize_result(result);
  const std::string list = "\nrank_finish 0\n";
  const std::size_t at = result_text.find(list);
  ASSERT_NE(at, std::string::npos);
  result_text.replace(at, list.size(), "\nrank_finish 18446744073709551615\n");
  const fs::path object = dir_ / "objects" / key.substr(0, 2) / key;
  std::string record;
  {
    std::ifstream in(object);
    record.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  const std::size_t block = record.find("result_bytes ");
  ASSERT_NE(block, std::string::npos);
  record.resize(block);
  record += "result_bytes " + std::to_string(result_text.size()) + "\n" + result_text + "end\n";
  {
    std::ofstream out(object, std::ios::trunc);
    out << record;
  }
  sim::SimResult got;
  EXPECT_FALSE(store.get(key, &got));
  EXPECT_EQ(store.stats().misses, 1u);
  EXPECT_EQ(store.stats().bad_records, 1u);
}

TEST_F(ResultStoreTest, UnusableDirectoryDegradesToNoCache) {
  // A file where the directory should be: creation fails, and the store
  // must degrade to "no cache" rather than break the sweep.
  { std::ofstream out(dir_string()); }
  ResultStore store(dir_string() + "/sub");
  EXPECT_FALSE(store.error().empty());
  const sim::SimConfig config = small_config(1);
  sim::SimResult result;
  EXPECT_FALSE(store.get(run_key(config), &result));
  store.put(run_key(config), canonical_config_text(config), sim::run_sim(config), 0.0);
  EXPECT_FALSE(store.get(run_key(config), &result));
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
