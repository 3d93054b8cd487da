#include "sim/config_file.hpp"

#include "sim/simulation.hpp"
#include "store/key.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <vector>

namespace ibsim::sim {
namespace {

TEST(ConfigFile, AppliesEveryCategory) {
  SimConfig config;
  const std::string err = apply_config_text(R"(
# topology
topology = mesh
mesh_rows = 5
mesh_cols = 6
mesh_nodes = 2

# traffic
fraction_b = 0.5
p_percent = 60
hotspots = 3
lifetime_us = 500
inject_gbps = 10

# congestion control
threshold_weight = 8
ccti_increase = 2
ccti_timer = 75
cct_fill = linear

# fabric
wire_gbps = 32
hca_inject_gbps = 27
hca_drain_gbps = 27.2
switch_ibuf_bytes = 65536

# run
sim_time_us = 2500
seed = 99
)",
                                            &config);
  ASSERT_TRUE(err.empty()) << err;
  EXPECT_EQ(config.topology, TopologyKind::Mesh2D);
  EXPECT_EQ(config.mesh_rows, 5);
  EXPECT_EQ(config.mesh_cols, 6);
  EXPECT_EQ(config.node_count(), 60);
  EXPECT_DOUBLE_EQ(config.scenario.fraction_b, 0.5);
  EXPECT_DOUBLE_EQ(config.scenario.p, 0.6);
  EXPECT_EQ(config.scenario.n_hotspots, 3);
  EXPECT_EQ(config.scenario.hotspot_lifetime, 500 * core::kMicrosecond);
  EXPECT_DOUBLE_EQ(config.scenario.capacity_gbps, 10.0);
  EXPECT_EQ(config.cc.threshold_weight, 8);
  EXPECT_EQ(config.cc.ccti_increase, 2);
  EXPECT_EQ(config.cc.ccti_timer, 75);
  EXPECT_EQ(config.cc.cct_fill, ib::CctFill::Linear);
  EXPECT_DOUBLE_EQ(config.fabric.wire_gbps, 32.0);
  EXPECT_EQ(config.fabric.switch_ibuf_data_bytes, 65536);
  EXPECT_EQ(config.sim_time, 2500 * core::kMicrosecond);
  EXPECT_EQ(config.seed, 99u);
}

TEST(ConfigFile, DefaultsUntouchedWhenEmpty) {
  SimConfig config;
  const SimConfig reference;
  EXPECT_TRUE(apply_config_text("", &config).empty());
  EXPECT_TRUE(apply_config_text("# only comments\n\n", &config).empty());
  EXPECT_EQ(config.node_count(), reference.node_count());
  EXPECT_EQ(config.cc.ccti_timer, reference.cc.ccti_timer);
}

TEST(ConfigFile, LifetimeZeroMeansStatic) {
  SimConfig config;
  config.scenario.hotspot_lifetime = core::kMillisecond;
  EXPECT_TRUE(apply_config_text("lifetime_us = 0\n", &config).empty());
  EXPECT_EQ(config.scenario.hotspot_lifetime, core::kTimeNever);
}

TEST(ConfigFile, BooleansFromIntegers) {
  SimConfig config;
  EXPECT_TRUE(apply_config_text("cc_enabled = 0\nsl_level = 1\ncut_through = 0\n",
                                &config)
                  .empty());
  EXPECT_FALSE(config.cc.enabled);
  EXPECT_TRUE(config.cc.sl_level);
  EXPECT_FALSE(config.fabric.cut_through);
}

TEST(ConfigFile, ReportsUnknownKeyWithLine) {
  SimConfig config;
  const std::string err = apply_config_text("seed = 1\nbogus = 2\n", &config);
  EXPECT_NE(err.find("line 2"), std::string::npos);
  EXPECT_NE(err.find("bogus"), std::string::npos);
}

TEST(ConfigFile, SuggestsNearbyKeyForTypos) {
  SimConfig config;
  // One transposition away from 'hotspots'.
  std::string err = apply_config_text("hotspost = 3\n", &config);
  EXPECT_NE(err.find("unknown key 'hotspost'"), std::string::npos) << err;
  EXPECT_NE(err.find("did you mean 'hotspots'"), std::string::npos) << err;
  // A dropped character still suggests.
  err = apply_config_text("sim_time_u = 100\n", &config);
  EXPECT_NE(err.find("did you mean 'sim_time_us'"), std::string::npos) << err;
  // Nothing near: no far-fetched suggestion.
  err = apply_config_text("quux_frobnicate = 1\n", &config);
  EXPECT_NE(err.find("unknown key"), std::string::npos);
  EXPECT_EQ(err.find("did you mean"), std::string::npos) << err;
}

TEST(ConfigFile, ResultStoreKeyApplies) {
  SimConfig config;
  EXPECT_TRUE(apply_config_text("result_store = /var/cache/ibsim\n", &config).empty());
  EXPECT_EQ(config.result_store, "/var/cache/ibsim");
  // And a typo of it gets the suggestion.
  const std::string err = apply_config_text("result_stor = x\n", &config);
  EXPECT_NE(err.find("did you mean 'result_store'"), std::string::npos) << err;
}

TEST(ConfigFile, ThreadsAndShardsKeysApply) {
  // One knob surface: the config-file `threads` key feeds both sweep
  // workers and intra-run shard workers; `shards` picks the intra-run
  // partition count (0 parses, and sim::check_config rejects it).
  SimConfig config;
  EXPECT_TRUE(apply_config_text("threads = 4\nshards = 2\n", &config).empty());
  EXPECT_EQ(config.threads, 4);
  EXPECT_EQ(config.shards, 2);
  EXPECT_TRUE(apply_config_text("shards = 0\n", &config).empty());
  EXPECT_EQ(config.shards, 0);
  // Strict parse: garbage and negative counts are hard errors (the
  // IBSIM_THREADS exit-2 discipline), never silent fallbacks.
  EXPECT_NE(apply_config_text("threads = -2\n", &config).find("non-negative"),
            std::string::npos);
  EXPECT_NE(apply_config_text("shards = many\n", &config).find("non-negative"),
            std::string::npos);
  EXPECT_NE(apply_config_text("thread = 4\n", &config).find("did you mean 'threads'"),
            std::string::npos);
}

TEST(ConfigFile, ReportsMalformedLine) {
  SimConfig config;
  EXPECT_NE(apply_config_text("no equals sign\n", &config).find("line 1"),
            std::string::npos);
  EXPECT_NE(apply_config_text("seed =\n", &config).find("empty"), std::string::npos);
  EXPECT_NE(apply_config_text("seed = abc\n", &config).find("integer"), std::string::npos);
  EXPECT_NE(apply_config_text("topology = ring\n", &config).find("unknown topology"),
            std::string::npos);
}

TEST(ConfigFile, RejectsOutOfRangeIntegers) {
  // Each value used to wrap or overflow into a different setting; now
  // it fails on its line, naming the key, and leaves the config alone.
  const struct {
    const char* key;
    const char* value;
  } cases[] = {
      {"threshold_weight", "256"},                // wrapped to 0: marking off
      {"ccti_timer", "65536"},                    // wrapped to 0
      {"n_vls", "4294967298"},                    // wrapped to 2
      {"seed", "-1"},                             // wrapped to 2^64-1
      {"sim_time_us", "99999999999999999999"},    // overflowed to -1 us
      {"sim_time_us", "9223372036855"},           // overflows int64 picoseconds
  };
  const std::string defaults = store::canonical_config_text(SimConfig{});
  for (const auto& c : cases) {
    SimConfig config;
    const std::string text = std::string("# out of range\n") + c.key + " = " + c.value + "\n";
    const std::string err = apply_config_text(text, &config);
    EXPECT_EQ(err.rfind("line 2: value " + std::string(c.value) + " out of range for '" +
                            c.key + "'",
                        0),
              0u)
        << text << " -> " << err;
    EXPECT_EQ(store::canonical_config_text(config), defaults) << text;
  }
  // The largest values that do fit still parse.
  SimConfig config;
  ASSERT_EQ(apply_config_text("threshold_weight = 255\nccti_timer = 65535\n"
                              "seed = 18446744073709551615\nsim_time_us = 9223372036854\n",
                              &config),
            "");
  EXPECT_EQ(config.cc.threshold_weight, 255);
  EXPECT_EQ(config.cc.ccti_timer, 65535);
  EXPECT_EQ(config.seed, 18446744073709551615u);
  EXPECT_EQ(config.sim_time, 9223372036854 * core::kMicrosecond);
}

/// Parse `args` as simulate's command line.
bool parse_flags(Cli* cli, std::vector<const char*> args) {
  args.insert(args.begin(), "simulate");
  return cli->parse(static_cast<int>(args.size()), const_cast<char**>(args.data()));
}

TEST(ConfigFile, FlagsOverrideTheFileOnlyWhenGiven) {
  SimConfig config;
  ASSERT_EQ(apply_config_text(R"(
topology = mesh
mesh_rows = 2
mesh_cols = 2
cc_enabled = 0
sim_time_us = 300
seed = 9
hotspots = 2
)",
                              &config),
            "");
  Cli cli("test");
  add_config_flags(&cli, SimConfig{});
  ASSERT_TRUE(parse_flags(&cli, {"--seed=5", "--cc-algo", "dcqcn", "--p-percent=20"}));
  ASSERT_EQ(apply_config_flags(cli, &config), "");

  // Every value the file set survives the flags' defaults...
  EXPECT_EQ(config.topology, TopologyKind::Mesh2D);
  EXPECT_EQ(config.node_count(), 2 * 2 * 4);
  EXPECT_FALSE(config.cc.enabled);
  EXPECT_EQ(config.sim_time, 300 * core::kMicrosecond);
  EXPECT_EQ(config.scenario.n_hotspots, 2);
  // ...and the flags given on the command line win.
  EXPECT_EQ(config.seed, 5u);
  EXPECT_EQ(config.cc_algo, "dcqcn");
  EXPECT_DOUBLE_EQ(config.scenario.p, 0.2);
}

TEST(ConfigFile, BadFlagValueNamesTheFlag) {
  SimConfig config;
  Cli cli("test");
  add_config_flags(&cli, config);
  ASSERT_TRUE(parse_flags(&cli, {"--threshold-weight=256"}));
  const std::string err = apply_config_flags(cli, &config);
  EXPECT_NE(err.find("--threshold-weight=256: "), std::string::npos) << err;
  EXPECT_NE(err.find("out of range"), std::string::npos) << err;
  EXPECT_EQ(config.cc.threshold_weight, 15);
}

TEST(ConfigFile, CcAlgoKeyApplies) {
  SimConfig config;
  EXPECT_TRUE(apply_config_text("cc_algo = dcqcn\n", &config).empty());
  EXPECT_EQ(config.cc_algo, "dcqcn");
  EXPECT_TRUE(apply_config_text("cc_algo = none\n", &config).empty());
  EXPECT_EQ(config.cc_algo, "none");
}

TEST(ConfigFile, UnknownCcAlgoListsValidNames) {
  SimConfig config;
  const std::string err = apply_config_text("seed = 1\ncc_algo = tcp_reno\n", &config);
  EXPECT_NE(err.find("line 2"), std::string::npos);
  EXPECT_NE(err.find("tcp_reno"), std::string::npos);
  EXPECT_NE(err.find("valid:"), std::string::npos);
  // The valid set enumerates every registered algorithm.
  EXPECT_NE(err.find("iba_a10"), std::string::npos);
  EXPECT_NE(err.find("dcqcn"), std::string::npos);
  EXPECT_NE(err.find("aimd"), std::string::npos);
  EXPECT_NE(err.find("none"), std::string::npos);
  // And the config keeps its default.
  EXPECT_EQ(config.cc_algo, "iba_a10");
}

TEST(ConfigFile, DuplicateKeyRejectedWithBothLines) {
  SimConfig config;
  const std::string err = apply_config_text("seed = 1\nhotspots = 2\nseed = 3\n", &config);
  EXPECT_NE(err.find("line 3"), std::string::npos);
  EXPECT_NE(err.find("duplicate key 'seed'"), std::string::npos);
  EXPECT_NE(err.find("line 1"), std::string::npos);
}

TEST(ConfigFile, SeparateApplicationsMayRepeatKeys) {
  // Duplicate detection is per document: layering a second config file
  // (or CLI-style overrides) on top stays legal.
  SimConfig config;
  EXPECT_TRUE(apply_config_text("seed = 1\n", &config).empty());
  EXPECT_TRUE(apply_config_text("seed = 2\n", &config).empty());
  EXPECT_EQ(config.seed, 2u);
}

TEST(ConfigFile, WorkloadKeysApply) {
  SimConfig config;
  const std::string err = apply_config_text(R"(
workload = incast
workload_ranks = 12
workload_bytes = 131072
workload_iters = 3
workload_compute_us = 5
workload_background = 0
)",
                                            &config);
  ASSERT_TRUE(err.empty()) << err;
  EXPECT_TRUE(config.workload.active());
  EXPECT_EQ(config.workload.name, "incast");
  EXPECT_EQ(config.workload.ranks, 12);
  EXPECT_EQ(config.workload.message_bytes, 131072);
  EXPECT_EQ(config.workload.iterations, 3);
  EXPECT_EQ(config.workload.compute, 5 * core::kMicrosecond);
  EXPECT_FALSE(config.workload.background_uniform);
}

TEST(ConfigFile, UnknownWorkloadListsValidNames) {
  SimConfig config;
  const std::string err = apply_config_text("seed = 1\nworkload = lammps\n", &config);
  EXPECT_NE(err.find("line 2"), std::string::npos);
  EXPECT_NE(err.find("lammps"), std::string::npos);
  EXPECT_NE(err.find("valid:"), std::string::npos);
  EXPECT_NE(err.find("incast"), std::string::npos);
  EXPECT_NE(err.find("ring_allreduce"), std::string::npos);
  EXPECT_FALSE(config.workload.active());
}

TEST(ConfigFile, WorkloadFileKeyAccepted) {
  SimConfig config;
  EXPECT_TRUE(
      apply_config_text("workload = file\nworkload_file = w.wl\n", &config).empty());
  EXPECT_EQ(config.workload.name, "file");
  EXPECT_EQ(config.workload.file, "w.wl");
}

TEST(ConfigFile, CommentsAndWhitespaceTolerated) {
  SimConfig config;
  EXPECT_TRUE(
      apply_config_text("   seed=42   # trailing comment\n\t hotspots\t=\t7\n", &config)
          .empty());
  EXPECT_EQ(config.seed, 42u);
  EXPECT_EQ(config.scenario.n_hotspots, 7);
}

TEST(ConfigFile, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/ibsim_config_test.conf";
  {
    std::ofstream out(path);
    out << "topology = dumbbell\ndumbbell_nodes = 6\nseed = 5\n";
  }
  SimConfig config;
  EXPECT_TRUE(apply_config_file(path, &config).empty());
  EXPECT_EQ(config.topology, TopologyKind::Dumbbell);
  EXPECT_EQ(config.node_count(), 12);
  std::remove(path.c_str());
}

TEST(ConfigFile, MissingFileReported) {
  SimConfig config;
  EXPECT_NE(apply_config_file("/nonexistent/ibsim.conf", &config).find("cannot open"),
            std::string::npos);
}

TEST(ConfigFile, LoadedConfigRunsEndToEnd) {
  SimConfig config;
  ASSERT_TRUE(apply_config_text(R"(
topology = single
single_nodes = 6
fraction_c = 0.5
hotspots = 1
sim_time_us = 500
warmup_us = 100
)",
                                &config)
                  .empty());
  const SimResult r = run_sim(config);
  EXPECT_GT(r.delivered_bytes, 0);
}

}  // namespace
}  // namespace ibsim::sim
