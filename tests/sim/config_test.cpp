#include "sim/sim_config.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>

#include "sim/config_file.hpp"
#include "sim/experiment.hpp"

namespace ibsim::sim {
namespace {

TEST(SimConfig, NodeCountPerTopology) {
  SimConfig config;
  config.topology = TopologyKind::FoldedClos;
  EXPECT_EQ(config.node_count(), 648);
  config.topology = TopologyKind::SingleSwitch;
  config.single_switch_nodes = 12;
  EXPECT_EQ(config.node_count(), 12);
  config.topology = TopologyKind::LinearChain;
  config.chain_switches = 3;
  config.chain_nodes_per_switch = 4;
  EXPECT_EQ(config.node_count(), 12);
  config.topology = TopologyKind::Dumbbell;
  config.dumbbell_nodes_per_side = 5;
  EXPECT_EQ(config.node_count(), 10);
}

TEST(SimConfig, DescribeMentionsKeyFacts) {
  SimConfig config;
  const std::string desc = config.describe();
  EXPECT_EQ(desc.rfind("clos (648 nodes)", 0), 0u) << desc;
  EXPECT_NE(desc.find("CC on"), std::string::npos);
  EXPECT_NE(desc.find("iba_a10"), std::string::npos);
}

TEST(SimConfig, DescribeNamesTheSelectedAlgorithm) {
  SimConfig config;
  config.cc_algo = "dcqcn";
  EXPECT_NE(config.describe().find("CC on (dcqcn)"), std::string::npos);
  config.cc.enabled = false;
  EXPECT_NE(config.describe().find("CC off"), std::string::npos);
  EXPECT_EQ(config.describe().find("dcqcn"), std::string::npos);
}

TEST(SimConfig, TopologyNames) {
  // describe() spells each kind as config files and flags do.
  const std::pair<TopologyKind, std::string> kinds[] = {
      {TopologyKind::SingleSwitch, "single"}, {TopologyKind::FoldedClos, "clos"},
      {TopologyKind::LinearChain, "chain"},   {TopologyKind::Dumbbell, "dumbbell"},
      {TopologyKind::Mesh2D, "mesh"},         {TopologyKind::FatTree3, "fat-tree3"},
  };
  for (const auto& [kind, text] : kinds) {
    SimConfig config;
    ASSERT_TRUE(apply_config_text("topology = " + text, &config).empty()) << text;
    EXPECT_EQ(config.topology, kind) << text;
    EXPECT_EQ(config.describe().rfind(text + " (", 0), 0u) << config.describe();
  }
}

TEST(SimConfig, DefaultsMatchPaperSetup) {
  SimConfig config;
  EXPECT_EQ(config.clos.node_count(), 648);
  EXPECT_TRUE(config.cc.enabled);
  EXPECT_EQ(config.cc.ccti_timer, 150);
  EXPECT_DOUBLE_EQ(config.fabric.hca_inject_gbps, 13.5);
  EXPECT_DOUBLE_EQ(config.fabric.hca_drain_gbps, 13.6);
}

TEST(CheckConfig, BuildableConfigsPass) {
  EXPECT_EQ(check_config(SimConfig{}), "");
  EXPECT_EQ(check_config(ExperimentPreset::quick().base_config()), "");
  SimConfig config;
  ASSERT_EQ(apply_config_text("topology = single\nhotspots = 8\nworkload = incast\n", &config),
            "");
  EXPECT_EQ(check_config(config), "");
  // An idle workload sends nothing, so one rank is enough.
  SimConfig idle;
  ASSERT_EQ(apply_config_text("topology = single\nworkload = idle\nworkload_ranks = 1\n", &idle),
            "");
  EXPECT_EQ(check_config(idle), "");
  // Switches exactly at the 64-port limit: one crossbar, and the 10k
  // fat-tree's aggregation and core switches.
  SimConfig widest;
  ASSERT_EQ(apply_config_text("topology = single\nsingle_nodes = 64\n", &widest), "");
  EXPECT_EQ(check_config(widest), "");
  widest.topology = TopologyKind::FatTree3;
  widest.fat_tree3 = topo::FatTree3Params::scale_10k();
  EXPECT_EQ(check_config(widest), "");
  // The linear CCT fill ignores cct_base, whatever it reads.
  SimConfig linear;
  ASSERT_EQ(apply_config_text("cct_fill = linear\ncct_base = nan\n", &linear), "");
  EXPECT_EQ(check_config(linear), "");
}

TEST(CheckConfig, NamesTheFirstBrokenPrecondition) {
  const std::string sixteen_ranks = ::testing::TempDir() + "/check_config_16_ranks.wl";
  std::ofstream(sixteen_ranks) << "ranks 16\nop src 0 dst 15 bytes 4096\n";
  // One case per precondition a settable key can break: config text in
  // the config-file vocabulary, and a fragment of the expected message.
  const std::pair<std::string, std::string> cases[] = {
      {"topology = single\nsingle_nodes = 1", "single_nodes"},
      {"clos_spines = 0", "clos_spines"},
      {"topology = chain\nchain_switches = 1", "chain_switches"},
      {"topology = chain\nchain_nodes = 0", "chain_nodes"},
      {"topology = dumbbell\ndumbbell_nodes = 0", "dumbbell_nodes"},
      {"topology = fat-tree3\nft3_cores = 0", "ft3_cores"},
      {"topology = mesh\nmesh_rows = 1\nmesh_cols = 1", "mesh_rows"},
      {"topology = mesh\nmesh_nodes = 0", "mesh_nodes"},
      {"clos_leaves = 1\nclos_nodes_per_leaf = 1", "at least 2 end nodes"},
      {"fraction_b = 2", "fraction_b"},
      {"p_percent = 150", "p_percent"},
      {"topology = single\nsingle_nodes = 4", "hotspots = 8"},
      {"workload = file", "workload_file"},
      {"workload = file\nworkload_file = /nonexistent/w.wl", "workload_file: "},
      {"topology = single\nworkload = file\nworkload_file = " + sixteen_ranks, "16 ranks"},
      {"topology = single\nworkload = incast\nworkload_ranks = 16", "16 ranks"},
      // What the canned builders and the workload engine assert.
      {"topology = single\nworkload = incast\nworkload_ranks = 1", "workload_ranks"},
      {"topology = single\nworkload = stencil\nworkload_ranks = 1", "workload_ranks"},
      {"topology = single\nworkload = tree_allreduce\nworkload_ranks = 1", "workload_ranks"},
      {"topology = single\nworkload = all_to_all\nworkload_ranks = 1", "workload_ranks"},
      {"topology = single\nworkload = ring_allreduce\nworkload_ranks = 1", "workload_ranks"},
      {"topology = single\nworkload = incast\nworkload_ranks = 4\nworkload_bytes = 0",
       "workload_bytes"},
      {"topology = single\nworkload = incast\nworkload_ranks = 4\nworkload_iters = 2\n"
       "workload_compute_us = -5",
       "workload_compute_us"},
      {"ccti_timer = 0", "ccti_timer"},
      {"hca_inject_gbps = 100", "injection pacing"},
      // Rates must be finite, positive, and fast enough that an MTU's
      // transmit time fits core::Time.
      {"wire_gbps = nan", "wire_gbps"},
      {"wire_gbps = inf", "wire_gbps"},
      {"hca_inject_gbps = nan", "hca_inject_gbps"},
      {"hca_drain_gbps = nan", "hca_drain_gbps"},
      {"hca_drain_gbps = 1e-300", "hca_drain_gbps"},
      {"fraction_b = 1\ninject_gbps = 0", "inject_gbps"},
      {"fraction_b = 1\ninject_gbps = nan", "inject_gbps"},
      {"fraction_b = 1\ninject_gbps = -5", "inject_gbps"},
      // The geometric CCT needs a finite base above 1, CC on or off.
      {"cct_base = nan", "cct_base"},
      {"cct_base = 0", "cct_base"},
      {"cc_enabled = 0\ncct_base = 0", "cct_base"},
      {"counters_csv = out.csv\ntelemetry_sample_us = 0", "telemetry_sample_us"},
      {"shards = 0", "shards must be at least 1"},
      // One switch wider than the 64-port limit per builder and switch
      // role, each 65 ports or more.
      {"topology = single\nsingle_nodes = 65", "at most 64 ports"},
      {"clos_nodes_per_leaf = 47", "65-port switch"},  // leaf: 47 + 18 spines
      {"clos_leaves = 65", "65-port switch"},          // spine: one port per leaf
      {"topology = fat-tree3\nft3_nodes_per_leaf = 63", "65-port switch"},  // leaf
      {"topology = fat-tree3\nft3_cores = 63", "65-port switch"},           // aggregation
      {"topology = fat-tree3\nft3_pods = 33", "66-port switch"},            // core
      {"topology = chain\nchain_nodes = 63", "65-port switch"},
      {"topology = dumbbell\ndumbbell_nodes = 64", "65-port switch"},
      {"topology = mesh\nmesh_rows = 2\nmesh_cols = 2\nmesh_nodes = 61", "65-port switch"},
      // Rejected by width before the node count multiplies past int32.
      {"topology = fat-tree3\nft3_pods = 2000000000\nft3_aggs_per_pod = 2000000000",
       "4000000000000000000-port switch"},
  };
  for (const auto& [text, expected] : cases) {
    SimConfig config;
    ASSERT_EQ(apply_config_text(text, &config), "") << text;
    const std::string err = check_config(config);
    EXPECT_NE(err.find(expected), std::string::npos) << text << " -> '" << err << "'";
  }
  std::remove(sixteen_ranks.c_str());
}

TEST(CheckConfig, RejectsNonPositiveMovingLifetime) {
  // The text keys read lifetime_us = 0 as static hotspots; only a config
  // built in code can hold a lifetime of zero or less.
  for (const core::Time lifetime : {core::Time{0}, core::Time{-1}}) {
    SimConfig config;
    config.scenario.hotspot_lifetime = lifetime;
    EXPECT_NE(check_config(config).find("lifetime_us"), std::string::npos) << lifetime;
  }
  SimConfig moving;
  moving.scenario.hotspot_lifetime = 1;
  EXPECT_EQ(check_config(moving), "");
}

TEST(ExperimentPreset, QuickScalesLoopConsistently) {
  const ExperimentPreset quick = ExperimentPreset::quick();
  const ExperimentPreset paper = ExperimentPreset::paper();
  // The quick preset's CCTI loop runs 4x faster...
  EXPECT_EQ(quick.base.cc.ccti_increase, 4 * paper.base.cc.ccti_increase);
  EXPECT_NEAR(static_cast<double>(paper.base.cc.ccti_timer) / quick.base.cc.ccti_timer, 4.0,
              0.1);
  // ...and its lifetime axis is compressed by the same factor.
  ASSERT_EQ(quick.lifetimes.size(), paper.lifetimes.size());
  for (std::size_t i = 0; i < quick.lifetimes.size(); ++i) {
    EXPECT_EQ(paper.lifetimes[i], 4 * quick.lifetimes[i]);
  }
}

TEST(ExperimentPreset, PaperUsesTable1Values) {
  const ExperimentPreset paper = ExperimentPreset::paper();
  const SimConfig config = paper.base_config();
  EXPECT_EQ(config.cc.ccti_increase, 1);
  EXPECT_EQ(config.cc.ccti_timer, 150);
  EXPECT_EQ(config.cc.ccti_limit, 127);
}

TEST(ExperimentPreset, BaseConfigCarriesTiming) {
  ExperimentPreset preset = ExperimentPreset::quick();
  preset.base.seed = 77;
  const SimConfig config = preset.base_config();
  EXPECT_EQ(config.sim_time, 10 * core::kMillisecond);
  EXPECT_EQ(config.warmup, 5 * core::kMillisecond);
  EXPECT_EQ(config.seed, 77u);
  EXPECT_EQ(config.topology, TopologyKind::FoldedClos);
  EXPECT_EQ(config.clos.node_count(), 648);
}

TEST(ExperimentPreset, PValuesCoverPaperAxis) {
  const ExperimentPreset preset = ExperimentPreset::quick();
  ASSERT_FALSE(preset.p_values.empty());
  EXPECT_DOUBLE_EQ(preset.p_values.front(), 0.0);
  EXPECT_DOUBLE_EQ(preset.p_values.back(), 1.0);
}

}  // namespace
}  // namespace ibsim::sim
