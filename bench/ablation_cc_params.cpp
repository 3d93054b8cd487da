// Ablation benchmark for the CC design choices DESIGN.md calls out.
// The paper (and its companion hardware study [7]) stresses that the
// parameter values matter; this harness quantifies each knob on a
// mid-size instance of the Table II scenario (silent trees):
//
//   1. Threshold weight sweep (0..15) — when do switches detect?
//   2. Marking_Rate sweep — how densely to mark?
//   3. QP-level vs SL-level operation (section II.2's warning).
//   4. Victim_Mask on HCA ports on/off (endpoint-congestion roots).
//   5. CCT fill: geometric (default) vs linear.
//
//   ./ablation_cc_params [--full] [--seed=S]

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "analysis/table.hpp"
#include "sim/cli.hpp"
#include "sim/experiment.hpp"
#include "sim/simulation.hpp"

namespace {

using namespace ibsim;

sim::SimConfig base_config(std::uint64_t seed, bool full) {
  sim::SimConfig config;
  config.topology = sim::TopologyKind::FoldedClos;
  // 216-node instance of the DCS 648 shape: big enough for deep trees,
  // small enough to sweep many settings.
  config.clos = topo::FoldedClosParams::scaled(18, 9, full ? 18 : 12);
  config.sim_time = (full ? 24 : 8) * core::kMillisecond;
  config.warmup = config.sim_time / 2;
  config.seed = seed;
  config.cc = ib::CcParams::paper_table1();
  config.cc.ccti_increase = 4;  // quick-preset loop scale
  config.cc.ccti_timer = 38;
  config.scenario.fraction_b = 0.0;
  config.scenario.fraction_c_of_rest = 0.8;
  config.scenario.n_hotspots = 4;
  return config;
}

std::vector<std::string> result_row(const std::string& label, const sim::SimResult& r) {
  return {label, analysis::fmt(r.hotspot_rcv_gbps), analysis::fmt(r.non_hotspot_rcv_gbps),
          analysis::fmt(r.total_throughput_gbps, 1), std::to_string(r.fecn_marked)};
}

}  // namespace

int main(int argc, char** argv) {
  sim::Cli cli("ablation_cc_params: CC parameter ablations on silent trees");
  cli.add_flag("full", "larger instance and longer windows");
  cli.add_int("seed", 1, "random seed");
  if (!cli.parse(argc, argv)) return 0;
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const bool full = cli.flag("full");

  const sim::SimConfig base = base_config(seed, full);
  std::printf("ablation fabric: %d nodes, %s scenario\n\n", base.node_count(),
              base.scenario.describe().c_str());

  // Every row's config first, then one run_parallel call: the rows share
  // the sweep pool, and the seven rows that are the Table I config itself
  // run once.
  std::vector<std::pair<std::size_t, std::string>> sections;  // (first row, title)
  std::vector<std::string> labels;
  std::vector<sim::SimConfig> configs;
  const auto section = [&](const std::string& title) {
    sections.emplace_back(configs.size(), title);
  };
  const auto row = [&](const std::string& label, const sim::SimConfig& config) {
    labels.push_back(label);
    configs.push_back(config);
  };

  {
    sim::SimConfig off = base;
    off.cc.enabled = false;
    section("Baseline");
    row("CC off", off);
    row("CC on (Table I, weight 15)", base);
  }

  section("1. Threshold weight (0 = detection off, 15 = most aggressive)");
  for (const int weight : {0, 1, 4, 8, 12, 15}) {
    sim::SimConfig config = base;
    config.cc.threshold_weight = static_cast<std::uint8_t>(weight);
    row("weight " + std::to_string(weight), config);
  }

  section("2. Marking_Rate (mean eligible packets between marks)");
  for (const int rate : {0, 1, 3, 7, 15}) {
    sim::SimConfig config = base;
    config.cc.marking_rate = static_cast<std::uint16_t>(rate);
    row("marking rate " + std::to_string(rate), config);
  }

  section("3. CC operation level (section II.2)");
  {
    sim::SimConfig sl = base;
    sl.cc.sl_level = true;
    row("QP level (paper)", base);
    row("SL level", sl);
  }

  section("4. Victim_Mask on HCA-facing switch ports");
  {
    sim::SimConfig no_mask = base;
    no_mask.cc.victim_mask_hca_ports = false;
    row("mask on (paper)", base);
    row("mask off", no_mask);
  }

  section("5. CCT fill");
  {
    sim::SimConfig linear = base;
    linear.cc.cct_fill = ib::CctFill::Linear;
    row("geometric base 1.05 (default)", base);
    row("linear", linear);
  }

  section("6. Switch buffering per port (threshold scales with it)");
  for (const int kib : {8, 16, 32, 64, 128}) {
    sim::SimConfig config = base;
    config.fabric.switch_ibuf_data_bytes = kib * 1024;
    row("ibuf " + std::to_string(kib) + " KiB", config);
  }

  const std::vector<sim::SimResult> results = sim::run_parallel(configs);
  analysis::TextTable table(
      {"Setting", "Hotspot Gbps", "Non-hotspot Gbps", "Total Gbps", "FECN marks"});
  std::size_t next_section = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (next_section < sections.size() && sections[next_section].first == i) {
      table.add_section(sections[next_section++].second);
    }
    table.add_row(result_row(labels[i], results[i]));
  }

  table.print();
  std::printf(
      "\nreading guide: good settings keep the hotspot column near 13.6 while\n"
      "lifting the non-hotspot column towards its 2.7 Gb/s no-congestion level.\n");
  return 0;
}
