// Extension experiment (not a paper figure): the paper's conclusion
// leaves open whether the Table I parameter set carries over from
// fat-trees to meshes ("Regarding Tori or Meshes, the picture is more
// unclear, thus this question should form the basis for further
// research"). This bench takes the first step on that question: the
// silent-forest and windy scenarios on a 2D mesh with dimension-order
// routing, comparing the same parameter set with CC off and on.
//
// Meshes lack the path diversity of the fat-tree, so congestion trees
// spread along shared dimension-ordered paths and block far more
// traffic per tree — watch both the deeper no-CC collapse and what CC
// recovers.
//
//   ./ext_mesh_cc [--rows=R] [--cols=C] [--nodes=N] [--full] [--seed=S]

#include <cstdio>

#include "analysis/table.hpp"
#include "sim/cli.hpp"
#include "sim/config_file.hpp"
#include "sim/simulation.hpp"

int main(int argc, char** argv) {
  using namespace ibsim;

  sim::Cli cli("ext_mesh_cc: IB CC on a 2D mesh (the paper's open question)");
  cli.add_int("rows", 6, "mesh rows");
  cli.add_int("cols", 6, "mesh columns");
  cli.add_int("nodes", 4, "end nodes per mesh switch");
  cli.add_flag("full", "longer measurement window");
  cli.add_int("seed", 1, "random seed");
  if (!cli.parse(argc, argv)) return 0;

  sim::SimConfig base;
  base.topology = sim::TopologyKind::Mesh2D;
  base.sim_time = (cli.flag("full") ? 30 : 10) * core::kMillisecond;
  base.warmup = base.sim_time / 2;
  base.cc.ccti_increase = 4;
  base.cc.ccti_timer = 38;
  base.scenario.n_hotspots = 4;
  std::string err = sim::apply_int_options(
      cli, {{"rows", "mesh_rows"}, {"cols", "mesh_cols"}, {"nodes", "mesh_nodes"}, {"seed", "seed"}},
      &base);
  if (err.empty()) err = sim::check_config(base);
  if (!err.empty()) {
    std::fprintf(stderr, "error: %s\n", err.c_str());
    return 2;
  }

  std::printf("mesh %dx%d, %d nodes/switch (%d end nodes), XY routing\n\n",
              base.mesh_rows, base.mesh_cols, base.mesh_nodes_per_switch,
              base.node_count());

  analysis::TextTable table({"Scenario", "Hotspot Gbps", "Non-hotspot Gbps",
                             "Total Gbps", "CC gain (x)"});

  struct Case {
    const char* label;
    double fraction_b;
    double p;
    double fraction_c;
  };
  const Case cases[] = {
      {"silent forest (80% C / 20% V)", 0.0, 0.0, 0.8},
      {"windy, 100% B, p=30", 1.0, 0.3, 0.8},
      {"windy, 100% B, p=60", 1.0, 0.6, 0.8},
      {"uniform only (all V)", 0.0, 0.0, 0.0},
  };
  for (const Case& c : cases) {
    sim::SimConfig config = base;
    config.scenario.fraction_b = c.fraction_b;
    config.scenario.p = c.p;
    config.scenario.fraction_c_of_rest = c.fraction_c;
    config.scenario.n_hotspots = c.fraction_c == 0.0 && c.fraction_b == 0.0 ? 0 : 4;
    config.cc.enabled = false;
    const sim::SimResult off = sim::run_sim(config);
    config.cc.enabled = true;
    const sim::SimResult on = sim::run_sim(config);
    const double gain = off.total_throughput_gbps > 0
                            ? on.total_throughput_gbps / off.total_throughput_gbps
                            : 1.0;
    table.add_section(c.label);
    table.add_row({"CC off", analysis::fmt(off.hotspot_rcv_gbps),
                   analysis::fmt(off.non_hotspot_rcv_gbps),
                   analysis::fmt(off.total_throughput_gbps, 1), "-"});
    table.add_row({"CC on", analysis::fmt(on.hotspot_rcv_gbps),
                   analysis::fmt(on.non_hotspot_rcv_gbps),
                   analysis::fmt(on.total_throughput_gbps, 1), analysis::fmt(gain, 2)});
  }
  table.print();
  std::printf("\nfinding to compare against the paper's fat-tree results: does the\n"
              "Table I set still help on a low-path-diversity topology?\n");
  return 0;
}
