#include "sim/config_fields.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>

#include "store/key.hpp"

namespace ibsim::sim {
namespace {

/// Converts to any member type, so `T{AnyField{}...}` compiles for up to
/// as many initializers as the aggregate T has members. Only used in
/// unevaluated contexts, so the conversion needs no definition.
struct AnyField {
  template <typename T>
  operator T() const;
};

template <typename T, std::size_t... I>
constexpr bool brace_initializable(std::index_sequence<I...>) {
  return requires { T{(static_cast<void>(I), AnyField{})...}; };
}

/// Number of members of the aggregate T.
template <typename T, std::size_t N = 0>
constexpr std::size_t member_count() {
  if constexpr (brace_initializable<T>(std::make_index_sequence<N + 1>{})) {
    return member_count<T, N + 1>();
  } else {
    return N;
  }
}

TEST(ConfigFields, EverySimConfigFieldHasOneRow) {
  // SimConfig's own members, with each embedded struct replaced by its
  // members. A field added anywhere in SimConfig changes this count
  // until it gets its row in src/sim/config_fields.cpp.
  constexpr std::size_t kEmbedded = 7;  // clos, fat_tree3, fabric, cc, scenario, workload, telemetry
  constexpr std::size_t leaves =
      member_count<SimConfig>() - kEmbedded + member_count<topo::FoldedClosParams>() +
      member_count<topo::FatTree3Params>() + member_count<fabric::FabricParams>() +
      member_count<ib::CcParams>() + member_count<traffic::ScenarioSpec>() +
      member_count<WorkloadSettings>() + member_count<TelemetrySettings>();
  EXPECT_EQ(config_fields().size(), leaves);

  std::set<std::string> names;
  for (const ConfigField& field : config_fields()) {
    EXPECT_TRUE(names.insert(field.name).second) << "two rows named " << field.name;
  }
}

TEST(ConfigFields, TextKeysAreTheConfigFileKeys) {
  // The keys config files have always accepted.
  const std::set<std::string> expected = {
      "topology", "clos_leaves", "clos_spines", "clos_nodes_per_leaf", "single_nodes",
      "chain_switches", "chain_nodes", "dumbbell_nodes", "mesh_rows", "mesh_cols",
      "mesh_nodes", "ft3_pods", "ft3_leaves_per_pod", "ft3_aggs_per_pod", "ft3_cores",
      "ft3_nodes_per_leaf", "fraction_b", "p_percent", "fraction_c", "hotspots",
      "lifetime_us", "inject_gbps", "cc_enabled", "cc_algo", "threshold_weight",
      "marking_rate", "packet_size", "victim_mask", "ccti_increase", "ccti_limit",
      "ccti_min", "ccti_timer", "sl_level", "cct_fill", "cct_base", "wire_gbps",
      "hca_inject_gbps", "hca_drain_gbps", "n_vls", "cut_through",
      "switch_ibuf_bytes", "hca_ibuf_bytes", "workload", "workload_file", "workload_ranks",
      "workload_bytes", "workload_iters", "workload_compute_us", "workload_background",
      "sim_time_us", "warmup_us", "seed", "trace_file", "trace_categories", "counters_csv",
      "telemetry_sample_us", "trace_ring", "telemetry_detailed", "telemetry_counters",
      "result_store", "threads", "shards"};
  ASSERT_EQ(expected.size(), 62u);
  std::set<std::string> settable;
  for (const ConfigField& field : config_fields()) {
    if (field.settable()) {
      settable.insert(field.name);
      EXPECT_EQ(find_config_field(field.name), &field);
    } else {
      EXPECT_EQ(find_config_field(field.name), nullptr) << field.name;
    }
  }
  EXPECT_EQ(settable, expected);
}

TEST(ConfigFields, DefaultsRoundTripThroughText) {
  // What simulate --help shows as each default reads back as exactly
  // the default.
  const SimConfig defaults;
  SimConfig config;
  for (const ConfigField& field : config_fields()) {
    if (!field.settable()) continue;
    const std::string text = field_text(field, defaults);
    if (text.empty()) continue;  // an empty string is no config value
    EXPECT_EQ(set_field(field, text, &config), "") << field.name << " = " << text;
  }
  EXPECT_EQ(store::canonical_config_text(config), store::canonical_config_text(defaults));
}

TEST(ConfigFields, UnitsScaleIntoStoredValues) {
  SimConfig config;
  EXPECT_EQ(set_field(*find_config_field("sim_time_us"), "7", &config), "");
  EXPECT_EQ(config.sim_time, 7 * core::kMicrosecond);
  EXPECT_EQ(set_field(*find_config_field("p_percent"), "25", &config), "");
  EXPECT_DOUBLE_EQ(config.scenario.p, 0.25);
  EXPECT_EQ(field_text(*find_config_field("p_percent"), config), "25");
  EXPECT_EQ(field_placeholder(*find_config_field("topology")),
            "clos|single|chain|dumbbell|mesh|fat-tree3");
  EXPECT_EQ(field_placeholder(*find_config_field("cct_fill")), "geometric|linear");
}

}  // namespace
}  // namespace ibsim::sim
