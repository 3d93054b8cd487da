#include "store/key.hpp"

#include "sim/config_fields.hpp"
#include "store/version.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <set>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

namespace ibsim::store {
namespace {

sim::SimConfig base_config() {
  sim::SimConfig config;
  config.topology = sim::TopologyKind::SingleSwitch;
  config.single_switch_nodes = 8;
  config.seed = 7;
  return config;
}

TEST(RunKey, DeterministicAndHexShaped) {
  const sim::SimConfig config = base_config();
  const std::string key = run_key(config);
  EXPECT_EQ(key, run_key(config));
  EXPECT_EQ(key.size(), 64u);  // SHA-256 hex
  EXPECT_EQ(key.find_first_not_of("0123456789abcdef"), std::string::npos);
}

TEST(RunKey, CanonicalTextCarriesSeedAndTopology) {
  const std::string text = canonical_config_text(base_config());
  EXPECT_NE(text.find("seed=7"), std::string::npos);
  EXPECT_NE(text.find("topology=single"), std::string::npos);
}

TEST(RunKey, ResultStoreFieldIsExcluded) {
  // The one deliberate exception: where results are cached must not
  // feed the key of what is cached, or a campaign could never move its
  // store directory without recomputing everything.
  sim::SimConfig a = base_config();
  sim::SimConfig b = base_config();
  b.result_store = "/somewhere/else";
  EXPECT_EQ(canonical_config_text(a), canonical_config_text(b));
  EXPECT_EQ(run_key(a), run_key(b));
}

TEST(RunKey, ThreadsFieldIsExcluded) {
  // Worker-thread count is orchestration-only: shards execute the same
  // events whatever the worker count, so `threads` must never split the
  // cache the way `shards` (which is simulation-affecting) does.
  sim::SimConfig a = base_config();
  sim::SimConfig b = base_config();
  b.threads = 16;
  EXPECT_EQ(canonical_config_text(a), canonical_config_text(b));
  EXPECT_EQ(run_key(a), run_key(b));
}

/// Set `field` of `config` to a value other than the one it holds.
void change_field(const sim::ConfigField& field, sim::SimConfig* config) {
  std::visit(
      [&](auto member) {
        auto& v = member(*config);
        using T = std::remove_reference_t<decltype(v)>;
        if constexpr (std::is_same_v<T, bool>) {
          v = !v;
        } else if constexpr (std::is_same_v<T, std::string>) {
          v += "x";
        } else if constexpr (std::is_enum_v<T>) {
          v = static_cast<T>(static_cast<std::underlying_type_t<T>>(v) ^ 1);
        } else if constexpr (std::is_floating_point_v<T>) {
          v += 1.0;
        } else if (v == std::numeric_limits<T>::max()) {
          --v;
        } else {
          ++v;
        }
      },
      field.member);
}

/// Every keyed row of the field table must change the key, each in its
/// own way (two rows naming one member would collide), while the
/// orchestration rows (threads, result_store) must not.
TEST(RunKey, EveryFieldChangesTheKey) {
  const std::string base_key = run_key(base_config());
  std::set<std::string> keys{base_key};
  std::set<std::string> unkeyed;
  for (const sim::ConfigField& field : sim::config_fields()) {
    sim::SimConfig config = base_config();
    change_field(field, &config);
    const std::string key = run_key(config);
    if (!field.keyed()) {
      EXPECT_EQ(key, base_key) << field.name << " is orchestration-only but changed the key";
      unkeyed.insert(field.name);
      continue;
    }
    EXPECT_NE(key, base_key) << field.name << " did not change the key";
    EXPECT_TRUE(keys.insert(key).second) << field.name << " collided with another field";
  }
  EXPECT_EQ(unkeyed, (std::set<std::string>{"threads", "result_store"}));
}

/// Hand-picked mutations of the fields sweeps vary most, written against
/// the struct rather than the table.
TEST(RunKey, NamedFieldsChangeTheKey) {
  struct Mutation {
    const char* name;
    std::function<void(sim::SimConfig*)> apply;
  };
  const std::vector<Mutation> mutations = {
      {"seed", [](sim::SimConfig* c) { c->seed = 8; }},
      {"topology", [](sim::SimConfig* c) { c->topology = sim::TopologyKind::Dumbbell; }},
      {"single_switch_nodes", [](sim::SimConfig* c) { c->single_switch_nodes = 9; }},
      {"clos.leaves", [](sim::SimConfig* c) { c->clos.leaves = 7; }},
      {"fat_tree3.pods", [](sim::SimConfig* c) { c->fat_tree3.pods = 3; }},
      {"chain_switches", [](sim::SimConfig* c) { c->chain_switches = 5; }},
      {"dumbbell_nodes", [](sim::SimConfig* c) { c->dumbbell_nodes_per_side = 9; }},
      {"mesh.rows", [](sim::SimConfig* c) { c->mesh_rows = 5; }},
      {"fabric.wire_gbps", [](sim::SimConfig* c) { c->fabric.wire_gbps += 1.0; }},
      {"fabric.cut_through", [](sim::SimConfig* c) { c->fabric.cut_through = !c->fabric.cut_through; }},
      {"cc.enabled", [](sim::SimConfig* c) { c->cc.enabled = !c->cc.enabled; }},
      {"cc.threshold_weight", [](sim::SimConfig* c) { c->cc.threshold_weight += 1; }},
      {"cc.ccti_timer", [](sim::SimConfig* c) { c->cc.ccti_timer += 1; }},
      {"cc_algo", [](sim::SimConfig* c) { c->cc_algo = "dcqcn"; }},
      {"scenario.fraction_b", [](sim::SimConfig* c) { c->scenario.fraction_b += 0.25; }},
      {"scenario.p", [](sim::SimConfig* c) { c->scenario.p += 0.25; }},
      {"scenario.n_hotspots", [](sim::SimConfig* c) { c->scenario.n_hotspots += 1; }},
      {"scenario.lifetime", [](sim::SimConfig* c) { c->scenario.hotspot_lifetime = 123; }},
      {"workload.name", [](sim::SimConfig* c) { c->workload.name = "incast"; }},
      {"workload.ranks", [](sim::SimConfig* c) { c->workload.ranks += 1; }},
      {"workload.bytes", [](sim::SimConfig* c) { c->workload.message_bytes += 1; }},
      {"sim_time", [](sim::SimConfig* c) { c->sim_time += 1; }},
      {"warmup", [](sim::SimConfig* c) { c->warmup += 1; }},
      {"latency_hist_max_us", [](sim::SimConfig* c) { c->latency_hist_max_us += 1; }},
      // A proven bit-identical variant is still keyed conservatively: a
      // conservative key costs a miss, never a wrong result.
      {"fabric.fast_path", [](sim::SimConfig* c) { c->fabric.fast_path = !c->fabric.fast_path; }},
      // Cross-shard interleaving may legitimately differ between shard
      // counts, so the shard count is simulation-affecting.
      {"shards", [](sim::SimConfig* c) { c->shards = 4; }},
  };

  const std::string base_key = run_key(base_config());
  std::set<std::string> keys{base_key};
  for (const Mutation& mutation : mutations) {
    sim::SimConfig config = base_config();
    mutation.apply(&config);
    const std::string key = run_key(config);
    EXPECT_NE(key, base_key) << mutation.name << " did not change the key";
    EXPECT_TRUE(keys.insert(key).second) << mutation.name << " collided with another field";
  }
}

TEST(RunKey, CanonicalLinesPinStoredValues) {
  // Times in integer picoseconds and doubles as hexfloat, under names
  // that say so: the text record is exact, whatever the key's text unit.
  sim::SimConfig config = base_config();
  config.sim_time = 2 * core::kMillisecond + 1;
  config.scenario.p = 0.1;
  config.scenario.hotspot_lifetime = core::kTimeNever;
  const std::string text = canonical_config_text(config);
  EXPECT_NE(text.find("\nsim_time_ps=2000000001\n"), std::string::npos) << text;
  EXPECT_NE(text.find("\np=0x1.999999999999ap-4\n"), std::string::npos) << text;
  EXPECT_NE(text.find("\nlifetime_ps=9223372036854775807\n"), std::string::npos) << text;
  EXPECT_NE(text.find("\nlink_delay_ps=30000\n"), std::string::npos) << text;
  // The one "_us" line left holds a double that really is microseconds.
  EXPECT_EQ(text.find("_us="), text.rfind("_us=")) << text;
  EXPECT_NE(text.find("\nlatency_hist_max_us="), std::string::npos) << text;
}

TEST(RunKey, CodeVersionChangesTheKey) {
  const sim::SimConfig config = base_config();
  EXPECT_NE(run_key_with_version(config, "aaaa1111"),
            run_key_with_version(config, "bbbb2222"));
  // run_key is run_key_with_version at this binary's own stamp.
  EXPECT_EQ(run_key(config), run_key_with_version(config, code_version()));
}

}  // namespace
}  // namespace ibsim::store
