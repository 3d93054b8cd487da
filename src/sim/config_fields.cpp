#include "sim/config_fields.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <type_traits>
#include <utility>

#include "ccalg/registry.hpp"
#include "core/assert.hpp"
#include "telemetry/trace.hpp"
#include "workload/registry.hpp"

namespace ibsim::sim {

namespace {

template <typename E>
struct Spelling {
  E value;
  const char* text;
};

// One spelling per enumerator, shared by config files, flags and the run key.
constexpr Spelling<TopologyKind> kTopologySpellings[] = {
    {TopologyKind::FoldedClos, "clos"},    {TopologyKind::SingleSwitch, "single"},
    {TopologyKind::LinearChain, "chain"},  {TopologyKind::Dumbbell, "dumbbell"},
    {TopologyKind::Mesh2D, "mesh"},        {TopologyKind::FatTree3, "fat-tree3"},
};
constexpr Spelling<ib::CctFill> kCctFillSpellings[] = {
    {ib::CctFill::Geometric, "geometric"},
    {ib::CctFill::Linear, "linear"},
};

std::span<const Spelling<TopologyKind>> spellings(TopologyKind) { return kTopologySpellings; }
std::span<const Spelling<ib::CctFill>> spellings(ib::CctFill) { return kCctFillSpellings; }

template <typename E>
std::string spelling_of(E value) {
  for (const auto& s : spellings(value)) {
    if (s.value == value) return s.text;
  }
  IBSIM_ASSERT(false, "enumerator without a spelling");
  return {};
}

template <typename E>
std::string spellings_joined() {
  std::string out;
  for (const auto& s : spellings(E{})) {
    if (!out.empty()) out += '|';
    out += s.text;
  }
  return out;
}

std::string check_cc_algo(const std::string& text) {
  const auto& registry = ccalg::CcAlgorithmRegistry::instance();
  if (registry.contains(text)) return {};
  return "unknown cc_algo '" + text + "' (valid: " + registry.names_joined() + ")";
}

std::string check_workload(const std::string& text) {
  const auto& registry = workload::WorkloadRegistry::instance();
  if (text == "file" || registry.contains(text)) return {};
  return "unknown workload '" + text + "' (valid: " + registry.names_joined() +
         ", or 'file' with workload_file)";
}

std::string check_trace_categories(const std::string& text) {
  std::uint32_t mask = 0;
  if (telemetry::parse_categories(text, &mask)) return {};
  return "unknown trace category in '" + text + "'";
}

using enum FieldUnit;
using enum FieldScope;

#define IBSIM_MEMBER(path) [](SimConfig& c) -> auto& { return c.path; }

// The SimConfig field table. Row order is the run key's line order.
// Key-only rows are settable from code alone; kUnkeyed rows never
// change results, so where a result is cached and how many threads
// compute it do not split the cache.
constexpr ConfigField kFields[] = {
    // Topology. Every family's shape is keyed whatever `topology` selects.
    {"topology", IBSIM_MEMBER(topology), kPlain, kKeyed, "topology family"},
    {"clos_leaves", IBSIM_MEMBER(clos.leaves), kPlain, kKeyed, "clos: leaf switches"},
    {"clos_spines", IBSIM_MEMBER(clos.spines), kPlain, kKeyed, "clos: spine switches"},
    {"clos_nodes_per_leaf", IBSIM_MEMBER(clos.nodes_per_leaf), kPlain, kKeyed,
     "clos: end nodes per leaf"},
    {"ft3_pods", IBSIM_MEMBER(fat_tree3.pods), kPlain, kKeyed, "fat-tree3: pods"},
    {"ft3_leaves_per_pod", IBSIM_MEMBER(fat_tree3.leaves_per_pod), kPlain, kKeyed,
     "fat-tree3: leaf switches per pod"},
    {"ft3_aggs_per_pod", IBSIM_MEMBER(fat_tree3.aggs_per_pod), kPlain, kKeyed,
     "fat-tree3: aggregation switches per pod"},
    {"ft3_cores", IBSIM_MEMBER(fat_tree3.cores), kPlain, kKeyed, "fat-tree3: core switches"},
    {"ft3_nodes_per_leaf", IBSIM_MEMBER(fat_tree3.nodes_per_leaf), kPlain, kKeyed,
     "fat-tree3: end nodes per leaf"},
    {"single_nodes", IBSIM_MEMBER(single_switch_nodes), kPlain, kKeyed,
     "single: end nodes on the crossbar"},
    {"chain_switches", IBSIM_MEMBER(chain_switches), kPlain, kKeyed, "chain: switches"},
    {"chain_nodes", IBSIM_MEMBER(chain_nodes_per_switch), kPlain, kKeyed,
     "chain: end nodes per switch"},
    {"dumbbell_nodes", IBSIM_MEMBER(dumbbell_nodes_per_side), kPlain, kKeyed,
     "dumbbell: end nodes per side"},
    {"mesh_rows", IBSIM_MEMBER(mesh_rows), kPlain, kKeyed, "mesh: rows"},
    {"mesh_cols", IBSIM_MEMBER(mesh_cols), kPlain, kKeyed, "mesh: columns"},
    {"mesh_nodes", IBSIM_MEMBER(mesh_nodes_per_switch), kPlain, kKeyed,
     "mesh: end nodes per switch"},

    // Fabric calibration.
    {"wire_gbps", IBSIM_MEMBER(fabric.wire_gbps), kPlain, kKeyed,
     "link data rate after 8b/10b (Gb/s)"},
    {"hca_inject_gbps", IBSIM_MEMBER(fabric.hca_inject_gbps), kPlain, kKeyed,
     "HCA injection ceiling (Gb/s)"},
    {"hca_drain_gbps", IBSIM_MEMBER(fabric.hca_drain_gbps), kPlain, kKeyed,
     "HCA sink rate (Gb/s)"},
    {"link_delay_ps", IBSIM_MEMBER(fabric.link_delay), kPlain, kKeyOnly, ""},
    {"switch_delay_ps", IBSIM_MEMBER(fabric.switch_delay), kPlain, kKeyOnly, ""},
    {"hca_rx_delay_ps", IBSIM_MEMBER(fabric.hca_rx_delay), kPlain, kKeyOnly, ""},
    {"credit_delay_ps", IBSIM_MEMBER(fabric.credit_delay), kPlain, kKeyOnly, ""},
    {"n_vls", IBSIM_MEMBER(fabric.n_vls), kPlain, kKeyed,
     "virtual lanes: 1 (CNPs share VL0) or 2 (CNPs on VL1)"},
    {"switch_ibuf_bytes", IBSIM_MEMBER(fabric.switch_ibuf_data_bytes), kPlain, kKeyed,
     "switch input buffer per port, data VL (bytes)"},
    {"switch_ibuf_cnp_bytes", IBSIM_MEMBER(fabric.switch_ibuf_cnp_bytes), kPlain, kKeyOnly, ""},
    {"hca_ibuf_bytes", IBSIM_MEMBER(fabric.hca_ibuf_data_bytes), kPlain, kKeyed,
     "HCA input buffer, data VL (bytes)"},
    {"hca_ibuf_cnp_bytes", IBSIM_MEMBER(fabric.hca_ibuf_cnp_bytes), kPlain, kKeyOnly, ""},
    {"cut_through", IBSIM_MEMBER(fabric.cut_through), kPlain, kKeyed,
     "virtual cut-through (0 = store-and-forward)"},

    // Congestion control (IBA annex A10; paper Table I defaults).
    {"cc_enabled", IBSIM_MEMBER(cc.enabled), kPlain, kKeyed, "congestion control"},
    {"threshold_weight", IBSIM_MEMBER(cc.threshold_weight), kPlain, kKeyed,
     "switch Threshold weight (0 = no marking, 15 = earliest)"},
    {"marking_rate", IBSIM_MEMBER(cc.marking_rate), kPlain, kKeyed,
     "Marking_Rate: eligible packets between two marks"},
    {"packet_size", IBSIM_MEMBER(cc.packet_size), kPlain, kKeyed,
     "Packet_Size: largest never-marked packet (64 B units)"},
    {"victim_mask", IBSIM_MEMBER(cc.victim_mask_hca_ports), kPlain, kKeyed,
     "Victim_Mask on HCA-facing switch ports"},
    {"ccti_increase", IBSIM_MEMBER(cc.ccti_increase), kPlain, kKeyed,
     "CCTI_Increase per BECN"},
    {"ccti_limit", IBSIM_MEMBER(cc.ccti_limit), kPlain, kKeyed, "CCTI_Limit"},
    {"ccti_min", IBSIM_MEMBER(cc.ccti_min), kPlain, kKeyed, "CCTI_Min"},
    {"ccti_timer", IBSIM_MEMBER(cc.ccti_timer), kPlain, kKeyed,
     "CCTI_Timer (1.024 us units)"},
    {"cct_fill", IBSIM_MEMBER(cc.cct_fill), kPlain, kKeyed, "CCT population"},
    {"cct_base", IBSIM_MEMBER(cc.cct_base), kPlain, kKeyed, "geometric CCT growth base"},
    {"sl_level", IBSIM_MEMBER(cc.sl_level), kPlain, kKeyed, "CC per SL instead of per QP"},
    {"cc_algo", IBSIM_MEMBER(cc_algo), kPlain, kKeyed,
     "reaction-point algorithm (a registered name; 'help' lists)", check_cc_algo},

    // Synthetic traffic scenario (paper section III).
    {"fraction_b", IBSIM_MEMBER(scenario.fraction_b), kPlain, kKeyed,
     "share of B nodes (0..1)"},
    {"p_percent", IBSIM_MEMBER(scenario.p), kPercent, kKeyed,
     "B-node traffic share sent to the hotspot"},
    {"fraction_c", IBSIM_MEMBER(scenario.fraction_c_of_rest), kPlain, kKeyed,
     "C share of the non-B nodes (0..1)"},
    {"hotspots", IBSIM_MEMBER(scenario.n_hotspots), kPlain, kKeyed, "number of hotspots"},
    {"lifetime_us", IBSIM_MEMBER(scenario.hotspot_lifetime), kLifetime, kKeyed,
     "hotspot lifetime (0 = static)"},
    {"c_nodes_active", IBSIM_MEMBER(scenario.c_nodes_active), kPlain, kKeyOnly, ""},
    {"inject_gbps", IBSIM_MEMBER(scenario.capacity_gbps), kPlain, kKeyed,
     "injection capacity the traffic shares refer to (Gb/s)"},

    // Application workload (replaces the synthetic scenario when set).
    {"workload", IBSIM_MEMBER(workload.name), kPlain, kKeyed,
     "application workload (a registered name or 'file'; 'help' lists)", check_workload},
    {"workload_file", IBSIM_MEMBER(workload.file), kPlain, kKeyed,
     "workload DSL file (with workload = file)"},
    {"workload_ranks", IBSIM_MEMBER(workload.ranks), kPlain, kKeyed,
     "ranks of the canned patterns (0 = all nodes)"},
    {"workload_bytes", IBSIM_MEMBER(workload.message_bytes), kPlain, kKeyed,
     "payload bytes per workload message"},
    {"workload_iters", IBSIM_MEMBER(workload.iterations), kPlain, kKeyed,
     "iterations of the canned patterns"},
    {"workload_compute_us", IBSIM_MEMBER(workload.compute), kMicroseconds, kKeyed,
     "per-iteration compute delay"},
    {"workload_background", IBSIM_MEMBER(workload.background_uniform), kPlain, kKeyed,
     "uniform background traffic from the non-rank nodes"},

    // Run control.
    {"sim_time_us", IBSIM_MEMBER(sim_time), kMicroseconds, kKeyed, "simulated time"},
    {"warmup_us", IBSIM_MEMBER(warmup), kMicroseconds, kKeyed,
     "warm-up excluded from the metrics"},
    {"seed", IBSIM_MEMBER(seed), kPlain, kKeyed, "random seed"},
    {"shards", IBSIM_MEMBER(shards), kCount, kKeyed,
     "fabric shards (1 = serial engine)"},
    {"threads", IBSIM_MEMBER(threads), kCount, kUnkeyed,
     "worker threads (0 = IBSIM_THREADS, then hardware)"},
    {"result_store", IBSIM_MEMBER(result_store), kPlain, kUnkeyed,
     "on-disk result store directory: serve runs from it, publish fresh ones"},

    // Telemetry. All of it is keyed: counters/detailed change
    // SimResult::counters, and the CSV sampler schedules events. The
    // trace_file and counters_csv paths are keyed too, so run_parallel's
    // dedup never merges two cells that write different files; such
    // cells skip the store both ways, so the paths never split it.
    {"telemetry_counters", IBSIM_MEMBER(telemetry.counters), kPlain, kKeyed,
     "collect and print fabric counters"},
    {"trace_file", IBSIM_MEMBER(telemetry.trace_path), kPlain, kKeyed,
     "Chrome trace-event JSON (Perfetto-loadable)"},
    {"trace_categories", IBSIM_MEMBER(telemetry.trace_categories), kPlain, kKeyed,
     "trace categories: cc,credits,queues,arb | all", check_trace_categories},
    {"counters_csv", IBSIM_MEMBER(telemetry.counters_csv), kPlain, kKeyed,
     "counter time-series CSV"},
    {"telemetry_sample_us", IBSIM_MEMBER(telemetry.sample_interval), kMicroseconds, kKeyed,
     "counter CSV sampling interval"},
    {"trace_ring", IBSIM_MEMBER(telemetry.trace_ring_capacity), kPlain, kKeyed,
     "trace ring capacity (events)"},
    {"telemetry_detailed", IBSIM_MEMBER(telemetry.detailed), kPlain, kKeyed,
     "per-port/per-node instruments, not just aggregates"},
};

#undef IBSIM_MEMBER

bool is_time(FieldUnit unit) {
  return unit == FieldUnit::kMicroseconds || unit == FieldUnit::kLifetime;
}

/// Base-10 integer, whole text.
template <typename W>
std::errc parse_integer(const std::string& text, W* out) {
  if (std::is_unsigned_v<W> && text.starts_with('-')) {
    // from_chars reads no sign into an unsigned type; say "out of
    // range" for a negative number rather than "not an integer".
    std::int64_t negative = 0;
    const std::errc ec = parse_integer(text, &negative);
    return ec == std::errc::invalid_argument ? ec : std::errc::result_out_of_range;
  }
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, *out);
  return ptr == last ? ec : std::errc::invalid_argument;
}

bool parse_double(const std::string& text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return !text.empty() && end != nullptr && *end == '\0';
}

template <typename T>
std::string parse_value(const ConfigField& field, const std::string& text, T* out) {
  const std::string key = std::string("'") + field.name + "'";
  if constexpr (std::is_same_v<T, std::string>) {
    if (field.check != nullptr) {
      if (std::string err = field.check(text); !err.empty()) return err;
    }
    *out = text;
  } else if constexpr (std::is_enum_v<T>) {
    for (const auto& s : spellings(T{})) {
      if (text == s.text) {
        *out = s.value;
        return {};
      }
    }
    return "unknown " + std::string(field.name) + " '" + text + "' (valid: " +
           spellings_joined<T>() + ")";
  } else if constexpr (std::is_floating_point_v<T>) {
    double v = 0;
    if (!parse_double(text, &v)) return "expected a number for " + key;
    *out = field.unit == FieldUnit::kPercent ? v / 100.0 : v;
  } else if constexpr (std::is_same_v<T, bool>) {
    std::int64_t v = 0;
    const std::errc ec = parse_integer(text, &v);
    if (ec == std::errc::invalid_argument) return "expected an integer for " + key;
    if (ec != std::errc{}) return "value " + text + " out of range for " + key;
    *out = v != 0;
  } else {
    using Wide = std::conditional_t<std::is_signed_v<T>, std::int64_t, std::uint64_t>;
    const Wide scale = is_time(field.unit) ? core::kMicrosecond : 1;
    const Wide lo = field.unit == FieldUnit::kCount ? 0 : std::numeric_limits<T>::min() / scale;
    const Wide hi = std::numeric_limits<T>::max() / scale;
    Wide v = 0;
    const std::errc ec = parse_integer(text, &v);
    if (field.unit == FieldUnit::kCount && (ec == std::errc::invalid_argument || v < lo)) {
      return "expected a non-negative integer for " + key + " (0 = auto)";
    }
    if (ec == std::errc::invalid_argument) return "expected an integer for " + key;
    if (ec != std::errc{} || v < lo || v > hi) {
      return "value " + text + " out of range for " + key + " (" + std::to_string(lo) +
             ".." + std::to_string(hi) + ")";
    }
    *out = static_cast<T>(v * scale);
    if constexpr (std::is_same_v<T, core::Time>) {
      if (field.unit == FieldUnit::kLifetime && v <= 0) *out = core::kTimeNever;
    }
  }
  return {};
}

std::string format_double(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, v);
  return buf;
}

/// The field's value as text: `stored` pins the member's exact value
/// (the run key), otherwise it is spelled in the field's text unit.
std::string format_value(const ConfigField& field, const SimConfig& config, bool stored) {
  // The accessor only names the member; nothing writes through it here.
  SimConfig& named = const_cast<SimConfig&>(config);
  return std::visit(
      [&](auto member) -> std::string {
        const auto& v = member(named);
        using T = std::remove_cvref_t<decltype(v)>;
        if constexpr (std::is_same_v<T, std::string>) {
          return v;
        } else if constexpr (std::is_enum_v<T>) {
          return spelling_of(v);
        } else if constexpr (std::is_same_v<T, bool>) {
          return v ? "1" : "0";
        } else if constexpr (std::is_floating_point_v<T>) {
          if (stored) return format_double("%a", v);
          return format_double("%g", field.unit == FieldUnit::kPercent ? v * 100.0 : v);
        } else {
          if (stored) return std::to_string(v);
          if (field.unit == FieldUnit::kLifetime && v == core::kTimeNever) return "0";
          return std::to_string(is_time(field.unit) ? v / core::kMicrosecond : v);
        }
      },
      field.member);
}

}  // namespace

std::span<const ConfigField> config_fields() { return kFields; }

const ConfigField* find_config_field(std::string_view name) {
  for (const ConfigField& field : kFields) {
    if (field.settable() && name == field.name) return &field;
  }
  return nullptr;
}

std::string set_field(const ConfigField& field, const std::string& text, SimConfig* config) {
  return std::visit(
      [&](auto member) -> std::string {
        std::remove_reference_t<decltype(member(*config))> value{};
        std::string err = parse_value(field, text, &value);
        if (err.empty()) member(*config) = std::move(value);
        return err;
      },
      field.member);
}

std::string field_text(const ConfigField& field, const SimConfig& config) {
  return format_value(field, config, /*stored=*/false);
}

std::string field_placeholder(const ConfigField& field) {
  return std::visit([&](auto member) -> std::string {
    using T = std::remove_reference_t<decltype(member(std::declval<SimConfig&>()))>;
    if constexpr (std::is_same_v<T, std::string>) {
      return "str";
    } else if constexpr (std::is_enum_v<T>) {
      return spellings_joined<T>();
    } else if constexpr (std::is_floating_point_v<T>) {
      return field.unit == FieldUnit::kPercent ? "%" : "num";
    } else if constexpr (std::is_same_v<T, bool>) {
      return "0|1";
    } else {
      return is_time(field.unit) ? "us" : "int";
    }
  }, field.member);
}

std::string field_canonical_line(const ConfigField& field, const SimConfig& config) {
  std::string name = field.name;
  const auto swap_suffix = [&](std::string_view text_unit, std::string_view stored_unit) {
    IBSIM_ASSERT(name.ends_with(text_unit), "field name lacks its unit suffix");
    name.replace(name.size() - text_unit.size(), text_unit.size(), stored_unit);
  };
  if (is_time(field.unit)) swap_suffix("_us", "_ps");
  if (field.unit == FieldUnit::kPercent) swap_suffix("_percent", "");

  return name + "=" + format_value(field, config, /*stored=*/true) + "\n";
}

}  // namespace ibsim::sim
