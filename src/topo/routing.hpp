#pragma once

#include <cstdint>
#include <vector>

#include "ib/types.hpp"
#include "topo/topology.hpp"

namespace ibsim::topo {

/// Deterministic destination-based routing: one linear forwarding table
/// (LFT) per switch, mapping destination NodeId to output port — exactly
/// the "routing using linear forwarding tables" of the paper's model.
///
/// Tables are computed with one BFS per leaf (a device with HCAs
/// attached): every route to an HCA ends on its single cable, so all
/// nodes of a leaf share each other switch's shortest-path next hops.
/// Among equal-length next hops a switch picks candidate[dst % candidates],
/// the d-mod-k rule that yields the standard non-blocking spreading on
/// fat-trees.
///
/// Storage is one contiguous array, stride-indexed by dense switch slot:
/// entry (slot, dst) lives at slot * stride + dst. Sweeps share one
/// RoutingTables across many concurrent runs (see sim::RoutingSnapshot),
/// so lookups walking a destination range stay within one cache-friendly
/// row instead of chasing a per-switch heap allocation. An entry is one
/// signed byte (no switch is wider than kMaxSwitchPorts), -1 meaning "no
/// route".
class RoutingTables {
 public:
  /// How a switch chooses among equal-length next hops.
  enum class TieBreak : std::uint8_t {
    /// candidate[dst %% candidates]: the classic d-mod-k spreading that
    /// balances fat-tree up-paths (the default).
    DModK,
    /// Always the lowest candidate port. With the mesh2d port layout
    /// (X ports before Y ports) this yields dimension-order (XY)
    /// routing, which is deadlock-free on meshes.
    FirstPort,
  };

  /// Compute LFTs for every switch in `topo`. Asserts that every HCA has
  /// exactly one cabled port and that no switch has more than
  /// kMaxSwitchPorts ports.
  [[nodiscard]] static RoutingTables compute(const Topology& topo,
                                             TieBreak tie_break = TieBreak::DModK);

  /// Output port switch `dev` uses towards end node `dst`, or -1.
  [[nodiscard]] std::int32_t out_port(DeviceId dev, ib::NodeId dst) const {
    return lft_[static_cast<std::size_t>(switch_slot_[static_cast<std::size_t>(dev)]) *
                    stride_ +
                static_cast<std::size_t>(dst)];
  }

  /// Pointer to switch `dev`'s row of the flat LFT, indexed by NodeId.
  /// Valid while this RoutingTables is alive; devices on the packet hot
  /// path cache it once instead of re-deriving slot * stride per lookup.
  [[nodiscard]] const std::int8_t* lft_row(DeviceId dev) const {
    return lft_.data() +
           static_cast<std::size_t>(switch_slot_[static_cast<std::size_t>(dev)]) * stride_;
  }

  /// The flattened LFT storage: switch_count() rows of stride() entries,
  /// row order matching Topology::switches(). Exposed for the golden
  /// determinism tests that pin table contents across storage rewrites.
  [[nodiscard]] const std::vector<std::int8_t>& flat() const { return lft_; }

  /// Entries per switch row in flat() (the topology's node count).
  [[nodiscard]] std::size_t stride() const { return stride_; }

  /// Number of switch rows in flat().
  [[nodiscard]] std::size_t switch_count() const {
    return stride_ == 0 ? 0 : lft_.size() / stride_;
  }

  /// Follow the tables from `src` to `dst`; returns the sequence of
  /// devices visited (starting with src's device, ending with dst's).
  /// Used by tests and topology debugging.
  [[nodiscard]] std::vector<DeviceId> trace(const Topology& topo, ib::NodeId src,
                                            ib::NodeId dst) const;

  /// Hop count (number of links traversed) from `src` to `dst`.
  [[nodiscard]] std::int32_t hops(const Topology& topo, ib::NodeId src, ib::NodeId dst) const {
    return static_cast<std::int32_t>(trace(topo, src, dst).size()) - 1;
  }

 private:
  std::vector<std::int32_t> switch_slot_;  // DeviceId -> dense switch index
  std::size_t stride_ = 0;                 // entries per switch row (node count)
  std::vector<std::int8_t> lft_;           // [slot * stride_ + dst] -> port
};

}  // namespace ibsim::topo
