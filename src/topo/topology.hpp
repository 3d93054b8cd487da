#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ib/types.hpp"

namespace ibsim::topo {

/// Device index within a Topology (HCAs and switches share the space).
using DeviceId = std::int32_t;
inline constexpr DeviceId kInvalidDevice = -1;

enum class DeviceKind : std::uint8_t { Hca, Switch };

/// The widest switch the simulator models: the switch's arbitration
/// keeps one bit per input port in a 64-bit mask, and a forwarding-table
/// entry is one signed byte. Comfortably above the 36-port crossbars of
/// the paper's fabric; the 10k fat-tree's aggregation and core switches
/// sit exactly at it.
inline constexpr std::int32_t kMaxSwitchPorts = 64;

/// (device, port) address of one end of a link.
struct PortRef {
  DeviceId device = kInvalidDevice;
  std::int32_t port = -1;

  [[nodiscard]] bool valid() const { return device != kInvalidDevice && port >= 0; }
  friend bool operator==(const PortRef&, const PortRef&) = default;
};

/// A physical cabling description: devices, their port counts, and the
/// point-to-point links between ports. This is pure structure — rates,
/// buffers and behaviour belong to the fabric layer.
class Topology {
 public:
  /// Add a switch with `ports` ports. Returns its device id.
  DeviceId add_switch(std::int32_t ports, std::string name = {});

  /// Add a single-port HCA (an end node). Returns its device id. HCAs are
  /// assigned consecutive NodeIds in creation order.
  DeviceId add_hca(std::string name = {});

  /// Cable two free ports together (bidirectional full-duplex link).
  void connect(PortRef a, PortRef b);

  [[nodiscard]] std::int32_t device_count() const { return static_cast<std::int32_t>(devices_.size()); }
  [[nodiscard]] DeviceKind kind(DeviceId dev) const { return devices_[static_cast<std::size_t>(dev)].kind; }
  [[nodiscard]] std::int32_t port_count(DeviceId dev) const { return devices_[static_cast<std::size_t>(dev)].ports; }
  [[nodiscard]] const std::string& name(DeviceId dev) const { return devices_[static_cast<std::size_t>(dev)].name; }

  /// The port on the other end of the cable, or an invalid ref if the
  /// port is not cabled.
  [[nodiscard]] PortRef peer(PortRef p) const;
  [[nodiscard]] bool connected(PortRef p) const { return peer(p).valid(); }

  /// Number of end nodes (HCAs).
  [[nodiscard]] std::int32_t node_count() const { return static_cast<std::int32_t>(hcas_.size()); }

  /// Device id of end node `node`.
  [[nodiscard]] DeviceId hca_device(ib::NodeId node) const { return hcas_[static_cast<std::size_t>(node)]; }

  /// NodeId of an HCA device (asserts on switches).
  [[nodiscard]] ib::NodeId node_of(DeviceId dev) const;

  /// All switch device ids, in creation order.
  [[nodiscard]] const std::vector<DeviceId>& switches() const { return switches_; }

  /// Cut-minimizing partition hint for the shard planner: switches that
  /// share a group (a leaf pod, a mesh row, ...) are kept adjacent in
  /// the planner's ordering so shard boundaries fall on the sparse
  /// inter-group links. -1 (the default) means "no preference"; the
  /// planner then falls back to creation order.
  void set_partition_group(DeviceId dev, std::int32_t group) {
    devices_[static_cast<std::size_t>(dev)].partition_group = group;
  }
  [[nodiscard]] std::int32_t partition_group(DeviceId dev) const {
    return devices_[static_cast<std::size_t>(dev)].partition_group;
  }

  /// Check structural sanity: every HCA cabled, no self-links, port
  /// references in range. Returns an error description or empty string.
  [[nodiscard]] std::string validate() const;

 private:
  struct Device {
    DeviceKind kind;
    std::int32_t ports;
    std::string name;
    std::int32_t first_port;  // index into port_peers_
    ib::NodeId node = ib::kInvalidNode;
    std::int32_t partition_group = -1;
  };

  [[nodiscard]] std::size_t port_slot(PortRef p) const;

  std::vector<Device> devices_;
  std::vector<PortRef> port_peers_;
  std::vector<DeviceId> hcas_;
  std::vector<DeviceId> switches_;
};

}  // namespace ibsim::topo
