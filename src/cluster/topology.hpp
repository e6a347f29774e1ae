// Cluster platform: N accelerator devices behind one host, with a link
// topology generalizing the single PCIe link of hw::PlatformProfile.
//
// Every accelerator hangs off the host on its own hw::TransferModel link
// (dedicated lanes), but all host<->device traffic additionally crosses the
// shared host bus (root complex / host memory system): a transfer occupies
// both its link and the bus, so broadcasting a panel to eight devices is
// bus-bound even though the eight links are independent. Device-to-device
// traffic is staged through host memory (d2h + staging + h2d) unless an
// explicit peer link (NVLink-style) is registered for the pair.
//
// A topology may additionally be *hierarchical*: devices group into nodes
// (node_of), each node has its own local bus, and traffic leaving the host's
// node (node 0, where the host lives) crosses the shared inter-node network
// on top of the host bus. A flat topology (node_of empty) is bit-for-bit the
// pre-hierarchical model: only the link and the host bus are consulted.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "hw/platform.hpp"
#include "hw/transfer.hpp"

namespace bsr::cluster {

struct LinkTopology {
  /// host_links[d] carries all traffic between the host and accelerator d.
  std::vector<hw::TransferModel> host_links;
  /// The shared root-complex / host-memory bus every host<->device transfer
  /// also crosses. A transfer's duration is the slower of its link and the
  /// bus; concurrent transfers on different links still serialize on the bus.
  hw::TransferModel host_bus;
  /// Fixed software cost of staging one device-to-device hop through host
  /// memory (pinned-buffer bounce).
  SimTime staging_latency;
  /// Optional direct device<->device links, keyed by (src, dst); lookups fall
  /// back to the (dst, src) entry, so one registration covers both directions.
  std::map<std::pair<int, int>, hw::TransferModel> peer_links;

  // -- hierarchy (rack profiles) ----------------------------------------------
  /// node_of[d] is the node (chassis) device d sits in; empty = flat topology
  /// (every device on the host's node). The host lives on node 0.
  std::vector<int> node_of;
  /// Local bus of each non-host node: host<->device traffic to node j > 0
  /// additionally crosses node j's bus. Node 0's bus IS host_bus.
  hw::TransferModel node_bus;
  /// The shared inter-node network (switch fabric). Every transfer whose
  /// endpoints sit on different nodes crosses it exactly once.
  hw::TransferModel internode;

  [[nodiscard]] std::size_t num_devices() const { return host_links.size(); }

  /// Node of device d: node_of[d], or 0 for a flat topology.
  [[nodiscard]] int node(int device) const {
    return node_of.empty() ? 0 : node_of[static_cast<std::size_t>(device)];
  }
  /// 1 + max(node_of) (1 for a flat topology).
  [[nodiscard]] int num_nodes() const;
  /// True for rack-style topologies (node_of populated), even when every
  /// populated device happens to sit in node 0: the hierarchical scheduling
  /// rules (send-port serialization, panel-priority look-ahead, critical-
  /// lane boost) key off the profile's *shape*, not the device count, so a
  /// rack's scaling curve is one consistent model from 1 device up. Flat
  /// profiles (empty node_of) keep the pre-hierarchical engine bit-for-bit.
  [[nodiscard]] bool hierarchical() const { return !node_of.empty(); }

  /// Uncontended transfer times (the engine adds queueing on top).
  [[nodiscard]] SimTime host_to_device(int device, double bytes) const;
  [[nodiscard]] SimTime device_to_host(int device, double bytes) const;
  /// Peer link when registered, else d2h + staging + h2d through the host.
  [[nodiscard]] SimTime device_to_device(int src, int dst, double bytes) const;
  /// The registered peer link for (src, dst) in either orientation, if any.
  [[nodiscard]] const hw::TransferModel* peer(int src, int dst) const;
};

/// LinkTopology::peer_links as flat per-device arrays, built once per run:
/// lookups scan a device's few registered peers instead of searching the
/// map twice, and each unordered device pair gets one port slot for the
/// engine's link-busy times. Size is linear in the registered links.
class PeerTable {
 public:
  /// Covers devices [0, devices); links naming other ids are never found.
  PeerTable(const LinkTopology& links, int devices);

  struct Peer {
    const hw::TransferModel* link = nullptr;  ///< null: no peer link
    int port = -1;  ///< slot shared by (src, dst) and (dst, src)
  };
  /// The link LinkTopology::peer(src, dst) returns, with its port slot.
  [[nodiscard]] Peer find(int src, int dst) const;
  /// Number of port slots (distinct unordered pairs with a link).
  [[nodiscard]] int num_ports() const { return num_ports_; }

 private:
  struct Entry {
    int other = 0;
    Peer peer;
  };
  /// Device d's entries are entries_[first_[d] .. first_[d + 1]): the links
  /// registered as (d, x) in map order, then those registered as (x, d), so
  /// a scan meets the (src, dst) registration before (dst, src), as peer()
  /// does.
  std::vector<int> first_;
  std::vector<Entry> entries_;
  int num_ports_ = 0;
};

/// The full simulated cluster: one host (panel factorization, staging) plus
/// `devices.size()` accelerators sharing the trailing-matrix work.
struct ClusterProfile {
  hw::DeviceModel host;
  std::vector<hw::DeviceModel> devices;
  LinkTopology links;
  /// Devices per node for rack-style profiles; 0 = flat single-node profile.
  /// Drives the node geometry of `--nodes` axes and the auto process-grid /
  /// auto collective resolution (flat profiles keep the 1-D relay behavior).
  int devices_per_node = 0;

  [[nodiscard]] int num_devices() const {
    return static_cast<int>(devices.size());
  }

  /// The paper's i7-9700K host with `num_gpus` replicated RTX 2080 Ti
  /// devices: per-device PCIe 3.0 x16 links behind a shared 24 GB/s host bus.
  /// At num_gpus = 1 the device and link match hw::PlatformProfile::
  /// paper_default() exactly.
  static ClusterProfile paper_scaleout(int num_gpus);

  /// paper_scaleout with NVLink-style 40 GB/s peer links between adjacent
  /// device pairs (0-1, 2-3, ...), for topologies where peer traffic should
  /// not stage through the host.
  static ClusterProfile nvlink_pairs(int num_gpus);

  /// A rack of `max_nodes` DGX-style nodes, each holding `per_node` paper
  /// GPUs behind its own node bus, with all-to-all 40 GB/s NVLink peer links
  /// inside every node and a shared 25 GB/s inter-node network. Devices fill
  /// nodes in order (device d sits on node d / per_node); the host lives on
  /// node 0. Throws std::invalid_argument naming `profile_name` and the rack
  /// capacity when num_gpus exceeds max_nodes * per_node.
  static ClusterProfile rack(int num_gpus, int per_node, int max_nodes,
                             const std::string& profile_name);
};

/// Throws std::invalid_argument naming the profile and its capacity when
/// `num_gpus` exceeds it — the shared loud-failure path for every profile
/// factory and for RunConfig/--devices validation.
void check_profile_capacity(const std::string& profile_name, int num_gpus,
                            int capacity);

}  // namespace bsr::cluster
