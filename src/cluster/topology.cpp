#include "cluster/topology.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace bsr::cluster {

namespace {

const hw::TransferModel& link_or_throw(
    const std::vector<hw::TransferModel>& links, int device) {
  if (device < 0 || static_cast<std::size_t>(device) >= links.size()) {
    throw std::out_of_range("LinkTopology: no link for device " +
                            std::to_string(device) + " (have " +
                            std::to_string(links.size()) + ")");
  }
  return links[static_cast<std::size_t>(device)];
}

}  // namespace

int LinkTopology::num_nodes() const {
  int last = 0;
  for (const int n : node_of) last = std::max(last, n);
  return last + 1;
}

SimTime LinkTopology::host_to_device(int device, double bytes) const {
  const hw::TransferModel& link = link_or_throw(host_links, device);
  SimTime t = max(link.time_for_bytes(bytes), host_bus.time_for_bytes(bytes));
  if (node(device) != 0) {
    // Remote node: the transfer additionally crosses the inter-node network
    // and the target node's local bus. Segments are pipelined (store-and-
    // forward at wire speed), so the uncontended duration is the slowest
    // segment, exactly like the link-vs-bus rule above.
    t = max(t, internode.time_for_bytes(bytes));
    t = max(t, node_bus.time_for_bytes(bytes));
  }
  return t;
}

SimTime LinkTopology::device_to_host(int device, double bytes) const {
  // Links are symmetric; the distinction exists for callers' readability.
  return host_to_device(device, bytes);
}

const hw::TransferModel* LinkTopology::peer(int src, int dst) const {
  if (auto it = peer_links.find({src, dst}); it != peer_links.end()) {
    return &it->second;
  }
  if (auto it = peer_links.find({dst, src}); it != peer_links.end()) {
    return &it->second;
  }
  return nullptr;
}

PeerTable::PeerTable(const LinkTopology& links, int devices)
    : first_(static_cast<std::size_t>(std::max(devices, 0)) + 1, 0) {
  const auto covered = [devices](int d) { return d >= 0 && d < devices; };
  // Port slots: links sorted by their unordered device pair, one slot per
  // distinct pair, recorded by each link's position in map order.
  std::vector<std::pair<std::pair<int, int>, std::size_t>> pairs;
  pairs.reserve(links.peer_links.size());
  for (const auto& [key, link] : links.peer_links) {
    pairs.emplace_back(std::minmax(key.first, key.second), pairs.size());
    if (covered(key.first)) ++first_[static_cast<std::size_t>(key.first) + 1];
    if (covered(key.second)) {
      ++first_[static_cast<std::size_t>(key.second) + 1];
    }
  }
  std::sort(pairs.begin(), pairs.end());
  std::vector<int> port(pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (i == 0 || pairs[i].first != pairs[i - 1].first) ++num_ports_;
    port[pairs[i].second] = num_ports_ - 1;
  }
  for (std::size_t d = 1; d < first_.size(); ++d) first_[d] += first_[d - 1];
  entries_.resize(static_cast<std::size_t>(first_.back()));
  std::vector<int> fill(first_.begin(), first_.end() - 1);
  // Two passes keep every (d, x) registration ahead of every (x, d) one.
  for (const bool forward : {true, false}) {
    std::size_t i = 0;
    for (const auto& [key, link] : links.peer_links) {
      const int self = forward ? key.first : key.second;
      if (covered(self)) {
        Entry& e = entries_[static_cast<std::size_t>(
            fill[static_cast<std::size_t>(self)]++)];
        e.other = forward ? key.second : key.first;
        e.peer = {&link, port[i]};
      }
      ++i;
    }
  }
}

PeerTable::Peer PeerTable::find(int src, int dst) const {
  if (src < 0 || static_cast<std::size_t>(src) + 1 >= first_.size()) return {};
  const int end = first_[static_cast<std::size_t>(src) + 1];
  for (int i = first_[static_cast<std::size_t>(src)]; i < end; ++i) {
    const Entry& e = entries_[static_cast<std::size_t>(i)];
    if (e.other == dst) return e.peer;
  }
  return {};
}

SimTime LinkTopology::device_to_device(int src, int dst, double bytes) const {
  if (src == dst) return SimTime::zero();
  if (const hw::TransferModel* direct = peer(src, dst)) {
    return direct->time_for_bytes(bytes);
  }
  return device_to_host(src, bytes) + staging_latency +
         host_to_device(dst, bytes);
}

ClusterProfile ClusterProfile::paper_scaleout(int num_gpus) {
  if (num_gpus < 1) {
    throw std::invalid_argument("ClusterProfile: need num_gpus >= 1 (got " +
                                std::to_string(num_gpus) + ")");
  }
  const hw::PlatformProfile single = hw::PlatformProfile::paper_default();
  ClusterProfile c;
  c.host = single.cpu;
  c.devices.assign(static_cast<std::size_t>(num_gpus), single.gpu);
  for (int d = 0; d < num_gpus; ++d) {
    c.devices[static_cast<std::size_t>(d)].name =
        single.gpu.name + " #" + std::to_string(d);
  }
  // Every device keeps the paper's x16 link; the shared root complex sustains
  // roughly two concurrent x16 streams before transfers start queueing.
  c.links.host_links.assign(static_cast<std::size_t>(num_gpus), single.link);
  c.links.host_bus = {.bandwidth_gbs = 2.0 * single.link.bandwidth_gbs,
                      .latency = single.link.latency};
  c.links.staging_latency = SimTime::from_micros(25.0);
  return c;
}

ClusterProfile ClusterProfile::nvlink_pairs(int num_gpus) {
  ClusterProfile c = paper_scaleout(num_gpus);
  const hw::TransferModel nvlink{.bandwidth_gbs = 40.0,
                                 .latency = SimTime::from_micros(3.0)};
  for (int d = 0; d + 1 < num_gpus; d += 2) {
    c.links.peer_links.emplace(std::make_pair(d, d + 1), nvlink);
  }
  return c;
}

void check_profile_capacity(const std::string& profile_name, int num_gpus,
                            int capacity) {
  if (num_gpus <= capacity) return;
  throw std::invalid_argument("cluster profile \"" + profile_name +
                              "\" holds at most " + std::to_string(capacity) +
                              " devices; got " + std::to_string(num_gpus));
}

ClusterProfile ClusterProfile::rack(int num_gpus, int per_node, int max_nodes,
                                    const std::string& profile_name) {
  check_profile_capacity(profile_name, num_gpus, per_node * max_nodes);
  ClusterProfile c = paper_scaleout(num_gpus);
  c.devices_per_node = per_node;
  c.links.node_of.resize(static_cast<std::size_t>(num_gpus));
  for (int d = 0; d < num_gpus; ++d) {
    c.links.node_of[static_cast<std::size_t>(d)] = d / per_node;
  }
  // The rack chassis are a hardware generation ahead of the paper's testbed:
  // PCIe 4.0 x16 per device behind a root complex that sustains two
  // concurrent gen4 streams (DGX-class dual-socket I/O).
  const hw::TransferModel gen4{.bandwidth_gbs = 25.0,
                               .latency = SimTime::from_micros(5.0)};
  c.links.host_links.assign(static_cast<std::size_t>(num_gpus), gen4);
  c.links.host_bus = {.bandwidth_gbs = 2.0 * gen4.bandwidth_gbs,
                      .latency = gen4.latency};
  // Each non-host node mirrors the host's root complex; the inter-node
  // fabric sustains one HDR-class stream between any two chassis.
  c.links.node_bus = c.links.host_bus;
  c.links.internode = {.bandwidth_gbs = 25.0,
                       .latency = SimTime::from_micros(5.0)};
  // DGX-style all-to-all NVLink inside every node: peer traffic between
  // chassis still stages through the hosts.
  const hw::TransferModel nvlink{.bandwidth_gbs = 40.0,
                                 .latency = SimTime::from_micros(3.0)};
  for (int a = 0; a < num_gpus; ++a) {
    for (int b = a + 1; b < num_gpus; ++b) {
      if (a / per_node != b / per_node) continue;
      c.links.peer_links.emplace(std::make_pair(a, b), nvlink);
    }
  }
  return c;
}

}  // namespace bsr::cluster
