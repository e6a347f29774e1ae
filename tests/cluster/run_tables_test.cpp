// The cluster engine's per-run layout and peer tables against the functions
// they replace: LayoutTable against BlockCyclic for every (k, d) of every
// process grid of several device counts, more devices than block columns
// included, and PeerTable against LinkTopology::peer for every ordered pair
// of every registered cluster profile. Doubles are compared with memcmp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bsr/bsr.hpp"
#include "cluster/distribution.hpp"
#include "cluster/topology.hpp"

namespace bsr::cluster {
namespace {

/// Every (p, q) with p * q == devices, in ascending p.
std::vector<BlockCyclic> all_grids(int devices) {
  std::vector<BlockCyclic> grids;
  for (int p = 1; p <= devices; ++p) {
    if (devices % p != 0) continue;
    grids.push_back(BlockCyclic{devices, p, devices / p});
  }
  return grids;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

TEST(LayoutTable, EveryEntryHasTheBitsOfBlockCyclic) {
  int checked = 0;
  for (const auto& [n, b] : {std::pair<std::int64_t, std::int64_t>{4096, 256},
                             {8192, 256},
                             {1000, 96},
                             {512, 256},
                             {256, 256}}) {
    const predict::WorkloadModel wl{predict::Factorization::LU, n, b, 8};
    for (const int devices : {1, 2, 3, 4, 6, 8, 12, 16, 64}) {
      std::vector<BlockCyclic> grids = all_grids(devices);
      grids.push_back(BlockCyclic{devices, 0, 0});  // the engine's 1-D default
      for (const BlockCyclic& dist : grids) {
        const LayoutTable table(dist, wl);
        for (int k = 0; k < wl.num_iterations(); ++k) {
          EXPECT_EQ(table.owner(k), dist.owner(k));
          for (int d = 0; d < devices; ++d) {
            EXPECT_TRUE(same_bits(table.share(k, d), dist.share(wl, k, d)))
                << "grid " << dist.p() << "x" << dist.q() << " k=" << k
                << " d=" << d;
            EXPECT_EQ(table.has_work(k, d), dist.has_work(wl, k, d));
            EXPECT_TRUE(same_bits(table.row_slice(k, d),
                                  dist.row_slice(wl, k, dist.row_group(d))));
            EXPECT_EQ(table.local_cols(k, d), dist.local_cols(wl, k, d));
            ++checked;
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 10000);
}

TEST(LayoutTable, MoreDevicesThanBlockColumnsLeaveSomeIdleFromTheStart) {
  const predict::WorkloadModel wl{predict::Factorization::LU, 1024, 256, 8};
  const BlockCyclic dist{16, 0, 0};  // K = 4: three trailing columns at k = 0
  const LayoutTable table(dist, wl);
  int idle = 0;
  for (int d = 0; d < 16; ++d) idle += table.has_work(0, d) ? 0 : 1;
  EXPECT_EQ(idle, 13);
}

/// Every ordered (src, dst) in [-1, devices] x [-1, devices]: out-of-range
/// ids must find nothing, as the map would.
void expect_peer_table_matches(const LinkTopology& links, int devices,
                               const std::string& name) {
  const PeerTable table(links, devices);
  std::map<std::pair<int, int>, int> port_of;
  std::set<int> ports;
  for (int src = -1; src <= devices; ++src) {
    for (int dst = -1; dst <= devices; ++dst) {
      const bool covered = src >= 0 && src < devices;
      const hw::TransferModel* want = covered ? links.peer(src, dst) : nullptr;
      const PeerTable::Peer got = table.find(src, dst);
      EXPECT_EQ(got.link, want) << name << " " << src << "->" << dst;
      if (got.link == nullptr) continue;
      EXPECT_GE(got.port, 0);
      EXPECT_LT(got.port, table.num_ports());
      ports.insert(got.port);
      // (src, dst) and (dst, src) share one port; distinct pairs do not.
      const auto [it, fresh] =
          port_of.try_emplace(std::minmax(src, dst), got.port);
      EXPECT_EQ(it->second, got.port) << name << " " << src << "->" << dst;
      (void)fresh;
    }
  }
  EXPECT_EQ(ports.size(), port_of.size()) << name;
}

TEST(PeerTable, FindsWhatLinkTopologyPeerFindsForEveryOrderedPair) {
  for (const std::string& key : cluster_profiles().keys()) {
    for (const int devices : {1, 2, 7, cluster_profile_info(key).capacity}) {
      const ClusterProfile profile = make_cluster_profile(key, devices);
      expect_peer_table_matches(profile.links, devices,
                                key + " x" + std::to_string(devices));
    }
  }
  EXPECT_FALSE(make_cluster_profile("rack_8x8", 64).links.peer_links.empty());
}

TEST(PeerTable, PrefersTheForwardRegistrationAndIgnoresUncoveredIds) {
  LinkTopology links;
  links.host_links.resize(4);
  links.peer_links.emplace(std::make_pair(0, 1), hw::TransferModel{40.0});
  links.peer_links.emplace(std::make_pair(1, 0), hw::TransferModel{20.0});
  links.peer_links.emplace(std::make_pair(3, 2), hw::TransferModel{10.0});
  links.peer_links.emplace(std::make_pair(2, 2), hw::TransferModel{5.0});
  links.peer_links.emplace(std::make_pair(3, 9), hw::TransferModel{1.0});
  links.peer_links.emplace(std::make_pair(-1, 0), hw::TransferModel{2.0});
  expect_peer_table_matches(links, 4, "hand-made");
  const PeerTable table(links, 4);
  EXPECT_EQ(table.find(0, 1).link->bandwidth_gbs, 40.0);
  EXPECT_EQ(table.find(1, 0).link->bandwidth_gbs, 20.0);
  EXPECT_EQ(table.find(0, 1).port, table.find(1, 0).port);
  EXPECT_EQ(table.find(2, 3).link->bandwidth_gbs, 10.0);
}

}  // namespace
}  // namespace bsr::cluster
