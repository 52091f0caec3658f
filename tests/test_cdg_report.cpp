#include "cdg/report.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "cdg/cdg.hpp"
#include "routing/collect.hpp"
#include "routing/dfsssp.hpp"
#include "topology/generators.hpp"

namespace dfsssp {
namespace {

TEST(CdgReport, StatsForHandBuiltLayers) {
  PathSet paths;
  paths.add(0, 0, std::vector<ChannelId>{0, 1, 2}, 2);  // layer 0
  paths.add(1, 1, std::vector<ChannelId>{1, 2}, 1);     // layer 0
  paths.add(2, 2, std::vector<ChannelId>{2, 0}, 3);     // layer 1
  std::vector<Layer> layer{0, 0, 1};
  auto stats = cdg_layer_stats(paths, layer, 3);
  ASSERT_EQ(stats.size(), 2U);
  EXPECT_EQ(stats[0].paths, 2U);
  EXPECT_EQ(stats[0].weight, 3U);
  EXPECT_EQ(stats[0].nodes, 3U);
  EXPECT_EQ(stats[0].edges, 2U);          // (0,1), (1,2)
  EXPECT_EQ(stats[0].max_edge_weight, 3U);  // (1,2) carries both paths
  EXPECT_EQ(stats[1].paths, 1U);
  EXPECT_EQ(stats[1].edges, 1U);
  EXPECT_EQ(stats[1].max_edge_weight, 3U);
}

TEST(CdgReport, StatsMatchRoutedLayers) {
  Topology topo = make_ring(6, 2);
  RouteResponse out = DfssspRouter().route(RouteRequest(topo));
  ASSERT_TRUE(out.ok);
  PathSet paths;
  std::vector<Layer> layers;
  collect_paths(topo.net, out.table, paths, layers);
  auto stats = cdg_layer_stats(paths, layers,
                               static_cast<std::uint32_t>(topo.net.num_channels()));
  std::uint64_t total_paths = 0;
  for (const auto& s : stats) total_paths += s.paths;
  EXPECT_EQ(total_paths, paths.size());
  EXPECT_GE(stats.size(), out.stats.layers_used);
}

TEST(CdgReport, DotExportNamesChannels) {
  Topology topo = make_ring(5, 1);
  RouteResponse out = DfssspRouter().route(RouteRequest(topo));
  ASSERT_TRUE(out.ok);
  PathSet paths;
  std::vector<Layer> layers;
  collect_paths(topo.net, out.table, paths, layers);
  std::ostringstream os;
  write_cdg_dot(topo.net, paths, layers, 0, os);
  const std::string dot = os.str();
  EXPECT_NE(dot.find("digraph cdg_layer_0"), std::string::npos);
  // Channel nodes are named "<src>-><dst>"; some ring channel must appear.
  EXPECT_NE(dot.find("\"sw"), std::string::npos);
  EXPECT_NE(dot.find("->sw"), std::string::npos);
  EXPECT_NE(dot.find("label="), std::string::npos);
}

TEST(CdgReport, EmptyLayerReported) {
  PathSet paths;
  paths.add(0, 0, std::vector<ChannelId>{0, 1}, 1);
  paths.add(1, 1, std::vector<ChannelId>{1, 0}, 1);
  std::vector<Layer> layer{0, 2};  // layer 1 unused
  auto stats = cdg_layer_stats(paths, layer, 2);
  ASSERT_EQ(stats.size(), 3U);
  EXPECT_EQ(stats[1].paths, 0U);
  EXPECT_EQ(stats[1].edges, 0U);
}

}  // namespace
}  // namespace dfsssp
