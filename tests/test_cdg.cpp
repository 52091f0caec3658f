#include "cdg/cdg.hpp"

#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <utility>

#include "cdg/verify.hpp"
#include "common/rng.hpp"

namespace dfsssp {
namespace {

PathSet make_paths(std::initializer_list<std::vector<ChannelId>> seqs) {
  PathSet paths;
  std::uint32_t i = 0;
  for (const auto& s : seqs) {
    paths.add(i, i, s, 1);
    ++i;
  }
  return paths;
}

std::vector<std::uint32_t> all_members(const PathSet& paths) {
  std::vector<std::uint32_t> m(paths.size());
  std::iota(m.begin(), m.end(), 0U);
  return m;
}

/// The layer edge u -> v (its index in the core), failing when absent.
std::uint32_t edge_of(const Cdg& cdg, ChannelId u, ChannelId v) {
  const std::uint32_t e = cdg.core().find_edge(u, v);
  EXPECT_NE(e, CdgCore::kNoEdge) << u << " -> " << v;
  return e;
}

TEST(Cdg, BuildsEdgesWithPathLists) {
  // Two paths sharing the edge (1,2).
  PathSet paths = make_paths({{0, 1, 2}, {1, 2, 3}});
  CdgCore core(paths, 4, CdgCore::EdgePaths::kBuild);
  Cdg cdg(core, all_members(paths));
  EXPECT_EQ(core.num_edges(), 3U);  // (0,1) (1,2) (2,3)
  EXPECT_EQ(cdg.num_edges(), 3U);
  ASSERT_EQ(core.end_edge(1) - core.first_edge(1), 1U);
  const std::uint32_t e12 = core.first_edge(1);
  EXPECT_EQ(core.target(e12), 2U);
  EXPECT_EQ(cdg.edge(e12).alive_count, 2U);
  EXPECT_EQ(cdg.edge(e12).alive_weight, 2U);
  EXPECT_EQ(std::vector<std::uint32_t>(core.edge_paths(e12).begin(),
                                       core.edge_paths(e12).end()),
            (std::vector<std::uint32_t>{0, 1}));
}

TEST(Cdg, RemovePathDecrementsEdges) {
  PathSet paths = make_paths({{0, 1, 2}, {1, 2, 3}});
  CdgCore core(paths, 4, CdgCore::EdgePaths::kBuild);
  Cdg cdg(core, all_members(paths));
  cdg.remove_path(0);
  EXPECT_FALSE(cdg.path_alive(0));
  EXPECT_EQ(cdg.alive_members(), 1U);
  EXPECT_EQ(cdg.edge(edge_of(cdg, 1, 2)).alive_count, 1U);
  EXPECT_EQ(cdg.edge(edge_of(cdg, 0, 1)).alive_count, 0U);
  EXPECT_EQ(cdg.alive_paths(edge_of(cdg, 1, 2)),
            (std::vector<std::uint32_t>{1}));
}

TEST(Cdg, LayerCountsOnlyItsMembers) {
  // The core holds every path's edges; a layer over path 1 alone has only
  // (1,2) and (2,3), and its DFS never examines the core edge (0,1).
  PathSet paths = make_paths({{0, 1, 2}, {1, 2, 3}});
  CdgCore core(paths, 4, CdgCore::EdgePaths::kBuild);
  const std::vector<std::uint32_t> members{1};
  Cdg cdg(core, members);
  EXPECT_EQ(cdg.num_edges(), 2U);
  EXPECT_EQ(cdg.edge(edge_of(cdg, 0, 1)).path_count, 0U);
  EXPECT_EQ(cdg.edge(edge_of(cdg, 1, 2)).path_count, 1U);
  EXPECT_EQ(cdg.alive_paths(edge_of(cdg, 1, 2)),
            (std::vector<std::uint32_t>{1}));
  CycleFinder finder(cdg);
  std::vector<std::uint32_t> cycle;
  EXPECT_FALSE(finder.next_cycle(cycle));
  EXPECT_EQ(finder.steps(), 2U);
}

/// Random path soup: `num_paths` paths over `num_channels` channel nodes,
/// channels distinct within a path, lengths 0..max_len, weights 1..3.
PathSet random_paths(Rng& rng, std::uint32_t num_paths,
                     std::uint32_t num_channels, std::uint32_t max_len) {
  PathSet paths;
  for (std::uint32_t p = 0; p < num_paths; ++p) {
    std::vector<ChannelId> seq;
    std::vector<bool> used(num_channels, false);
    const auto len = static_cast<std::uint32_t>(rng.next_below(max_len + 1));
    for (std::uint32_t i = 0; i < len; ++i) {
      const auto c = static_cast<ChannelId>(rng.next_below(num_channels));
      if (used[c]) continue;
      used[c] = true;
      seq.push_back(c);
    }
    paths.add(p, p, seq, 1 + static_cast<std::uint32_t>(rng.next_below(3)));
  }
  return paths;
}

TEST(CdgCore, MatchesNaiveEdgeMap) {
  Rng rng(20261017);
  for (int round = 0; round < 20; ++round) {
    const std::uint32_t num_channels =
        2 + static_cast<std::uint32_t>(rng.next_below(40));
    const PathSet paths = random_paths(
        rng, 1 + static_cast<std::uint32_t>(rng.next_below(80)),
        num_channels, 1 + static_cast<std::uint32_t>(rng.next_below(8)));
    // Oracle: every (u, v) dependency with its inducing paths, in order.
    std::map<std::pair<ChannelId, ChannelId>, std::vector<std::uint32_t>>
        oracle;
    for (std::uint32_t p = 0; p < paths.size(); ++p) {
      auto seq = paths.channels(p);
      for (std::size_t i = 0; i + 1 < seq.size(); ++i) {
        oracle[{seq[i], seq[i + 1]}].push_back(p);
      }
    }

    const CdgCore core(paths, num_channels, CdgCore::EdgePaths::kBuild);
    ASSERT_EQ(core.num_edges(), oracle.size()) << "round " << round;
    // Walking the CSR source by source, target by target, visits the
    // oracle's keys in order: deduplicated, targets ascending per source.
    auto it = oracle.begin();
    for (ChannelId u = 0; u < num_channels; ++u) {
      for (std::uint32_t e = core.first_edge(u); e < core.end_edge(u); ++e) {
        ASSERT_NE(it, oracle.end());
        EXPECT_EQ(it->first, std::make_pair(u, core.target(e)));
        EXPECT_EQ(std::vector<std::uint32_t>(core.edge_paths(e).begin(),
                                             core.edge_paths(e).end()),
                  it->second);
        EXPECT_EQ(core.find_edge(u, core.target(e)), e);
        ++it;
      }
    }
    EXPECT_EQ(it, oracle.end());
    // Per-path edge ids name the path's consecutive channel pairs.
    for (std::uint32_t p = 0; p < paths.size(); ++p) {
      auto seq = paths.channels(p);
      auto edges = core.path_edges(p);
      ASSERT_EQ(edges.size(), seq.size() < 2 ? 0 : seq.size() - 1);
      for (std::size_t i = 0; i < edges.size(); ++i) {
        EXPECT_EQ(core.find_edge(seq[i], seq[i + 1]), edges[i]);
      }
    }
    // Without path lists the graph is the same.
    const CdgCore lean(paths, num_channels);
    ASSERT_EQ(lean.num_edges(), core.num_edges());
    for (std::uint32_t e = 0; e < core.num_edges(); ++e) {
      EXPECT_EQ(lean.target(e), core.target(e));
      EXPECT_TRUE(lean.edge_paths(e).empty());
    }
  }
}

TEST(Cdg, RemovePathMatchesFreshBuild) {
  Rng rng(7);
  for (int round = 0; round < 20; ++round) {
    const std::uint32_t num_channels =
        2 + static_cast<std::uint32_t>(rng.next_below(30));
    const PathSet paths =
        random_paths(rng, 60, num_channels, 6);
    const CdgCore core(paths, num_channels, CdgCore::EdgePaths::kBuild);
    std::vector<std::uint32_t> members;
    for (std::uint32_t p = 0; p < paths.size(); ++p) {
      if (paths.channels(p).size() >= 2 && rng.next_below(4) != 0) {
        members.push_back(p);
      }
    }
    Cdg cdg(core, members);
    std::vector<std::uint32_t> remaining;
    for (std::uint32_t p : members) {
      if (rng.next_below(2) == 0) {
        cdg.remove_path(p);
      } else {
        remaining.push_back(p);
      }
    }
    const Cdg fresh(core, remaining);
    EXPECT_EQ(cdg.alive_members(), fresh.alive_members());
    for (std::uint32_t e = 0; e < core.num_edges(); ++e) {
      EXPECT_EQ(cdg.edge(e).alive_count, fresh.edge(e).alive_count)
          << "round " << round << " edge " << e;
      EXPECT_EQ(cdg.edge(e).alive_weight, fresh.edge(e).alive_weight)
          << "round " << round << " edge " << e;
      EXPECT_EQ(cdg.alive_paths(e), fresh.alive_paths(e));
    }
    for (std::uint32_t p = 0; p < paths.size(); ++p) {
      EXPECT_EQ(cdg.path_alive(p), fresh.path_alive(p));
    }
  }
}

TEST(CycleFinderTest, FindsNoCycleInDag) {
  PathSet paths = make_paths({{0, 1, 2}, {0, 2, 3}});
  CdgCore core(paths, 4);
  Cdg cdg(core, all_members(paths));
  CycleFinder finder(cdg);
  std::vector<std::uint32_t> cycle;
  EXPECT_FALSE(finder.next_cycle(cycle));
}

TEST(CycleFinderTest, FindsSimpleCycle) {
  // Paths 0->1 and 1->0 create a 2-cycle between channel-nodes 0 and 1.
  PathSet paths = make_paths({{0, 1}, {1, 0}});
  CdgCore core(paths, 2);
  Cdg cdg(core, all_members(paths));
  CycleFinder finder(cdg);
  std::vector<std::uint32_t> cycle;
  ASSERT_TRUE(finder.next_cycle(cycle));
  EXPECT_EQ(cycle.size(), 2U);
}

TEST(CycleFinderTest, ResumeAfterCut) {
  // Two disjoint 2-cycles; cutting the first must still find the second.
  PathSet paths = make_paths({{0, 1}, {1, 0}, {2, 3}, {3, 2}});
  CdgCore core(paths, 4, CdgCore::EdgePaths::kBuild);
  Cdg cdg(core, all_members(paths));
  CycleFinder finder(cdg);
  std::vector<std::uint32_t> cycle;
  ASSERT_TRUE(finder.next_cycle(cycle));
  for (std::uint32_t p : cdg.alive_paths(cycle.front())) {
    cdg.remove_path(p);
  }
  finder.repair();
  ASSERT_TRUE(finder.next_cycle(cycle));
  for (std::uint32_t p : cdg.alive_paths(cycle.front())) {
    cdg.remove_path(p);
  }
  finder.repair();
  EXPECT_FALSE(finder.next_cycle(cycle));
}

TEST(AssignLayers, AcyclicInputStaysOneLayer) {
  PathSet paths = make_paths({{0, 1, 2}, {0, 2}, {1, 3}});
  LayerResult r = assign_layers_offline(paths, 4, {});
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.layers_used, 1);
  EXPECT_EQ(r.cycles_broken, 0U);
}

TEST(AssignLayers, BreaksRingCycle) {
  // The Figure 2 situation: a 5-ring routed clockwise; channels 0..4,
  // each 2-hop path uses (i, i+1 mod 5). The union is the full 5-cycle.
  PathSet paths = make_paths(
      {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}});
  LayerResult r = assign_layers_offline(paths, 5, {});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.layers_used, 2);
  EXPECT_GE(r.cycles_broken, 1U);
  EXPECT_TRUE(layering_is_deadlock_free(paths, r.layer, 5));
}

TEST(AssignLayers, Figure3Example) {
  // Paper Figure 3: channels a=0,b=1,c=2,d=3; p1=bc, p2=abc, p3=cdab;
  // k=2 admits a cover with {p1,p2} and {p3}.
  PathSet paths = make_paths({{1, 2}, {0, 1, 2}, {2, 3, 0, 1}});
  LayerOptions opts;
  opts.max_layers = 2;
  LayerResult r = assign_layers_offline(paths, 4, opts);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.layers_used, 2);
  EXPECT_TRUE(layering_is_deadlock_free(paths, r.layer, 4));
}

TEST(AssignLayers, FailsWhenOneLayerForced) {
  PathSet paths = make_paths({{0, 1}, {1, 0}});
  LayerOptions opts;
  opts.max_layers = 1;
  LayerResult r = assign_layers_offline(paths, 2, opts);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("not enough"), std::string::npos);
}

TEST(AssignLayers, WeakestEdgeMovesFewerPaths) {
  // Cycle 0->1->0 where edge (0,1) is induced by 3 paths and (1,0) by 1.
  PathSet paths = make_paths({{0, 1}, {0, 1}, {0, 1}, {1, 0}});
  LayerOptions opts;
  opts.heuristic = CycleHeuristic::kWeakestEdge;
  LayerResult r = assign_layers_offline(paths, 2, opts);
  ASSERT_TRUE(r.ok);
  // The single path inducing the weakest edge moved; the three stayed.
  EXPECT_EQ(r.layer[3], 1);
  EXPECT_EQ(r.layer[0], 0);
  EXPECT_EQ(r.layer[1], 0);
  EXPECT_EQ(r.layer[2], 0);
}

TEST(AssignLayers, HeaviestEdgeMovesMorePaths) {
  PathSet paths = make_paths({{0, 1}, {0, 1}, {0, 1}, {1, 0}});
  LayerOptions opts;
  opts.heuristic = CycleHeuristic::kHeaviestEdge;
  LayerResult r = assign_layers_offline(paths, 2, opts);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.layer[0], 1);
  EXPECT_EQ(r.layer[1], 1);
  EXPECT_EQ(r.layer[2], 1);
  EXPECT_EQ(r.layer[3], 0);
}

TEST(AssignLayers, WeightsDriveWeakestChoice) {
  // Same shape but the single path on (1,0) is heavy (weight 5): the
  // weakest edge is now (0,1) with weight 3.
  PathSet paths;
  paths.add(0, 0, std::vector<ChannelId>{0, 1}, 3);
  paths.add(1, 1, std::vector<ChannelId>{1, 0}, 5);
  LayerOptions opts;
  opts.heuristic = CycleHeuristic::kWeakestEdge;
  LayerResult r = assign_layers_offline(paths, 2, opts);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.layer[0], 1);
  EXPECT_EQ(r.layer[1], 0);
}

TEST(AssignLayers, AllHeuristicsProduceValidCovers) {
  Rng rng(1234);
  for (CycleHeuristic h : {CycleHeuristic::kWeakestEdge,
                           CycleHeuristic::kHeaviestEdge,
                           CycleHeuristic::kFirstEdge}) {
    for (int round = 0; round < 10; ++round) {
      // Random path soup over 12 channel nodes.
      PathSet paths;
      const std::uint32_t num_channels = 12;
      for (int p = 0; p < 30; ++p) {
        std::vector<ChannelId> seq;
        std::vector<bool> used(num_channels, false);
        std::uint32_t len = 2 + static_cast<std::uint32_t>(rng.next_below(5));
        for (std::uint32_t i = 0; i < len; ++i) {
          ChannelId c = static_cast<ChannelId>(rng.next_below(num_channels));
          if (used[c]) break;
          used[c] = true;
          seq.push_back(c);
        }
        if (seq.size() >= 2) {
          paths.add(p, p, seq, 1 + static_cast<std::uint32_t>(rng.next_below(3)));
        }
      }
      LayerOptions opts;
      opts.heuristic = h;
      // A pairwise-conflicting path clique can force up to |P| layers even
      // under an optimal partition, so give the full budget.
      opts.max_layers = static_cast<Layer>(paths.size());
      LayerResult r = assign_layers_offline(paths, num_channels, opts);
      ASSERT_TRUE(r.ok) << to_string(h) << " round " << round;
      EXPECT_TRUE(layering_is_deadlock_free(paths, r.layer, num_channels))
          << to_string(h) << " round " << round;
    }
  }
}

TEST(BalanceLayers, SpreadsOntoEmptyLayersAndStaysAcyclic) {
  // 8 disjoint acyclic paths in layer 0; balancing over 4 layers should
  // spread them (weighted) and preserve acyclicity trivially.
  PathSet paths;
  for (std::uint32_t p = 0; p < 8; ++p) {
    paths.add(p, p, std::vector<ChannelId>{3 * p, 3 * p + 1, 3 * p + 2}, 1);
  }
  std::vector<Layer> layer(8, 0);
  Layer used = balance_layers(paths, layer, 1, 4);
  EXPECT_EQ(used, 4);
  std::vector<int> count(4, 0);
  for (Layer l : layer) {
    ASSERT_LT(l, 4);
    ++count[l];
  }
  for (int c : count) EXPECT_EQ(c, 2);
  EXPECT_TRUE(layering_is_deadlock_free(paths, layer, 24));
}

TEST(BalanceLayers, NoOpWhenAllLayersUsed) {
  PathSet paths = make_paths({{0, 1}, {1, 0}});
  std::vector<Layer> layer{0, 1};
  EXPECT_EQ(balance_layers(paths, layer, 2, 2), 2);
  EXPECT_EQ(layer[0], 0);
  EXPECT_EQ(layer[1], 1);
}

TEST(AssignLayers, OffsetBalanceKeepsCover) {
  // End-to-end: cyclic input, 8 available layers, balancing on.
  PathSet paths = make_paths(
      {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {0, 2}, {2, 4}, {4, 1}, {1, 3},
       {3, 0}});
  LayerOptions opts;
  opts.balance = true;
  LayerResult r = assign_layers_offline(paths, 5, opts);
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE(layering_is_deadlock_free(paths, r.layer, 5));
  EXPECT_GE(r.layers_used, 2);
}

}  // namespace
}  // namespace dfsssp
