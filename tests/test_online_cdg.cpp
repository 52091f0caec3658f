#include "cdg/online.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "cdg/first_fit.hpp"
#include "cdg/verify.hpp"
#include "common/rng.hpp"

namespace dfsssp {
namespace {

TEST(OnlineCdg, AcceptsAcyclicPaths) {
  OnlineCdg cdg(5);
  EXPECT_TRUE(cdg.try_add_path(std::vector<ChannelId>{0, 1, 2}));
  EXPECT_TRUE(cdg.try_add_path(std::vector<ChannelId>{0, 2, 3}));
  EXPECT_TRUE(cdg.try_add_path(std::vector<ChannelId>{3, 4}));
  EXPECT_EQ(cdg.num_paths(), 3U);
  EXPECT_TRUE(cdg.has_edge(0, 1));
  EXPECT_TRUE(cdg.has_edge(3, 4));
}

TEST(OnlineCdg, RejectsCycleClosingPathAndRollsBack) {
  OnlineCdg cdg(4);
  EXPECT_TRUE(cdg.try_add_path(std::vector<ChannelId>{0, 1, 2}));
  // 2 -> 3 -> 0 would close 0->1->2->3->0.
  EXPECT_FALSE(cdg.try_add_path(std::vector<ChannelId>{2, 3, 0}));
  EXPECT_EQ(cdg.num_paths(), 1U);
  // Rollback: the partial edge (2,3) must be gone.
  EXPECT_FALSE(cdg.has_edge(2, 3));
  // And an acyclic path using (2,3) must still be accepted.
  EXPECT_TRUE(cdg.try_add_path(std::vector<ChannelId>{2, 3}));
}

TEST(OnlineCdg, RefcountsSharedEdges) {
  OnlineCdg cdg(3);
  EXPECT_TRUE(cdg.try_add_path(std::vector<ChannelId>{0, 1}));
  EXPECT_TRUE(cdg.try_add_path(std::vector<ChannelId>{0, 1, 2}));
  EXPECT_EQ(cdg.num_edges(), 2U);  // (0,1) shared, (1,2)
}

TEST(OnlineCdg, RejectsTwoCycle) {
  OnlineCdg cdg(2);
  EXPECT_TRUE(cdg.try_add_path(std::vector<ChannelId>{0, 1}));
  EXPECT_FALSE(cdg.try_add_path(std::vector<ChannelId>{1, 0}));
}

TEST(OnlineCdg, ReorderKeepsAcceptingValidEdges) {
  // Insert the chain 0->1->...->5 back to front: every path forces a
  // Pearce-Kelly reorder (new edges point at smaller initial order values).
  OnlineCdg cdg(6);
  EXPECT_TRUE(cdg.try_add_path(std::vector<ChannelId>{4, 5}));
  EXPECT_TRUE(cdg.try_add_path(std::vector<ChannelId>{2, 3, 4}));
  EXPECT_TRUE(cdg.try_add_path(std::vector<ChannelId>{0, 1, 2}));
  // The chain is now complete; closing it must be rejected...
  EXPECT_FALSE(cdg.try_add_path(std::vector<ChannelId>{5, 0}));
  // ...but a parallel shortcut in chain direction is fine.
  EXPECT_TRUE(cdg.try_add_path(std::vector<ChannelId>{0, 3, 5}));
}

TEST(OnlineCdg, RandomizedAgainstNaiveChecker) {
  Rng rng(2024);
  for (int round = 0; round < 15; ++round) {
    const std::uint32_t num_nodes = 10;
    OnlineCdg cdg(num_nodes);
    PathSet accepted;
    std::vector<std::uint32_t> members;
    for (int step = 0; step < 60; ++step) {
      // Random simple path of length 2..4.
      std::vector<ChannelId> seq;
      std::vector<bool> used(num_nodes, false);
      std::uint32_t len = 2 + static_cast<std::uint32_t>(rng.next_below(3));
      for (std::uint32_t i = 0; i < len; ++i) {
        ChannelId c = static_cast<ChannelId>(rng.next_below(num_nodes));
        if (used[c]) break;
        used[c] = true;
        seq.push_back(c);
      }
      if (seq.size() < 2) continue;

      // Oracle: would the naive union stay acyclic?
      PathSet trial = accepted;
      trial.add(0, 0, seq, 1);
      std::vector<std::uint32_t> trial_members(trial.size());
      std::iota(trial_members.begin(), trial_members.end(), 0U);
      const bool oracle = paths_are_acyclic(trial, trial_members, num_nodes);

      const bool got = cdg.try_add_path(seq);
      ASSERT_EQ(got, oracle) << "round " << round << " step " << step;
      if (got) {
        accepted.add(0, 0, seq, 1);
        members.push_back(static_cast<std::uint32_t>(members.size()));
      }
    }
    // Final state must be acyclic.
    EXPECT_TRUE(paths_are_acyclic(accepted, members, num_nodes));
  }
}

TEST(OnlineCdg, SelfLoopRejected) {
  OnlineCdg cdg(2);
  EXPECT_FALSE(cdg.try_add_path(std::vector<ChannelId>{1, 1}));
}

using Seq = std::vector<ChannelId>;

TEST(FirstFitLayers, RejectedUnitRollsBackAndMovesToNextLayer) {
  FirstFitLayers layers(4, 3);
  EXPECT_EQ(layers.place({Seq{0, 1, 2}}), 0);
  // {2,3} fits layer 0 alone, but {3,0} then closes 0->1->2->3->0: the
  // whole unit moves to layer 1 and layer 0 keeps none of it.
  EXPECT_EQ(layers.place({Seq{2, 3}, Seq{3, 0}}), 1);
  EXPECT_FALSE(layers.layer(0).has_edge(2, 3));
  EXPECT_FALSE(layers.layer(0).has_edge(3, 0));
  EXPECT_TRUE(layers.layer(0).has_edge(1, 2));
  EXPECT_TRUE(layers.layer(1).has_edge(2, 3));
  EXPECT_TRUE(layers.layer(1).has_edge(3, 0));
  EXPECT_EQ(layers.num_layers(), 2);
  EXPECT_EQ(layers.attempts(), 3u);  // layer 0, then layers 0 and 1
  EXPECT_EQ(layers.insertions(), 5u);  // (2,3) entered layer 0 and left
  EXPECT_TRUE(layers.topological_orders(3)[2].empty());  // never reached

  EXPECT_EQ(layers.layers_used(), 2);
  layers.remove(1, Seq{3, 0});
  EXPECT_FALSE(layers.layer(1).has_edge(3, 0));
  EXPECT_TRUE(layers.layer(1).has_edge(2, 3));
  layers.remove(1, Seq{2, 3});
  EXPECT_EQ(layers.layers_used(), 1);  // layer 1 holds no path any more
}

TEST(FirstFitLayers, UnitWithoutDependenciesTakesLayerZeroUntried) {
  FirstFitLayers layers(4, 2);
  EXPECT_EQ(layers.place({Seq{3}, Seq{}}), 0);
  EXPECT_EQ(layers.place({Seq{1}}), 0);
  EXPECT_EQ(layers.attempts(), 0u);
  EXPECT_EQ(layers.num_layers(), 0);
  layers.remove(0, Seq{3});  // nothing was added, nothing to take out
  EXPECT_EQ(layers.num_layers(), 0);
}

TEST(FirstFitLayers, OverflowChangesNoLayer) {
  FirstFitLayers layers(4, 2);
  EXPECT_EQ(layers.place({Seq{0, 1}}), 0);
  EXPECT_EQ(layers.place({Seq{1, 0}}), 1);
  const auto orders = layers.topological_orders(2);
  // {2,3} fits every layer; {1,0} or {0,1} then closes a cycle in each.
  EXPECT_EQ(layers.place({Seq{2, 3}, Seq{1, 0}, Seq{0, 1}}), kInvalidLayer);
  EXPECT_EQ(layers.num_layers(), 2);
  EXPECT_EQ(layers.attempts(), 1u + 2u + 2u);
  for (Layer l = 0; l < 2; ++l) {
    EXPECT_FALSE(layers.layer(l).has_edge(2, 3));
    EXPECT_EQ(layers.layer(l).num_edges(), 1u);
  }
  EXPECT_EQ(layers.topological_orders(2), orders);
}

}  // namespace
}  // namespace dfsssp
