// A guided tour through the paper's running examples, as executable code:
//
//   Section II  - SSSP's weight balancing on a multi-path topology;
//   Section III - the ring whose channel dependency graph is cyclic
//                 (Figure 2) and its per-layer CDGs after Algorithm 2;
//   Section III-A - the Figure 3 APP instance and its exact minimum;
//   Theorem 1   - the k-coloring reduction on a small graph.
//
// Run: ./paper_walkthrough
#include <cstdio>
#include <numeric>
#include <sstream>

#include "cdg/app.hpp"
#include "cdg/report.hpp"
#include "cdg/verify.hpp"
#include "routing/collect.hpp"
#include "routing/dfsssp.hpp"
#include "routing/sssp.hpp"
#include "sim/congestion.hpp"
#include "topology/generators.hpp"

using namespace dfsssp;

namespace {

void section_sssp_balancing() {
  std::printf("== Section II: SSSP's global balancing ==\n");
  // Two leaf switches under two spines; all traffic between the leaves.
  Topology topo = make_clos2(2, 2, 1, 8);
  for (bool balance : {false, true}) {
    RouteResponse out =
        SsspRouter(SsspOptions{.balance = balance}).route(RouteRequest(topo));
    RankMap map = RankMap::round_robin(
        topo.net, static_cast<std::uint32_t>(topo.net.num_terminals()));
    Flows flows = map.to_flows(all_to_all(map.num_ranks()));
    LoadReport load = analyze_load(topo.net, out.table, flows);
    std::printf("  weights %-3s -> max fabric load %u, imbalance %.2f\n",
                balance ? "on" : "off", load.max_fabric_load, load.imbalance);
  }
  std::printf("  (Algorithm 1's edge-weight updates spread the load over "
              "both spines)\n\n");
}

void section_ring_cdg() {
  std::printf("== Section III: the Figure 2 ring's dependency cycle ==\n");
  Topology topo = make_ring(5, 1);
  RouteResponse sssp = SsspRouter().route(RouteRequest(topo));
  PathSet paths;
  std::vector<Layer> sssp_layers;
  collect_paths(topo.net, sssp.table, paths, sssp_layers);
  std::vector<std::uint32_t> all(paths.size());
  std::iota(all.begin(), all.end(), 0U);
  std::printf("  SSSP on the 5-ring: CDG acyclic? %s\n",
              paths_are_acyclic(paths, all,
                                static_cast<std::uint32_t>(topo.net.num_channels()))
                  ? "yes"
                  : "NO - deadlock possible");

  RouteResponse dfsssp =
      DfssspRouter(DfssspOptions{.balance = false}).route(RouteRequest(topo));
  PathSet dpaths;
  std::vector<Layer> layers;
  collect_paths(topo.net, dfsssp.table, dpaths, layers);
  std::printf("  DFSSSP breaks %llu cycles into %u layers:\n",
              static_cast<unsigned long long>(dfsssp.stats.cycles_broken),
              unsigned(dfsssp.stats.layers_used));
  for (const CdgLayerStats& s : cdg_layer_stats(
           dpaths, layers, static_cast<std::uint32_t>(topo.net.num_channels()))) {
    std::printf("    layer %u: %llu paths, %u CDG nodes, %u CDG edges\n",
                unsigned(s.layer), static_cast<unsigned long long>(s.paths),
                s.nodes, s.edges);
  }
  std::printf("  per-layer CDGs acyclic? %s\n\n",
              layering_is_deadlock_free(
                  dpaths, layers,
                  static_cast<std::uint32_t>(topo.net.num_channels()))
                  ? "yes - deadlock-free"
                  : "no");
}

void section_figure3() {
  std::printf("== Section III-A: the Figure 3 APP instance ==\n");
  // Channels a=0 b=1 c=2 d=3; p1=bc, p2=abc, p3=cdab.
  app::Instance inst;
  inst.num_nodes = 4;
  inst.paths = {{1, 2}, {0, 1, 2}, {2, 3, 0, 1}};
  std::printf("  all three paths in one class acyclic? %s\n",
              app::union_is_acyclic(inst, std::vector<std::uint32_t>{0, 1, 2})
                  ? "yes"
                  : "no");
  std::printf("  {p1,p2} | {p3} is a 2-cover? %s\n",
              app::is_cover(inst, std::vector<std::uint32_t>{0, 0, 1}, 2)
                  ? "yes"
                  : "no");
  std::printf("  exact minimum number of classes: %u\n\n",
              app::exact_min_layers(inst, 4));
}

void section_theorem1() {
  std::printf("== Theorem 1: k-coloring -> APP reduction ==\n");
  // A 5-cycle: chromatic number 3.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges{
      {0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}};
  app::Instance inst = app::reduction_from_coloring(5, edges);
  std::printf("  C5: chromatic number %u, reduced APP minimum %u\n",
              app::chromatic_number(5, edges, 5),
              app::exact_min_layers(inst, 5));
  std::printf("  (equal by construction - a k-cover is a k-coloring and "
              "vice versa)\n");
}

}  // namespace

int main() {
  section_sssp_balancing();
  section_ring_cdg();
  section_figure3();
  section_theorem1();
  return 0;
}
