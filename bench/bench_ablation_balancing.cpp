// Ablation (DESIGN.md §7): how much each balancing mechanism contributes.
//  * Algorithm 1's edge-weight updates (SSSP's global balancing) on vs off;
//  * Algorithm 2's final layer-balancing loop on vs off (affects how paths
//    spread over virtual lanes, visible in the per-layer load split).
// Output: eBB, fabric-load imbalance of one large random bisection, and the
// weighted path count of the heaviest virtual layer.
#include "bench_util.hpp"
#include "cdg/report.hpp"
#include "routing/collect.hpp"
#include "routing/dfsssp.hpp"
#include "routing/sssp.hpp"

using namespace dfsssp;
using namespace dfsssp::bench;

namespace {

std::uint64_t heaviest_layer_weight(const Topology& topo,
                                    const RoutingTable& table) {
  PathSet paths;
  std::vector<Layer> layers;
  collect_paths(topo.net, table, paths, layers);
  std::uint64_t heaviest = 0;
  for (const CdgLayerStats& s : cdg_layer_stats(
           paths, layers, static_cast<std::uint32_t>(topo.net.num_channels()))) {
    heaviest = std::max(heaviest, s.weight);
  }
  return heaviest;
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig cfg = BenchConfig::parse(argc, argv);
  const ExecContext exec = cfg.exec();

  Table table("Ablation: balancing mechanisms",
              {"topology", "variant", "eBB", "load imbalance", "VLs",
               "heaviest VL weight"});

  std::vector<Topology> zoo;
  {
    Rng rng(0xAB1ULL);
    zoo.push_back(make_random(32, 8, 80, 16, rng));
  }
  zoo.push_back(make_deimos());
  std::uint32_t ms[2] = {10, 10};
  std::uint32_t ws[2] = {5, 5};
  zoo.push_back(make_xgft(2, ms, ws));

  for (const Topology& topo : zoo) {
    struct Variant {
      std::string name;
      RouteResponse out;
    };
    std::vector<Variant> variants;
    variants.push_back(
        {"SSSP unbalanced", SsspRouter(SsspOptions{.balance = false}).route(RouteRequest(topo))});
    variants.push_back({"SSSP balanced", SsspRouter().route(RouteRequest(topo))});
    variants.push_back(
        {"DFSSSP, no layer balance",
         DfssspRouter(DfssspOptions{.balance = false}).route(RouteRequest(topo))});
    variants.push_back(
        {"DFSSSP, layer balance",
         DfssspRouter(DfssspOptions{.balance = true}).route(RouteRequest(topo))});

    RankMap map = RankMap::round_robin(
        topo.net, static_cast<std::uint32_t>(topo.net.num_terminals()));
    for (const Variant& v : variants) {
      if (!v.out.ok) {
        table.row().cell(topo.name).cell(v.name).cell("-").cell("-").cell("-")
            .cell("-");
        continue;
      }
      Rng pat(0xAB1E);
      EbbResult ebb = effective_bisection_bandwidth(topo.net, v.out.table, map,
                                                    cfg.patterns, pat, {},
                                                    exec);
      Rng pat2(0xAB1E);
      Flows flows = map.to_flows(random_bisection(map.num_ranks(), pat2));
      LoadReport load = analyze_load(topo.net, v.out.table, flows);
      table.row()
          .cell(topo.name)
          .cell(v.name)
          .cell(ebb.ebb, 4)
          .cell(load.imbalance, 2)
          .cell(static_cast<std::uint64_t>(v.out.stats.layers_used))
          .cell(heaviest_layer_weight(topo, v.out.table));
      std::fprintf(stderr, ".");
      std::fflush(stderr);
    }
  }
  std::fprintf(stderr, "\n");
  cfg.emit(table);
  return 0;
}
