// Extension (DESIGN.md §7): optimality gap of the practical heuristics.
// On networks small enough for the exact exponential APP solver, compare
// the minimum possible layer count against what the offline heuristics and
// LASH-style first-fit produce. APP is NP-complete (Theorem 1), so this is
// only feasible at toy scale - which is exactly why the heuristics exist.
#include <numeric>

#include "bench_util.hpp"
#include "cdg/app.hpp"
#include "routing/collect.hpp"
#include "routing/sssp.hpp"
#include "routing/dfsssp.hpp"

using namespace dfsssp;
using namespace dfsssp::bench;

namespace {

/// SSSP paths of a topology as an abstract APP instance.
app::Instance to_instance(const Topology& topo, const RoutingTable& table) {
  app::Instance inst;
  inst.num_nodes = static_cast<std::uint32_t>(topo.net.num_channels());
  PathSet paths;
  std::vector<Layer> layers;
  collect_paths(topo.net, table, paths, layers);
  for (std::uint32_t p = 0; p < paths.size(); ++p) {
    auto seq = paths.channels(p);
    if (seq.size() < 2) continue;
    inst.paths.emplace_back(seq.begin(), seq.end());
  }
  return inst;
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig cfg = BenchConfig::parse(argc, argv);

  Table table("Extension: exact APP minimum vs heuristics (toy networks)",
              {"topology", "paths", "exact", "weakest", "heaviest", "first",
               "first-fit"});

  std::vector<Topology> zoo;
  zoo.push_back(make_ring(5, 1));
  zoo.push_back(make_ring(6, 1));
  {
    std::uint32_t dims[2] = {3, 3};
    zoo.push_back(make_torus(dims, 1, true));
  }
  Rng rng(0xE46ULL);
  zoo.push_back(make_random(6, 1, 9, 6, rng));

  for (const Topology& topo : zoo) {
    RouteResponse sssp = SsspRouter().route(RouteRequest(topo));
    if (!sssp.ok) continue;
    app::Instance inst = to_instance(topo, sssp.table);

    const std::uint32_t exact = app::exact_min_layers(inst, 6);
    const std::uint32_t first_fit = app::first_fit_layers(inst, 16);

    table.row().cell(topo.name).cell(inst.paths.size())
        .cell(exact ? std::to_string(exact) : ">6");
    for (CycleHeuristic h : {CycleHeuristic::kWeakestEdge,
                             CycleHeuristic::kHeaviestEdge,
                             CycleHeuristic::kFirstEdge}) {
      DfssspRouter router(
          DfssspOptions{.max_layers = 16, .heuristic = h, .balance = false});
      RouteResponse out = router.route(RouteRequest(topo));
      table.cell(out.ok ? std::to_string(out.stats.layers_used) : "-");
    }
    table.cell(first_fit ? std::to_string(first_fit) : "-");
    std::fprintf(stderr, ".");
    std::fflush(stderr);
  }
  std::fprintf(stderr, "\n");
  cfg.emit(table);
  return 0;
}
