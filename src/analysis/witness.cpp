#include "analysis/witness.hpp"

#include <algorithm>
#include <limits>
#include <ostream>
#include <queue>

#include "cdg/cdg.hpp"
#include "routing/collect.hpp"

namespace dfsssp {

namespace {

constexpr std::uint32_t kUnset = std::numeric_limits<std::uint32_t>::max();

/// The witness of layer `which` over a core built with edge path lists.
DeadlockWitness witness_for_layer(const CdgCore& core,
                                  std::span<const Layer> layer, Layer which,
                                  std::uint32_t max_paths_per_edge) {
  DeadlockWitness witness;
  witness.layer = which;

  const std::vector<std::uint8_t> in_layer = core.layer_edges(layer, which);

  // Kahn peel; what survives is the cyclic core plus its descendants, and
  // every shortest cycle lives entirely inside it.
  const std::uint32_t num_channels = core.num_nodes();
  std::vector<std::uint32_t> indegree(num_channels, 0);
  std::vector<std::uint8_t> present(num_channels, 0);
  for (ChannelId u = 0; u < num_channels; ++u) {
    for (std::uint32_t e = core.first_edge(u); e < core.end_edge(u); ++e) {
      if (!in_layer[e]) continue;
      ++indegree[core.target(e)];
      present[u] = 1;
      present[core.target(e)] = 1;
    }
  }
  std::queue<ChannelId> ready;
  for (ChannelId u = 0; u < num_channels; ++u) {
    if (present[u] && indegree[u] == 0) ready.push(u);
  }
  std::vector<std::uint8_t> residual = present;
  while (!ready.empty()) {
    const ChannelId u = ready.front();
    ready.pop();
    residual[u] = 0;
    for (std::uint32_t e = core.first_edge(u); e < core.end_edge(u); ++e) {
      if (in_layer[e] && --indegree[core.target(e)] == 0) {
        ready.push(core.target(e));
      }
    }
  }
  bool any_residual = false;
  for (ChannelId u = 0; u < num_channels; ++u) any_residual |= residual[u] != 0;
  if (!any_residual) return witness;  // acyclic

  // Shortest cycle: BFS from every residual node over residual edges until
  // an edge closes back to the BFS root. Roots ascend, strictly shorter
  // cycles win, so the witness is deterministic.
  std::vector<ChannelId> best_cycle;  // node sequence, first != last
  std::vector<std::uint32_t> dist(num_channels);
  std::vector<ChannelId> parent(num_channels);
  for (ChannelId s = 0; s < num_channels; ++s) {
    if (!residual[s]) continue;
    if (!best_cycle.empty() && best_cycle.size() <= 2) break;  // can't beat 2
    std::fill(dist.begin(), dist.end(), kUnset);
    std::fill(parent.begin(), parent.end(), kUnset);
    dist[s] = 0;
    std::queue<ChannelId> bfs;
    bfs.push(s);
    bool closed = false;
    while (!bfs.empty() && !closed) {
      const ChannelId u = bfs.front();
      bfs.pop();
      if (!best_cycle.empty() && dist[u] + 1 >= best_cycle.size()) break;
      for (std::uint32_t e = core.first_edge(u); e < core.end_edge(u); ++e) {
        const ChannelId to = core.target(e);
        if (!in_layer[e] || !residual[to]) continue;
        if (to == s) {
          // Cycle s -> ... -> u -> s of length dist[u] + 1.
          std::vector<ChannelId> cycle;
          for (ChannelId n = u; n != kUnset; n = parent[n]) cycle.push_back(n);
          std::reverse(cycle.begin(), cycle.end());  // now s, ..., u
          if (best_cycle.empty() || cycle.size() < best_cycle.size()) {
            best_cycle = std::move(cycle);
          }
          closed = true;
          break;
        }
        if (dist[to] == kUnset) {
          dist[to] = dist[u] + 1;
          parent[to] = u;
          bfs.push(to);
        }
      }
    }
  }

  // Every cycle edge is a layer edge; its examples are the lowest-indexed
  // member paths that induce it.
  const PathSet& paths = core.paths();
  for (std::size_t i = 0; i < best_cycle.size(); ++i) {
    WitnessEdge edge;
    edge.from = best_cycle[i];
    edge.to = best_cycle[(i + 1) % best_cycle.size()];
    for (std::uint32_t p :
         core.edge_paths(core.find_edge(edge.from, edge.to))) {
      if (layer[p] != which) continue;
      ++edge.inducing_paths;
      if (edge.examples.size() < max_paths_per_edge) {
        edge.examples.push_back({p, paths.src_switch_index(p),
                                 paths.dst_terminal_index(p),
                                 paths.weight(p)});
      }
    }
    witness.edges.push_back(std::move(edge));
  }
  return witness;
}

}  // namespace

DeadlockWitness extract_witness(const PathSet& paths,
                                std::span<const Layer> layer, Layer which,
                                std::uint32_t num_channels,
                                std::uint32_t max_paths_per_edge) {
  const CdgCore core(paths, num_channels, CdgCore::EdgePaths::kBuild);
  return witness_for_layer(core, layer, which, max_paths_per_edge);
}

DeadlockWitness extract_witness(const Network& net, const RoutingTable& table,
                                std::uint32_t max_paths_per_edge) {
  if (!table.built_for(net)) return DeadlockWitness{};
  PathSet paths;
  std::vector<Layer> layers;
  collect_paths(net, table, paths, layers);
  Layer num_layers = table.num_layers();
  for (std::size_t p = 0; p < paths.size(); ++p) {
    num_layers = std::max<Layer>(num_layers, layers[p] + 1);
  }
  const CdgCore core(paths, static_cast<std::uint32_t>(net.num_channels()),
                     CdgCore::EdgePaths::kBuild);
  for (Layer l = 0; l < num_layers; ++l) {
    DeadlockWitness w = witness_for_layer(core, layers, l, max_paths_per_edge);
    if (!w.empty()) return w;
  }
  return DeadlockWitness{};
}

void write_witness(const Network& net, const DeadlockWitness& witness,
                   std::ostream& out) {
  if (witness.empty()) {
    out << "no deadlock witness (layer CDGs are acyclic)\n";
    return;
  }
  auto channel_name = [&](ChannelId c) {
    const Channel& ch = net.channel(c);
    return net.node_name(ch.src) + "->" + net.node_name(ch.dst);
  };
  out << "deadlock witness: layer " << unsigned(witness.layer)
      << ", cycle of " << witness.edges.size() << " channels\n";
  for (const WitnessEdge& e : witness.edges) {
    out << "  " << channel_name(e.from) << " => " << channel_name(e.to)
        << "  (" << e.inducing_paths << " inducing path"
        << (e.inducing_paths == 1 ? "" : "s") << ")\n";
    for (const WitnessPathRef& p : e.examples) {
      out << "    via " << net.node_name(net.switch_by_index(p.src_switch))
          << " -> " << net.node_name(net.terminal_by_index(p.dst_terminal))
          << " (weight " << p.weight << ")\n";
    }
  }
}

}  // namespace dfsssp
