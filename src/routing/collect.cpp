#include "routing/collect.hpp"

#include <stdexcept>

#include "cdg/verify.hpp"

namespace dfsssp {

std::vector<NodeId> routed_sources(const Network& net) {
  std::vector<NodeId> sources;
  for (NodeId sw : net.switches()) {
    if (net.terminals_on(sw) > 0 && net.switch_up(sw)) sources.push_back(sw);
  }
  return sources;
}

void collect_paths(const Network& net, const RoutingTable& table,
                   PathSet& paths, std::vector<Layer>& layers) {
  // Every terminal on an up switch is alive, so each source pairs with all
  // alive terminals but its own.
  const std::vector<NodeId> sources = routed_sources(net);
  std::size_t alive_terminals = 0;
  for (NodeId sw : sources) alive_terminals += net.terminals_on(sw);
  const std::size_t pairs =
      sources.empty() ? 0 : alive_terminals * (sources.size() - 1);
  paths.reserve(paths.size() + pairs);
  layers.reserve(layers.size() + pairs);
  walk_routed_paths(net, table, sources, [&](const RoutedPath& r) {
    if (!r.walked) {
      throw std::runtime_error("collect_paths: broken forwarding from " +
                               net.node_name(r.src_switch) + " to " +
                               net.node_name(r.dst_terminal));
    }
    paths.add(net.node(r.src_switch).type_index,
              net.node(r.dst_terminal).type_index, r.channels,
              net.terminals_on(r.src_switch));
    layers.push_back(r.layer);
    return true;
  });
}

bool routing_is_deadlock_free(const Network& net, const RoutingTable& table,
                              const ExecContext& exec) {
  PathSet paths;
  std::vector<Layer> layers;
  collect_paths(net, table, paths, layers);
  return layering_is_deadlock_free(
      paths, layers, static_cast<std::uint32_t>(net.num_channels()), exec);
}

}  // namespace dfsssp
