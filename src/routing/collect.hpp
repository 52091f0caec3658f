// Bridges forwarding tables to the deadlock machinery and the simulators.
#pragma once

#include <span>
#include <vector>

#include "cdg/paths.hpp"
#include "common/parallel.hpp"
#include "routing/table.hpp"
#include "topology/network.hpp"

namespace dfsssp {

/// One routed pair as the walk hands it to its caller. `walked` is false
/// when RoutingTable::extract_path failed (a dead end, a forwarding loop or
/// a hop over a dead channel); `channels` is then the hops walked before
/// the failing one. It views the walk's buffer, so it is valid only during
/// the visit.
struct RoutedPath {
  NodeId src_switch;
  NodeId dst_terminal;
  Layer layer;
  std::span<const ChannelId> channels;
  bool walked;
};

/// The up switches with at least one terminal, in net.switches() order: the
/// sources of every routed path.
std::vector<NodeId> routed_sources(const Network& net);

/// The one loop over a finished table's routed pairs, which collection, the
/// certificate checker, verify_routing and the lints share: for each switch
/// of `sources` (routed_sources(), or a slice of it), every alive terminal
/// on another switch in net.terminals() order. Calls `visit(const
/// RoutedPath&)` per pair; when it returns false the walk stops and returns
/// false.
template <class Visit>
bool walk_routed_paths(const Network& net, const RoutingTable& table,
                       std::span<const NodeId> sources, Visit&& visit) {
  std::vector<ChannelId> seq;
  for (NodeId sw : sources) {
    for (NodeId t : net.terminals()) {
      if (net.switch_of(t) == sw || !net.terminal_alive(t)) continue;
      const bool walked = table.extract_path(net, sw, t, seq);
      if (!visit(RoutedPath{sw, t, table.layer(sw, t), seq, walked})) {
        return false;
      }
    }
  }
  return true;
}

/// Appends every routed pair of `table` to `paths`, weighted by the number
/// of terminals on the source switch, and its layer to `layers`, in walk
/// order. Throws std::runtime_error when a forwarding walk is broken —
/// verify connectivity first if failure must be handled gracefully.
void collect_paths(const Network& net, const RoutingTable& table,
                   PathSet& paths, std::vector<Layer>& layers);

/// True when every virtual layer's channel dependency graph is acyclic —
/// the paper's deadlock-freedom criterion applied to a finished routing.
/// Layers verify independently on `exec`'s threads.
bool routing_is_deadlock_free(const Network& net, const RoutingTable& table,
                              const ExecContext& exec = {});

}  // namespace dfsssp
