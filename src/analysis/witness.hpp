// Minimal deadlock witnesses: when a layer's channel dependency graph is
// cyclic, produce the *shortest* cycle through it plus, for every cycle
// edge, the routed paths that induce the edge. The witness is the
// diagnostic counterpart of the certificate — instead of "not deadlock-free"
// the user sees the concrete channel cycle (the paper's Figure 2 picture)
// and which (source switch, destination terminal) paths create each
// dependency, i.e. exactly what to reroute or relayer.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "cdg/paths.hpp"
#include "common/types.hpp"
#include "routing/table.hpp"
#include "topology/network.hpp"

namespace dfsssp {

/// One routed path inducing a witness edge.
struct WitnessPathRef {
  std::uint32_t path = 0;          // index into the PathSet
  std::uint32_t src_switch = 0;    // switch index (Network::switch_by_index)
  std::uint32_t dst_terminal = 0;  // terminal index
  std::uint32_t weight = 0;
};

/// One edge of the witness cycle with its inducing paths.
struct WitnessEdge {
  ChannelId from = 0;
  ChannelId to = 0;
  /// Total number of member paths inducing this edge.
  std::uint32_t inducing_paths = 0;
  /// Up to `max_paths_per_edge` concrete examples (at least one): the
  /// inducing paths with the lowest PathSet indices, ascending.
  std::vector<WitnessPathRef> examples;
};

/// A directed cycle in one layer's CDG: edges[i].to == edges[i+1].from and
/// the last edge closes back to edges[0].from. Empty when the layer is
/// acyclic.
struct DeadlockWitness {
  Layer layer = 0;
  std::vector<WitnessEdge> edges;

  bool empty() const { return edges.empty(); }
};

/// Finds a shortest cycle in layer `which`'s CDG (BFS over the cyclic core
/// that remains after Kahn peeling) and attaches up to `max_paths_per_edge`
/// inducing paths per edge. Returns an empty witness when the layer is
/// acyclic.
DeadlockWitness extract_witness(const PathSet& paths,
                                std::span<const Layer> layer, Layer which,
                                std::uint32_t num_channels,
                                std::uint32_t max_paths_per_edge = 3);

/// Convenience: collect paths/layers from a routing, then find the first
/// cyclic layer (ascending) and extract its witness. Empty witness when the
/// whole routing is deadlock-free, or when `table` was not built for `net`
/// (RoutingTable::built_for; make_certificate reports that case).
DeadlockWitness extract_witness(const Network& net, const RoutingTable& table,
                                std::uint32_t max_paths_per_edge = 3);

/// Human-readable rendering with node names from `net`:
///   deadlock witness: layer 0, cycle of 3 channels
///     s0->s1 => s1->s2  (4 inducing paths)
///       via s0 -> t4 (weight 2)
///   ...
void write_witness(const Network& net, const DeadlockWitness& witness,
                   std::ostream& out);

}  // namespace dfsssp
