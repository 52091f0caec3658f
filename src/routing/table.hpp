// Destination-based forwarding tables with per-path virtual-layer labels.
//
// This mirrors how InfiniBand realizes oblivious routing: every switch holds
// a linear forwarding table (LFT) mapping destination LIDs to output ports,
// and the subnet manager hands each (source, destination) pair a service
// level that selects the virtual lane. Here:
//  * next(sw, dst_terminal) is the LFT entry: the outgoing channel a packet
//    for dst_terminal takes at switch sw (kInvalidChannel when dst_terminal
//    is attached to sw itself — the packet is ejected);
//  * layer(src_switch, dst_terminal) is the virtual layer of the whole path.
//    All terminals on the same source switch share one layer per
//    destination, exactly the granularity at which destination-based
//    forwarding makes their channel sequences identical.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "topology/network.hpp"

namespace dfsssp {

class RoutingTable {
 public:
  RoutingTable() = default;
  explicit RoutingTable(const Network& net);

  /// Output channel at switch `sw` for packets to `dst_terminal`.
  ChannelId next(NodeId sw, NodeId dst_terminal) const {
    return next_[slot(sw, dst_terminal)];
  }
  void set_next(NodeId sw, NodeId dst_terminal, ChannelId out) {
    next_[slot(sw, dst_terminal)] = out;
  }

  /// Virtual layer of the path from any terminal on `src_switch` to
  /// `dst_terminal`.
  Layer layer(NodeId src_switch, NodeId dst_terminal) const {
    return layer_[slot(src_switch, dst_terminal)];
  }
  void set_layer(NodeId src_switch, NodeId dst_terminal, Layer l) {
    layer_[slot(src_switch, dst_terminal)] = l;
  }

  /// True when the table was built for a network of `net`'s shape (same
  /// switch and terminal counts). A default-constructed table, such as a
  /// failed route's, is built for no network.
  bool built_for(const Network& net) const {
    return net_ != nullptr && num_terminals_ == net.num_terminals() &&
           next_.size() == net.num_switches() * num_terminals_;
  }

  /// Number of virtual layers this table uses (1 = no virtual channels).
  Layer num_layers() const { return num_layers_; }
  void set_num_layers(Layer n) { num_layers_ = n; }

  /// Walks the forwarding tables from `src_switch` to `dst_terminal` and
  /// appends the inter-switch channel sequence to `out` (which is cleared
  /// first). Returns false on a dead end, a forwarding loop or a hop over a
  /// channel that is not Network::channel_alive (a stale entry left behind
  /// by a downed link or switch); `out` then holds the hops walked before
  /// the failing one.
  bool extract_path(const Network& net, NodeId src_switch, NodeId dst_terminal,
                    std::vector<ChannelId>& out) const;

  /// Hop count (number of inter-switch channels) or -1 when broken.
  std::int64_t path_hops(const Network& net, NodeId src_switch,
                         NodeId dst_terminal) const;

 private:
  std::size_t slot(NodeId sw, NodeId dst_terminal) const;

  const Network* net_ = nullptr;
  std::size_t num_terminals_ = 0;
  std::vector<ChannelId> next_;
  std::vector<Layer> layer_;
  Layer num_layers_ = 1;
};

/// A deadlock-freedom proof of one RoutingTable: per layer, the channels
/// of that layer's CDG in topological order. Channels that induce no
/// dependency in the layer (paths of a single channel) are not listed; the
/// checker (analysis/certificate.hpp) only constrains consecutive pairs.
struct Certificate {
  Layer num_layers = 1;
  std::vector<std::vector<ChannelId>> order;  // one entry per layer

  bool empty() const { return order.empty(); }
};

}  // namespace dfsssp
