#include "routing/table.hpp"

#include <cassert>

namespace dfsssp {

RoutingTable::RoutingTable(const Network& net)
    : net_(&net), num_terminals_(net.num_terminals()) {
  next_.assign(net.num_switches() * num_terminals_, kInvalidChannel);
  layer_.assign(net.num_switches() * num_terminals_, 0);
}

std::size_t RoutingTable::slot(NodeId sw, NodeId dst_terminal) const {
  assert(net_ != nullptr);
  assert(net_->is_switch(sw) && net_->is_terminal(dst_terminal));
  return static_cast<std::size_t>(net_->node(sw).type_index) * num_terminals_ +
         net_->node(dst_terminal).type_index;
}

bool RoutingTable::extract_path(const Network& net, NodeId src_switch,
                                NodeId dst_terminal,
                                std::vector<ChannelId>& out) const {
  out.clear();
  const NodeId dst_switch = net.switch_of(dst_terminal);
  NodeId cur = src_switch;
  // Any correct path visits each switch at most once.
  const std::size_t hop_limit = net.num_switches();
  while (cur != dst_switch) {
    ChannelId c = next(cur, dst_terminal);
    if (c == kInvalidChannel) return false;              // dead end
    const Channel& ch = net.channel(c);
    if (ch.src != cur || !net.is_switch(ch.dst) || !net.channel_alive(c)) {
      return false;
    }
    out.push_back(c);
    cur = ch.dst;
    if (out.size() > hop_limit) return false;            // forwarding loop
  }
  return true;
}

std::int64_t RoutingTable::path_hops(const Network& net, NodeId src_switch,
                                     NodeId dst_terminal) const {
  std::vector<ChannelId> path;
  if (!extract_path(net, src_switch, dst_terminal, path)) return -1;
  return static_cast<std::int64_t>(path.size());
}

}  // namespace dfsssp
