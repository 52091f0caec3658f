#include "routing/sssp.hpp"

#include <algorithm>
#include <span>

#include "common/timer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dfsssp {

std::size_t SsspKernel::run(const Network& net, std::uint32_t dst_index,
                            std::span<const std::uint64_t> weight) {
  std::uint64_t num_relaxations = 0;  // a register, not a member, in the loop
  std::fill(dist_.begin(), dist_.end(), kInf);
  std::fill(parent_.begin(), parent_.end(), kInvalidChannel);
  heap_.reset(dist_.size());
  dist_[dst_index] = 0;
  heap_.push(0, dst_index);
  std::size_t settled = 0;
  while (!heap_.empty()) {
    auto [du, u_index] = heap_.pop();
    order_[settled++] = u_index;
    const NodeId u = net.switch_by_index(u_index);
    for (ChannelId c : net.out_switch_channels(u)) {
      const NodeId v = net.channel(c).dst;
      const std::uint32_t v_index = net.node(v).type_index;
      const ChannelId fwd = net.channel(c).reverse;  // v -> u, toward dst
      const std::uint64_t cand = du + weight[fwd];
      if (cand < dist_[v_index]) {
        dist_[v_index] = cand;
        parent_[v_index] = fwd;
        heap_.push_or_decrease(cand, v_index);
        ++num_relaxations;
      }
    }
  }
  // Every switch enters the heap once (later relaxations are decrease-keys)
  // and leaves it once, so the pops equal the settled count.
  settled_ = settled;
  ++work_.passes;
  work_.pops += settled;
  work_.relaxations += num_relaxations;
  return settled;
}

void SsspKernel::add_path_weights(const Network& net,
                                  std::span<std::uint64_t> weight) {
  // Accumulate subtree terminal counts from the farthest settled switch
  // inward; order_[0] is the destination and forwards nowhere.
  for (std::size_t i = 0; i < settled_; ++i) {
    subtree_[order_[i]] = net.terminals_on(net.switch_by_index(order_[i]));
  }
  for (std::size_t i = settled_; i-- > 1;) {
    const std::uint32_t v_index = order_[i];
    const ChannelId fwd = parent_[v_index];
    weight[fwd] += subtree_[v_index];
    const NodeId next_sw = net.channel(fwd).dst;
    subtree_[net.node(next_sw).type_index] += subtree_[v_index];
  }
}

bool sssp_fill_planes(const Network& net, const SsspOptions& options,
                      std::span<RoutingTable> planes, RoutingStats& stats,
                      std::string& error) {
  TRACE_SPAN("sssp/fill_planes");
  // Phase timing for the run reports' timing_metrics section: what --trace
  // records as a span, --json reports as a histogram sample. Static
  // reference so the hot path pays no registry lookup.
  static obs::Histogram& h_fill_ns =
      obs::registry().timing_histogram("sssp/fill_planes_ns");
  ScopedTimer phase_timer(h_fill_ns);
  Timer timer;
  const std::size_t num_sw = net.num_switches();
  const std::uint64_t n = net.num_nodes();
  // Initial weight |V|^2 forces minimal paths (§II): the extra weight a
  // channel can accrue over the whole run stays below the cost of one
  // additional channel on a detour.
  const std::uint64_t initial_weight =
      options.initial_weight != 0 ? options.initial_weight
                                  : n * n * planes.size();
  std::vector<std::uint64_t> weight(net.num_channels(), initial_weight);
  SsspKernel kernel(num_sw);

  for (NodeId d : net.terminals()) {
    const std::uint32_t dst_index = net.node(net.switch_of(d)).type_index;
    for (RoutingTable& plane : planes) {
      if (kernel.run(net, dst_index, weight) != num_sw) {
        error = "network is disconnected";
        return false;
      }
      for (std::uint32_t i = 0; i < num_sw; ++i) {
        if (i == dst_index) continue;
        plane.set_next(net.switch_by_index(i), d, kernel.parent(i));
      }
      stats.paths += num_sw - 1;
      if (options.balance) kernel.add_path_weights(net, weight);
    }
  }

  // Flushed once per call; the profile puts the same tallies on the
  // innermost enclosing span (sssp/fill_planes, opened above).
  const SsspKernel::Work& w = kernel.work();
  obs::registry().counter("sssp/dijkstra_passes").add(w.passes);
  obs::registry().counter("sssp/heap_pops").add(w.pops);
  obs::registry().counter("sssp/relaxations").add(w.relaxations);
  PROF_COUNT("sssp/dijkstra_passes", w.passes);
  PROF_COUNT("sssp/heap_pops", w.pops);
  PROF_COUNT("sssp/relaxations", w.relaxations);
  stats.route_seconds += timer.seconds();
  return true;
}

RouteResponse route_sssp(const Network& net, const SsspOptions& options) {
  RouteResponse out;
  out.table = RoutingTable(net);
  std::span<RoutingTable> planes(&out.table, 1);
  if (!sssp_fill_planes(net, options, planes, out.stats, out.error)) {
    return out;
  }
  out.ok = true;
  return out;
}

RouteResponse SsspRouter::route(const RouteRequest& request) const {
  const Topology& topo = request.topo();
  return route_sssp(topo.net, options_);
}

}  // namespace dfsssp
