#include "routing/verify.hpp"

#include <vector>

#include "routing/collect.hpp"
#include "routing/spath.hpp"

namespace dfsssp {

VerifyReport verify_routing(const Network& net, const RoutingTable& table,
                            const ExecContext& exec) {
  const std::vector<NodeId> sources = routed_sources(net);
  return parallel_map_reduce(
      exec, sources.size(), VerifyReport{},
      [&](std::size_t i) {
        const NodeId s = sources[i];
        VerifyReport local;
        std::vector<std::uint32_t> dist;
        bfs_hops_to(net, s, dist);
        walk_routed_paths(net, table, {&s, 1}, [&](const RoutedPath& r) {
          ++local.total_paths;
          if (!r.walked) {
            ++local.broken;
          } else if (r.channels.size() >
                     dist[net.node(net.switch_of(r.dst_terminal)).type_index]) {
            ++local.non_minimal;
          }
          return true;
        });
        return local;
      },
      [](VerifyReport acc, VerifyReport local) {
        acc.total_paths += local.total_paths;
        acc.broken += local.broken;
        acc.non_minimal += local.non_minimal;
        return acc;
      });
}

}  // namespace dfsssp
