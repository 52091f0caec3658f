// Shared shortest-path plumbing for the routing engines.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "topology/network.hpp"

namespace dfsssp {

inline constexpr std::uint32_t kUnreachable = 0xFFFFFFFFu;

/// Hop distance from every switch to `dst_switch` over the switch graph
/// (links are bidirectional, so one forward BFS suffices, and it is also
/// the distance from `dst_switch`). `dist` is indexed by switch type_index.
void bfs_hops_to(const Network& net, NodeId dst_switch,
                 std::vector<std::uint32_t>& dist);

/// Eccentricity-minimal switch (graph center), ties broken by lowest id;
/// the Up*/Down* root choice.
NodeId find_center_switch(const Network& net);

}  // namespace dfsssp
