// Structural verification of finished routings (used by tests and benches).
#pragma once

#include <cstdint>
#include <string>

#include "common/parallel.hpp"
#include "routing/table.hpp"
#include "topology/network.hpp"

namespace dfsssp {

struct VerifyReport {
  std::uint64_t total_paths = 0;
  /// Paths that dead-end, loop or hop over a dead channel.
  std::uint64_t broken = 0;
  /// Paths longer than the BFS hop distance.
  std::uint64_t non_minimal = 0;

  bool connected() const { return broken == 0; }
  bool minimal() const { return non_minimal == 0; }
};

/// Walks every routed pair (walk_routed_paths, routing/collect.hpp).
/// Source switches are independent (each owns one BFS distance field and
/// its path walks), so they spread across `exec`'s threads; the per-source
/// counters are reduced in source order.
VerifyReport verify_routing(const Network& net, const RoutingTable& table,
                            const ExecContext& exec = {});

}  // namespace dfsssp
