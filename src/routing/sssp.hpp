// Single-source-shortest-path routing (paper Section II, Algorithm 1).
//
// One Dijkstra run per destination over weighted channels; after each run
// every channel's weight grows by the number of paths just routed across it,
// so later destinations avoid the load of earlier ones — global balancing
// instead of MinHop's port-local counters. Channel weights start at
// |V|^2: any detour costs at least two channels, and the accumulated extra
// weight on a single channel stays below |V|^2 (at most |V|*(|V|-1) paths),
// so a detour can never undercut a minimal path — SSSP stays shortest-path.
//
// SSSP alone is not deadlock-free (Figure 2's ring); DfssspRouter adds the
// virtual-layer assignment.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "common/heap.hpp"
#include "routing/router.hpp"

namespace dfsssp {

struct SsspOptions {
  /// Disable to skip the weight updates (plain per-destination Dijkstra).
  bool balance = true;
  /// 0 = automatic (|V|^2 per plane, guarantees minimality - §II). The
  /// paper's Figure 1 shows why small values are wrong: with weight 1 the
  /// accumulated updates make Dijkstra detour; tests pin that pathology.
  std::uint64_t initial_weight = 0;
};

class SsspRouter final : public Router {
 public:
  explicit SsspRouter(SsspOptions options = {}) : options_(options) {}

  std::string name() const override { return "SSSP"; }
  bool deadlock_free() const override { return false; }
  RouteResponse route(const RouteRequest& request) const override;

 private:
  SsspOptions options_;
};

/// Algorithm 1's per-destination step, the one weighted Dijkstra of the
/// codebase (full routes and incremental repair). Owns the scratch arrays
/// and the heap, so repeated destinations allocate nothing.
class SsspKernel {
 public:
  explicit SsspKernel(std::size_t num_switches = 0)
      : dist_(num_switches), parent_(num_switches), order_(num_switches),
        subtree_(num_switches), heap_(num_switches) {}

  /// Dijkstra outward from switch `dst_index` over the alive adjacency; a
  /// settled switch forwards on the reverse of its relaxing channel.
  /// Returns the number of switches settled.
  std::size_t run(const Network& net, std::uint32_t dst_index,
                  std::span<const std::uint64_t> weight);
  /// Grows each channel of the last run's tree by the number of terminal
  /// paths crossing it.
  void add_path_weights(const Network& net, std::span<std::uint64_t> weight);

  /// Forwarding channel of switch `i`; kInvalidChannel for the destination
  /// and for switches the last run did not reach.
  ChannelId parent(std::uint32_t i) const { return parent_[i]; }

  /// Heap traffic summed over every run().
  struct Work {
    std::uint64_t passes = 0, pops = 0, relaxations = 0;
  };
  const Work& work() const { return work_; }

 private:
  static constexpr std::uint64_t kInf = ~0ULL;

  std::vector<std::uint64_t> dist_;
  std::vector<ChannelId> parent_;
  std::vector<std::uint32_t> order_;    // switches by settle order
  std::vector<std::uint64_t> subtree_;  // path-count accumulation
  std::size_t settled_ = 0;
  MinHeap<std::uint64_t> heap_;
  Work work_;
};

/// Shared core used by SsspRouter and DfssspRouter.
RouteResponse route_sssp(const Network& net, const SsspOptions& options);

/// Multi-plane core (InfiniBand LMC multipathing): fills every table in
/// `planes` with one complete destination-based routing each, running the
/// per-destination Dijkstra once per (destination, plane) against ONE
/// shared, persistent weight map — consecutive planes therefore take
/// different minimal paths, exactly how OpenSM's SSSP treats the 2^lmc
/// LIDs of a port. Returns false on a disconnected network.
bool sssp_fill_planes(const Network& net, const SsspOptions& options,
                      std::span<RoutingTable> planes, RoutingStats& stats,
                      std::string& error);

}  // namespace dfsssp
