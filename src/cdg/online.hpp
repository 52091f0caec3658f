// Incremental (online) channel dependency graph.
//
// The paper's first approach — and LASH — assign each path to a layer by
// checking, per path, that its dependency edges keep the layer's CDG
// acyclic. A fresh depth-first search per path makes that
// O(|N|^2 * (|C|+|E|)) (Section IV). We instead maintain a topological
// order with the Pearce-Kelly algorithm: inserting an edge (u,v) does work
// only when ord(v) < ord(u), and only within the affected region, which
// keeps the online assignment practical while remaining exact.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace dfsssp {

class OnlineCdg {
 public:
  struct Adj {
    ChannelId to;
    std::uint32_t refcount;
  };

  explicit OnlineCdg(std::uint32_t num_channels);

  /// Adds the dependency edges of one path (consecutive channel pairs).
  /// Returns true and commits when the graph stays acyclic; returns false
  /// and rolls back every edge of this call otherwise.
  bool try_add_path(std::span<const ChannelId> channels);

  /// Removes a previously committed path's edges (refcount-decrement).
  void remove_path(std::span<const ChannelId> channels);

  std::uint64_t num_paths() const { return num_paths_; }
  std::uint64_t num_edges() const { return num_edges_; }
  /// Monotonic count of distinct edge materialisations (num_edges_ goes
  /// down on removals; this never does) — the deterministic insertion work
  /// the profiler attributes to the enclosing span.
  std::uint64_t num_insertions() const { return num_insertions_; }
  /// Pearce-Kelly reorder passes run so far (the non-trivial acyclicity
  /// checks); exposed so callers can flush it into the obs registry.
  std::uint64_t num_reorders() const { return num_reorders_; }

  /// Exposed for tests: true when (u,v) is currently present.
  bool has_edge(ChannelId u, ChannelId v) const;

  /// Channels currently participating in at least one dependency edge,
  /// sorted by the maintained order — a valid topological order of the
  /// CDG (the Pearce-Kelly invariant), ready to serve as a certificate
  /// layer without re-running Kahn over the whole graph.
  std::vector<ChannelId> topological_order() const;

 private:
  /// Returns false when the edge would close a cycle (nothing inserted).
  bool add_edge(ChannelId u, ChannelId v);
  void remove_edge(ChannelId u, ChannelId v);

  /// Pearce-Kelly reorder after inserting (u,v) with ord_[v] < ord_[u].
  /// Returns false when v reaches u (cycle).
  bool reorder(ChannelId u, ChannelId v);

  // Sorted-by-`to` adjacency per node; refcounted because many paths can
  // induce the same dependency edge.
  std::vector<std::vector<Adj>> out_;
  std::vector<std::vector<Adj>> in_;
  std::vector<std::uint32_t> ord_;    // topological order, a permutation
  std::vector<std::uint8_t> mark_;    // scratch for the reorder DFS
  std::uint64_t num_paths_ = 0;
  std::uint64_t num_edges_ = 0;
  std::uint64_t num_insertions_ = 0;
  std::uint64_t num_reorders_ = 0;
};

}  // namespace dfsssp
