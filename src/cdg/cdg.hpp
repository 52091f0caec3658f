// Channel dependency graph (CDG) and the offline layer-assignment algorithm.
//
// Following Dally/Seitz, the CDG of a routing has one node per (inter-switch)
// channel and an edge (c_i, c_j) whenever some routed path uses c_i directly
// before c_j. A routing is deadlock-free if every virtual layer's CDG is
// acyclic (sufficient condition; Section III of the paper).
//
// The offline algorithm (paper Algorithm 2) puts all paths into layer 0,
// searches the layer's CDG for a cycle, breaks the cycle by moving every
// path that induces one chosen cycle edge into the next layer, and resumes
// the *same* depth-first search — edge removals never create cycles, so the
// search state stays valid after a repair step. Each layer therefore costs
// one (resumable) cycle search, which is what makes the offline algorithm
// scale (Section IV: 170 s instead of 2 h on a 4096-node network).
//
// All of this runs on one CdgCore per path set: the dependency edges are
// deduplicated once, and each layer only counts which of them its member
// paths still induce.
//
// Cycle-edge choice implements the paper's three heuristics: weakest edge
// (fewest inducing paths — the recommended one), heaviest edge, and the
// pseudo-random first edge of the discovered cycle.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "cdg/paths.hpp"
#include "common/types.hpp"

namespace dfsssp {

/// The CDG of a whole PathSet, built once and shared by every layer: a CSR
/// keyed by source channel (targets ascending), each path's edge ids in
/// path order, and optionally each edge's inducing paths (ascending path
/// index). Built with counting passes over the paths — no comparison sort —
/// so a layer is just alive counters over this one graph (see Cdg).
///
/// Keeps a reference to `paths`, which must outlive the core.
class CdgCore {
 public:
  static constexpr std::uint32_t kNoEdge = 0xFFFFFFFFu;

  /// Whether to build the per-edge inducing-path lists; Algorithm 2 and
  /// the witness need them, the certificate does not.
  enum class EdgePaths : std::uint8_t { kSkip, kBuild };

  CdgCore(const PathSet& paths, std::uint32_t num_channels,
          EdgePaths edge_paths = EdgePaths::kSkip);
  CdgCore(PathSet&&, std::uint32_t, EdgePaths = EdgePaths::kSkip) = delete;

  const PathSet& paths() const { return paths_; }
  std::uint32_t num_nodes() const { return num_channels_; }
  std::uint32_t num_edges() const {
    return static_cast<std::uint32_t>(target_.size());
  }

  /// Global edge index range of node u: [first_edge(u), end_edge(u)).
  std::uint32_t first_edge(ChannelId u) const { return offset_[u]; }
  std::uint32_t end_edge(ChannelId u) const { return offset_[u + 1]; }
  ChannelId target(std::uint32_t edge_index) const {
    return target_[edge_index];
  }

  /// Edge index of u -> v, or kNoEdge when no path induces it.
  std::uint32_t find_edge(ChannelId u, ChannelId v) const;

  /// Edge ids of path p's consecutive channel pairs, in path order.
  std::span<const std::uint32_t> path_edges(std::uint32_t p) const {
    const auto len = paths_.channels(p).size();
    return {path_edge_.data() + paths_.channel_offset(p),
            len < 2 ? 0 : len - 1};
  }

  /// One flag per edge: set when a path p with layer[p] == which induces
  /// it. That edge set is the layer's CDG.
  std::vector<std::uint8_t> layer_edges(std::span<const Layer> layer,
                                        Layer which) const;

  /// Paths inducing the edge, ascending; empty unless built with kBuild.
  std::span<const std::uint32_t> edge_paths(std::uint32_t edge_index) const {
    if (edge_path_offset_.empty()) return {};
    return {edge_path_.data() + edge_path_offset_[edge_index],
            edge_path_offset_[edge_index + 1] - edge_path_offset_[edge_index]};
  }

 private:
  const PathSet& paths_;
  std::uint32_t num_channels_;
  std::vector<std::uint32_t> offset_;       // per node, into target_
  std::vector<ChannelId> target_;           // per edge
  std::vector<std::uint32_t> path_edge_;    // per channel entry of paths_
  std::vector<std::uint32_t> edge_path_offset_;  // per edge, into edge_path_
  std::vector<std::uint32_t> edge_path_;
};

/// One layer's CDG: the core's edges induced by `members` (indices into the
/// core's PathSet), with alive counters. Supports removing paths but never
/// adding, which is all Algorithm 2 needs. Edges of the core that no member
/// induces stay in the CSR with path_count 0 and are not part of the layer.
class Cdg {
 public:
  Cdg(const CdgCore& core, std::span<const std::uint32_t> members);
  Cdg(CdgCore&&, std::span<const std::uint32_t>) = delete;

  struct EdgeState {
    std::uint32_t path_count = 0;   // member paths inducing the edge
    std::uint32_t alive_count = 0;  // ... and not yet removed
    std::uint64_t alive_weight = 0;
  };

  const CdgCore& core() const { return core_; }
  std::uint32_t num_nodes() const { return core_.num_nodes(); }
  /// Edges induced by at least one member.
  std::size_t num_edges() const { return num_edges_; }

  const EdgeState& edge(std::uint32_t edge_index) const {
    return state_[edge_index];
  }

  /// Member paths still alive on this edge. Needs a core built with
  /// CdgCore::EdgePaths::kBuild.
  std::vector<std::uint32_t> alive_paths(std::uint32_t edge_index) const;

  bool path_alive(std::uint32_t p) const { return in_cdg_[p] != 0; }

  /// Member paths not yet removed.
  std::uint32_t alive_members() const { return alive_members_; }

  /// Removes a member path: decrements the alive counters of the edges it
  /// induces, in O(path length). Precondition: path_alive(p).
  void remove_path(std::uint32_t p);

 private:
  const CdgCore& core_;
  std::vector<EdgeState> state_;       // per core edge
  std::vector<std::uint8_t> in_cdg_;   // per global path id
  std::size_t num_edges_ = 0;
  std::uint32_t alive_members_ = 0;
};

/// Resumable iterative depth-first cycle search over a Cdg.
///
/// Usage: while (next_cycle(out)) { cut something; repair(); }.
/// next_cycle returns edges (global edge indices) of one directed cycle
/// through currently-alive edges; after the caller removed paths, repair()
/// re-validates the suspended DFS stack (black nodes stay black — removals
/// cannot create cycles — and any subtree entered through a now-dead tree
/// edge is re-whitened).
class CycleFinder {
 public:
  explicit CycleFinder(const Cdg& cdg);

  bool next_cycle(std::vector<std::uint32_t>& cycle_edges);
  void repair();

  /// Edge examinations performed by next_cycle so far — the deterministic
  /// cost of the search, independent of wall clock and thread count.
  std::uint64_t steps() const { return steps_; }

 private:
  struct Frame {
    ChannelId node;
    std::uint32_t cursor;      // next edge index (global) to examine
    std::uint32_t entry_edge;  // global edge index used to enter, or kNone
  };
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  void push(ChannelId node, std::uint32_t entry_edge);
  void pop_whiten();

  const Cdg& cdg_;
  std::vector<std::uint8_t> color_;  // 0 white, 1 gray, 2 black
  std::vector<std::uint32_t> stack_pos_;
  std::vector<Frame> stack_;
  ChannelId next_root_ = 0;
  std::uint64_t steps_ = 0;
};

enum class CycleHeuristic : std::uint8_t {
  kWeakestEdge,   // fewest inducing paths (paper's winner)
  kHeaviestEdge,  // most inducing paths
  kFirstEdge,     // pseudo-random: first edge of the discovered cycle
};

const char* to_string(CycleHeuristic h);

struct LayerOptions {
  Layer max_layers = 8;
  CycleHeuristic heuristic = CycleHeuristic::kWeakestEdge;
  /// Spread paths over unused layers afterwards (Algorithm 2's last loop).
  bool balance = false;
};

struct LayerResult {
  bool ok = false;
  std::string error;
  /// Per path (index into the PathSet) the assigned virtual layer.
  std::vector<Layer> layer;
  /// Layers carrying at least one path (after balancing, if enabled).
  Layer layers_used = 1;
  std::uint64_t cycles_broken = 0;
};

/// Algorithm 2: offline acyclic path partitioning.
LayerResult assign_layers_offline(const PathSet& paths,
                                  std::uint32_t num_channels,
                                  const LayerOptions& options);

/// Algorithm 2's final loop: redistributes paths from used layers onto empty
/// ones to even out the weighted load, without any new cycle search (moving
/// a subset of an acyclic layer into an *empty* layer keeps both acyclic).
/// Returns the new number of used layers.
Layer balance_layers(const PathSet& paths, std::vector<Layer>& layer,
                     Layer layers_used, Layer max_layers);

}  // namespace dfsssp
