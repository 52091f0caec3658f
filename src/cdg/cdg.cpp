#include "cdg/cdg.hpp"

#include <algorithm>
#include <cassert>
#include <optional>

#include "common/timer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dfsssp {

// ---- CdgCore ----------------------------------------------------------------

CdgCore::CdgCore(const PathSet& paths, std::uint32_t num_channels,
                 EdgePaths edge_paths)
    : paths_(paths), num_channels_(num_channels) {
  // A dependency occurrence is named by the position of its first channel
  // in the concatenation of all paths' channels; path_edge_ is indexed the
  // same way (the last slot of every path stays unused).
  path_edge_.assign(paths.total_channels(), kNoEdge);

  // Counting pass: occurrences per source channel.
  std::vector<std::uint32_t> start(std::size_t{num_channels} + 1, 0);
  for (std::uint32_t p = 0; p < paths.size(); ++p) {
    auto seq = paths.channels(p);
    for (std::size_t i = 0; i + 1 < seq.size(); ++i) ++start[seq[i] + 1];
  }
  for (std::uint32_t u = 0; u < num_channels; ++u) start[u + 1] += start[u];

  // Bucket the occurrences by source channel.
  struct Occurrence {
    std::uint32_t pos;
    ChannelId to;
  };
  std::vector<Occurrence> by_source(start[num_channels]);
  {
    std::vector<std::uint32_t> fill(start.begin(), start.end() - 1);
    for (std::uint32_t p = 0; p < paths.size(); ++p) {
      auto seq = paths.channels(p);
      const auto base = static_cast<std::uint32_t>(paths.channel_offset(p));
      for (std::size_t i = 0; i + 1 < seq.size(); ++i) {
        by_source[fill[seq[i]]++] = {base + static_cast<std::uint32_t>(i),
                                     seq[i + 1]};
      }
    }
  }

  // Deduplicate each source's targets through a per-target slot. This
  // numbers the edges grouped by source, but in first-seen target order.
  offset_.assign(std::size_t{num_channels} + 1, 0);
  std::vector<std::uint32_t> slot(num_channels, kNoEdge);
  std::vector<ChannelId> source;  // per provisional edge
  for (ChannelId u = 0; u < num_channels; ++u) {
    const auto first = static_cast<std::uint32_t>(target_.size());
    for (std::uint32_t k = start[u]; k < start[u + 1]; ++k) {
      const Occurrence& o = by_source[k];
      if (slot[o.to] == kNoEdge) {
        slot[o.to] = static_cast<std::uint32_t>(target_.size());
        target_.push_back(o.to);
        source.push_back(u);
      }
      path_edge_[o.pos] = slot[o.to];
    }
    for (std::uint32_t e = first; e < target_.size(); ++e) {
      slot[target_[e]] = kNoEdge;
    }
    offset_[u + 1] = static_cast<std::uint32_t>(target_.size());
  }
  by_source = {};

  // Two stable counting passes over the distinct edges (by target, then by
  // source) give the final numbering, with targets ascending per source.
  const std::uint32_t num_edges = this->num_edges();
  std::vector<std::uint32_t> by_target(num_edges);
  {
    std::vector<std::uint32_t> fill(std::size_t{num_channels} + 1, 0);
    for (ChannelId v : target_) ++fill[v + 1];
    for (std::uint32_t v = 0; v < num_channels; ++v) fill[v + 1] += fill[v];
    for (std::uint32_t e = 0; e < num_edges; ++e) {
      by_target[fill[target_[e]]++] = e;
    }
  }
  std::vector<std::uint32_t> final_id(num_edges);
  {
    std::vector<std::uint32_t> fill(offset_.begin(), offset_.end() - 1);
    for (std::uint32_t e : by_target) final_id[e] = fill[source[e]]++;
  }
  std::vector<ChannelId> sorted(num_edges);
  for (std::uint32_t e = 0; e < num_edges; ++e) {
    sorted[final_id[e]] = target_[e];
  }
  target_ = std::move(sorted);
  // Renumber the path edges; the same pass counts inducing paths per edge
  // when their lists are wanted.
  const bool lists = edge_paths == EdgePaths::kBuild;
  if (lists) edge_path_offset_.assign(std::size_t{num_edges} + 1, 0);
  for (std::uint32_t& e : path_edge_) {
    if (e == kNoEdge) continue;
    e = final_id[e];
    if (lists) ++edge_path_offset_[e + 1];
  }
  if (!lists) return;

  // Fill the inducing-path lists in path order.
  for (std::uint32_t e = 0; e < num_edges; ++e) {
    edge_path_offset_[e + 1] += edge_path_offset_[e];
  }
  edge_path_.resize(edge_path_offset_[num_edges]);
  std::vector<std::uint32_t> fill(edge_path_offset_.begin(),
                                  edge_path_offset_.end() - 1);
  for (std::uint32_t p = 0; p < paths.size(); ++p) {
    for (std::uint32_t e : path_edges(p)) edge_path_[fill[e]++] = p;
  }
}

std::uint32_t CdgCore::find_edge(ChannelId u, ChannelId v) const {
  const auto first = target_.begin() + offset_[u];
  const auto last = target_.begin() + offset_[u + 1];
  const auto it = std::lower_bound(first, last, v);
  if (it == last || *it != v) return kNoEdge;
  return static_cast<std::uint32_t>(it - target_.begin());
}

std::vector<std::uint8_t> CdgCore::layer_edges(std::span<const Layer> layer,
                                               Layer which) const {
  std::vector<std::uint8_t> in_layer(num_edges(), 0);
  for (std::uint32_t p = 0; p < layer.size(); ++p) {
    if (layer[p] != which) continue;
    for (std::uint32_t e : path_edges(p)) in_layer[e] = 1;
  }
  return in_layer;
}

// ---- Cdg --------------------------------------------------------------------

Cdg::Cdg(const CdgCore& core, std::span<const std::uint32_t> members)
    : core_(core) {
  const PathSet& paths = core.paths();
  state_.assign(core.num_edges(), EdgeState{});
  in_cdg_.assign(paths.size(), 0);
  alive_members_ = static_cast<std::uint32_t>(members.size());
  for (std::uint32_t p : members) {
    in_cdg_[p] = 1;
    const std::uint32_t w = paths.weight(p);
    for (std::uint32_t e : core.path_edges(p)) {
      EdgeState& s = state_[e];
      if (s.path_count == 0) ++num_edges_;
      ++s.path_count;
      s.alive_weight += w;
    }
  }
  for (EdgeState& s : state_) s.alive_count = s.path_count;
}

std::vector<std::uint32_t> Cdg::alive_paths(std::uint32_t edge_index) const {
  std::vector<std::uint32_t> out;
  for (std::uint32_t p : core_.edge_paths(edge_index)) {
    // A path inducing the edge twice is listed twice, back to back.
    if (in_cdg_[p] && (out.empty() || out.back() != p)) out.push_back(p);
  }
  return out;
}

void Cdg::remove_path(std::uint32_t p) {
  assert(in_cdg_[p]);
  in_cdg_[p] = 0;
  --alive_members_;
  const std::uint32_t w = core_.paths().weight(p);
  for (std::uint32_t e : core_.path_edges(p)) {
    EdgeState& s = state_[e];
    assert(s.alive_count > 0);
    --s.alive_count;
    s.alive_weight -= w;
  }
}

// ---- CycleFinder ------------------------------------------------------------

CycleFinder::CycleFinder(const Cdg& cdg) : cdg_(cdg) {
  color_.assign(cdg.num_nodes(), 0);
  stack_pos_.assign(cdg.num_nodes(), kNone);
}

void CycleFinder::push(ChannelId node, std::uint32_t entry_edge) {
  color_[node] = 1;
  stack_pos_[node] = static_cast<std::uint32_t>(stack_.size());
  stack_.push_back({node, cdg_.core().first_edge(node), entry_edge});
}

void CycleFinder::pop_whiten() {
  const Frame& f = stack_.back();
  color_[f.node] = 0;
  stack_pos_[f.node] = kNone;
  stack_.pop_back();
}

bool CycleFinder::next_cycle(std::vector<std::uint32_t>& cycle_edges) {
  cycle_edges.clear();
  for (;;) {
    if (stack_.empty()) {
      while (next_root_ < cdg_.num_nodes() && color_[next_root_] != 0) {
        ++next_root_;
      }
      if (next_root_ >= cdg_.num_nodes()) return false;
      push(next_root_, kNone);
    }
    Frame& f = stack_.back();
    const std::uint32_t end = cdg_.core().end_edge(f.node);
    bool descended = false;
    while (f.cursor < end) {
      const std::uint32_t eidx = f.cursor;
      const Cdg::EdgeState& e = cdg_.edge(eidx);
      if (e.path_count == 0) {  // another layer's edge: not in this CDG
        ++f.cursor;
        continue;
      }
      ++steps_;
      if (e.alive_count == 0) {
        ++f.cursor;
        continue;
      }
      const ChannelId to = cdg_.core().target(eidx);
      if (color_[to] == 1) {
        // Found a cycle: tree edges from the target's stack frame downward, plus
        // the closing edge. Do not advance the cursor — after the caller's
        // cut either this edge is dead (skipped next time) or the stack was
        // repaired.
        for (std::uint32_t s = stack_pos_[to] + 1; s < stack_.size(); ++s) {
          cycle_edges.push_back(stack_[s].entry_edge);
        }
        cycle_edges.push_back(eidx);
        return true;
      }
      if (color_[to] == 2) {
        ++f.cursor;
        continue;
      }
      ++f.cursor;
      push(to, eidx);
      descended = true;
      break;
    }
    if (descended) continue;
    if (f.cursor >= end) {
      color_[f.node] = 2;  // fully explored, cannot lie on a future cycle
      stack_pos_[f.node] = kNone;
      stack_.pop_back();
    }
  }
}

void CycleFinder::repair() {
  // Find the shallowest frame whose tree entry edge died; everything from
  // there up was reached through a removed dependency and must be re-opened.
  std::size_t bad = stack_.size();
  for (std::size_t i = 1; i < stack_.size(); ++i) {
    if (cdg_.edge(stack_[i].entry_edge).alive_count == 0) {
      bad = i;
      break;
    }
  }
  while (stack_.size() > bad) pop_whiten();
}

// ---- offline layer assignment ----------------------------------------------

const char* to_string(CycleHeuristic h) {
  switch (h) {
    case CycleHeuristic::kWeakestEdge: return "weakest-edge";
    case CycleHeuristic::kHeaviestEdge: return "heaviest-edge";
    case CycleHeuristic::kFirstEdge: return "first-edge";
  }
  return "?";
}

namespace {

constexpr std::uint32_t kNoEdge = 0xFFFFFFFFu;

std::uint32_t pick_cycle_edge(const Cdg& cdg,
                              std::span<const std::uint32_t> cycle,
                              CycleHeuristic heuristic) {
  // Progress guard: an edge induced by *every* alive path would move the
  // whole layer forward unchanged and livelock the heaviest-edge heuristic
  // across layers. Every cycle has an edge induced by a strict subset (a
  // simple path cannot contain a complete cycle), so restrict to those.
  auto makes_progress = [&](std::uint32_t eidx) {
    return cdg.edge(eidx).alive_count < cdg.alive_members();
  };
  std::uint32_t best = kNoEdge;
  for (std::uint32_t eidx : cycle) {
    if (!makes_progress(eidx)) continue;
    if (best == kNoEdge) {
      best = eidx;
      if (heuristic == CycleHeuristic::kFirstEdge) return best;
      continue;
    }
    const std::uint64_t w = cdg.edge(eidx).alive_weight;
    const std::uint64_t bw = cdg.edge(best).alive_weight;
    if (heuristic == CycleHeuristic::kWeakestEdge ? (w < bw) : (w > bw)) {
      best = eidx;
    }
  }
  return best == kNoEdge ? cycle.front() : best;
}

}  // namespace

LayerResult assign_layers_offline(const PathSet& paths,
                                  std::uint32_t num_channels,
                                  const LayerOptions& options) {
  LayerResult result;
  result.layer.assign(paths.size(), 0);
  if (options.max_layers == 0) {
    result.error = "max_layers must be >= 1";
    return result;
  }

  // Paths shorter than two channels induce no dependencies; they stay in
  // layer 0 and never appear in any CDG.
  std::vector<std::uint32_t> members;
  for (std::uint32_t p = 0; p < paths.size(); ++p) {
    if (paths.channels(p).size() >= 2) members.push_back(p);
  }

  // Registry telemetry for the cycle-breaking loop — the numbers behind the
  // paper's Figures 7-10. Aggregated in locals and flushed once per call.
  std::uint64_t cycles_found = 0, paths_migrated = 0;
  static obs::Histogram& h_migration_layer = obs::registry().histogram(
      "cdg/migration_target_layer",
      {1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 16});

  // The shared dependency graph is built inside layer 0's cdg/build span;
  // every layer after that only recounts its members over it.
  std::optional<CdgCore> core;
  std::vector<std::uint32_t> cycle;
  Layer layers_used = 1;
  for (Layer l = 0; l < options.max_layers; ++l) {
    if (members.empty()) break;
    layers_used = static_cast<Layer>(l + 1);
    TRACE_SPAN("dfsssp/cycle_search");
    static obs::Histogram& h_cycle_search_ns =
        obs::registry().timing_histogram("cdg/cycle_search_ns");
    ScopedTimer phase_timer(h_cycle_search_ns);
    Cdg cdg = [&] {
      TRACE_SPAN("cdg/build");
      if (!core) core.emplace(paths, num_channels, CdgCore::EdgePaths::kBuild);
      return Cdg(*core, members);
    }();
    CycleFinder finder(cdg);
    std::vector<std::uint32_t> moved;
    std::uint64_t layer_cycles = 0;
    {
      TRACE_SPAN("cdg/dfs");
      while (finder.next_cycle(cycle)) {
        ++cycles_found;
        ++layer_cycles;
        if (l + 1 >= options.max_layers) {
          result.error = "cycle remains in the last virtual layer (" +
                         std::to_string(options.max_layers) +
                         " layers are not enough)";
          return result;
        }
        const std::uint32_t cut =
            pick_cycle_edge(cdg, cycle, options.heuristic);
        for (std::uint32_t p : cdg.alive_paths(cut)) {
          cdg.remove_path(p);
          result.layer[p] = static_cast<Layer>(l + 1);
          moved.push_back(p);
        }
        ++result.cycles_broken;
        h_migration_layer.record(static_cast<std::uint64_t>(l) + 1);
        finder.repair();
      }
    }
    paths_migrated += moved.size();
    // Deterministic search cost for this layer, counted in registry totals
    // and attributed to the enclosing dfsssp/cycle_search span: DFS edge
    // examinations plus the CDG edges materialised for this layer's build.
    static obs::Counter& c_steps =
        obs::registry().counter("cdg/cycle_search_steps");
    static obs::Counter& c_inserts =
        obs::registry().counter("cdg/edge_insertions");
    c_steps.add(finder.steps());
    c_inserts.add(cdg.num_edges());
    PROF_COUNT("cdg/cycle_search_steps", finder.steps());
    PROF_COUNT("cdg/edge_insertions", cdg.num_edges());
    PROF_COUNT("cdg/cycles_found", layer_cycles);
    PROF_COUNT("cdg/paths_migrated", moved.size());
    members = std::move(moved);
  }

  result.layers_used = layers_used;
  if (options.balance && layers_used < options.max_layers) {
    result.layers_used =
        balance_layers(paths, result.layer, layers_used, options.max_layers);
  }

  static obs::Counter& c_cycles = obs::registry().counter("cdg/cycles_found");
  static obs::Counter& c_migrated =
      obs::registry().counter("cdg/paths_migrated");
  c_cycles.add(cycles_found);
  c_migrated.add(paths_migrated);
  // Edges broken, attributed to the heuristic that chose them (== cycles
  // broken: one cut edge per cycle).
  obs::registry()
      // One name per Heuristic enum value: cardinality is bounded by the
      // enum, not by input data.
      // NOLINTNEXTLINE(dfs-metric-name-literal): bounded by Heuristic enum
      .counter(std::string("cdg/edges_broken/") + to_string(options.heuristic))
      .add(result.cycles_broken);
  // Final per-layer occupancy (after balancing when enabled): one recorded
  // sample per used layer, valued at the layer's member count.
  static obs::Histogram& h_occupancy = obs::registry().histogram(
      "cdg/layer_occupancy", obs::exponential_buckets(1, 4.0, 10));
  std::vector<std::uint64_t> occupancy(result.layers_used, 0);
  for (std::uint32_t p = 0; p < paths.size(); ++p) {
    if (paths.channels(p).empty()) continue;
    ++occupancy[result.layer[p]];
  }
  for (std::uint64_t o : occupancy) h_occupancy.record(o);

  result.ok = true;
  return result;
}

Layer balance_layers(const PathSet& paths, std::vector<Layer>& layer,
                     Layer layers_used, Layer max_layers) {
  if (layers_used >= max_layers) return layers_used;

  // Member lists and weighted loads per used layer.
  std::vector<std::vector<std::uint32_t>> members(layers_used);
  std::vector<std::uint64_t> load(layers_used, 0);
  for (std::uint32_t p = 0; p < paths.size(); ++p) {
    if (paths.channels(p).empty()) continue;  // intra-switch: layer is moot
    members[layer[p]].push_back(p);
    load[layer[p]] += paths.weight(p);
  }

  // Give each empty layer to the used layer with the highest per-share load.
  std::vector<std::uint32_t> shares(layers_used, 1);
  for (Layer extra = layers_used; extra < max_layers; ++extra) {
    std::size_t best = 0;
    double best_share = -1.0;
    for (std::size_t i = 0; i < shares.size(); ++i) {
      double share = static_cast<double>(load[i]) / shares[i];
      if (share > best_share) {
        best_share = share;
        best = i;
      }
    }
    ++shares[best];
  }

  // Split each layer's member list into `shares` weight-balanced chunks and
  // move every chunk but the first onto a fresh (previously empty) layer.
  // A subset of an acyclic path set stays acyclic, so no re-search needed.
  Layer next_free = layers_used;
  for (Layer l = 0; l < layers_used; ++l) {
    if (shares[l] <= 1) continue;
    const std::uint64_t target = (load[l] + shares[l] - 1) / shares[l];
    std::uint64_t acc = 0;
    std::uint32_t chunk = 0;
    for (std::uint32_t p : members[l]) {
      if (acc >= target * (chunk + 1) && chunk + 1 < shares[l]) ++chunk;
      if (chunk > 0) layer[p] = static_cast<Layer>(next_free + chunk - 1);
      acc += paths.weight(p);
    }
    next_free = static_cast<Layer>(next_free + shares[l] - 1);
  }
  return next_free;
}

}  // namespace dfsssp
