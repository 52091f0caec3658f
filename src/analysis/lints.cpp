#include "analysis/lints.hpp"

#include <algorithm>
#include <cstdio>

#include "analysis/existence.hpp"
#include "routing/collect.hpp"
#include "routing/spath.hpp"

namespace dfsssp {

const char* to_string(LintKind kind) {
  switch (kind) {
    case LintKind::kUnreachableDestination: return "unreachable-destination";
    case LintKind::kNonMinimalPath: return "non-minimal-path";
    case LintKind::kLayerSkew: return "layer-skew";
    case LintKind::kExcessVirtualLayers: return "excess-virtual-layers";
    case LintKind::kDanglingLftEntry: return "dangling-lft-entry";
    case LintKind::kDuplicateLftEntry: return "duplicate-lft-entry";
    case LintKind::kSlOutOfRange: return "sl-out-of-range";
    case LintKind::kEmptyLayer: return "empty-layer";
    case LintKind::kLayersBelowExistenceBound:
      return "layers-below-existence-bound";
  }
  return "unknown";
}

namespace {

/// kLayerSkew fires above this max/mean weighted layer load.
constexpr double kSkewThreshold = 2.0;
/// Detailed messages kept per kind; counts are always exact.
constexpr std::uint32_t kMaxReportsPerKind = 8;
/// The existence bound is O(S^2); larger networks skip it.
constexpr std::uint32_t kExistenceMaxSwitches = 96;

/// Everything one source switch contributes, produced independently per
/// source and folded in source order.
struct SourceFindings {
  std::vector<Lint> lints;  // capped at kMaxReportsPerKind per kind
  std::array<std::uint64_t, kNumLintKinds> counts{};
  std::vector<std::uint64_t> layer_weight;  // indexed by layer
  std::uint64_t paths_checked = 0;
};

}  // namespace

LintReport lint_routing(const Network& net, const RoutingTable& table,
                        const LintOptions& options, const DumpStats* dump,
                        const ExecContext& exec) {
  const Layer num_layers = std::max<Layer>(1, table.num_layers());
  const std::vector<NodeId> sources = routed_sources(net);

  auto per_source = parallel_map(
      exec, sources.size(), [&](std::size_t i) {
        SourceFindings f;
        f.layer_weight.assign(num_layers, 0);
        const NodeId sw = sources[i];
        const std::uint32_t weight = net.terminals_on(sw);
        std::vector<std::uint32_t> dist;
        bfs_hops_to(net, sw, dist);
        // Only a reported finding builds its message.
        auto emit = [&](LintKind kind, auto&& message) {
          if (++f.counts[static_cast<std::size_t>(kind)] <=
              kMaxReportsPerKind) {
            f.lints.push_back({kind, message()});
          }
        };
        // Packets for the source's own (alive) terminals must be ejected.
        for (NodeId t : net.terminals()) {
          if (net.switch_of(t) == sw && table.next(sw, t) != kInvalidChannel) {
            emit(LintKind::kDanglingLftEntry, [&] {
              return "lft entry at " + net.node_name(sw) +
                     " for local terminal " + net.node_name(t) +
                     " (should eject, not forward)";
            });
          }
        }
        // Switches without terminals originate no paths; their LFT entries
        // are exercised as transit hops of these walks.
        walk_routed_paths(net, table, {&sw, 1}, [&](const RoutedPath& r) {
          auto pair_name = [&] {
            return net.node_name(sw) + " -> " + net.node_name(r.dst_terminal);
          };
          if (r.layer >= table.num_layers()) {
            emit(LintKind::kSlOutOfRange, [&] {
              return "sl entry " + pair_name() + " selects layer " +
                     std::to_string(unsigned(r.layer)) + " but only " +
                     std::to_string(unsigned(table.num_layers())) +
                     " layers are declared";
            });
          }
          if (!r.walked) {
            emit(LintKind::kUnreachableDestination, [&] {
              return table.next(sw, r.dst_terminal) == kInvalidChannel
                         ? "no lft entry for " + pair_name()
                         : "forwarding walk " + pair_name() +
                               " dead-ends, loops or crosses a dead link";
            });
            return true;
          }
          ++f.paths_checked;
          if (r.layer < num_layers) f.layer_weight[r.layer] += weight;
          const std::uint32_t d =
              dist[net.node(net.switch_of(r.dst_terminal)).type_index];
          if (r.channels.size() > d) {
            emit(LintKind::kNonMinimalPath, [&] {
              return "path " + pair_name() + " takes " +
                     std::to_string(r.channels.size()) +
                     " hops, BFS distance is " + std::to_string(d);
            });
          }
          return true;
        });
        return f;
      });

  LintReport report;
  std::vector<std::uint64_t> layer_weight(num_layers, 0);
  std::array<std::uint32_t, kNumLintKinds> reported{};
  for (SourceFindings& f : per_source) {
    report.paths_checked += f.paths_checked;
    for (std::size_t k = 0; k < kNumLintKinds; ++k) {
      report.counts[k] += f.counts[k];
    }
    for (Layer l = 0; l < num_layers; ++l) layer_weight[l] += f.layer_weight[l];
    for (Lint& lint : f.lints) {
      std::uint32_t& seen = reported[static_cast<std::size_t>(lint.kind)];
      if (seen < kMaxReportsPerKind) {
        ++seen;
        report.lints.push_back(std::move(lint));
      }
    }
  }

  auto emit_global = [&](LintKind kind, std::string msg) {
    ++report.counts[static_cast<std::size_t>(kind)];
    report.lints.push_back({kind, std::move(msg)});
  };

  // Layer-level lints (global, computed after the fold).
  if (table.num_layers() > options.hardware_vls) {
    emit_global(
        LintKind::kExcessVirtualLayers,
        "routing declares " + std::to_string(unsigned(table.num_layers())) +
            " virtual layers but the hardware offers " +
            std::to_string(unsigned(options.hardware_vls)) +
            " VLs (cf. the paper's Figure 9/10 LASH-vs-DFSSSP VL counts)");
  }
  std::uint64_t total_weight = 0, max_weight = 0;
  for (Layer l = 0; l < num_layers; ++l) {
    total_weight += layer_weight[l];
    max_weight = std::max(max_weight, layer_weight[l]);
    if (table.num_layers() > 1 && layer_weight[l] == 0) {
      emit_global(LintKind::kEmptyLayer,
                  "layer " + std::to_string(unsigned(l)) +
                      " is declared but carries no paths");
    }
  }
  if (total_weight > 0 && num_layers > 1) {
    const double mean =
        static_cast<double>(total_weight) / static_cast<double>(num_layers);
    const double skew = static_cast<double>(max_weight) / mean;
    if (skew > kSkewThreshold) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "weighted layer load is skewed: max/mean = %.2f "
                    "(threshold %.2f); consider balancing",
                    skew, kSkewThreshold);
      emit_global(LintKind::kLayerSkew, buf);
    }
  }

  // Existence lower bound: only binds minimal routings (every non-minimal
  // path is a routed-around dependency the bound knows nothing about). A
  // valid minimal routing can never trip this — the bound is provably below
  // the layer count of every certificate-passing minimal routing — so a hit
  // means the dump is truncated or the claimed routing is deadlock-prone.
  if (options.existence_bound && report.paths_checked > 0 &&
      report.count(LintKind::kNonMinimalPath) == 0) {
    const ExistenceBound bound =
        existence_lower_bound(net, kExistenceMaxSwitches);
    if (bound.computed && num_layers < bound.min_layers) {
      emit_global(
          LintKind::kLayersBelowExistenceBound,
          "routing declares " + std::to_string(unsigned(num_layers)) +
              " layer(s) but any minimal deadlock-free routing of this "
              "fabric needs at least " +
              std::to_string(unsigned(bound.min_layers)) +
              (bound.union_cyclic
                   ? " (the forced-dependency union is cyclic;"
                   : " (conflict clique of " +
                         std::to_string(bound.conflict_clique) + " pairs;") +
              " conservative Mendlovic-Matias existence bound, "
              "arXiv:2503.04583)");
    }
  }

  // File-level lints only the dump reader can see.
  if (dump != nullptr) {
    if (dump->duplicate_lft > 0) {
      emit_global(LintKind::kDuplicateLftEntry,
                  std::to_string(dump->duplicate_lft) +
                      " duplicate lft line(s) in the dump "
                      "(later lines overwrote earlier ones)");
    }
    if (dump->duplicate_sl > 0) {
      emit_global(LintKind::kDuplicateLftEntry,
                  std::to_string(dump->duplicate_sl) +
                      " duplicate sl line(s) in the dump");
    }
    // dump->local_lft needs no extra lint: the loaded table carries those
    // entries, so the per-source dangling check above reports them.
  }
  return report;
}

}  // namespace dfsssp
