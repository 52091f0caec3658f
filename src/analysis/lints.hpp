// Static lint suite over a finished routing — the class of offline
// configuration checks OpenSM's ibdmchk runs against a production fabric's
// LFT/SL dump. None of these affect deadlock freedom (the certificate
// covers that); they catch the quality and consistency defects that make a
// routing slow or its dump file untrustworthy: unreachable destinations,
// detours past the BFS distance, skewed virtual-layer load, more layers
// than the hardware has virtual lanes (the paper's Figure 9/10 LASH
// comparison counts exactly this), dangling or duplicate LFT entries, and
// SL entries referencing layers that do not exist.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "common/types.hpp"
#include "routing/dump.hpp"
#include "routing/table.hpp"
#include "topology/network.hpp"

namespace dfsssp {

enum class LintKind : std::uint8_t {
  /// Missing LFT entry, dead end, forwarding loop or hop over a dead link
  /// toward a destination.
  kUnreachableDestination,
  /// Path longer than the BFS hop distance between the switches.
  kNonMinimalPath,
  /// Weighted layer load max/mean above 2.
  kLayerSkew,
  /// More layers than the hardware has virtual lanes.
  kExcessVirtualLayers,
  /// LFT entry for a terminal attached to the switch itself (the packet
  /// should be ejected; the entry forwards it back into the fabric).
  kDanglingLftEntry,
  /// Duplicate lft/sl line in the dump file (later line overwrote earlier).
  kDuplicateLftEntry,
  /// SL entry >= the declared layer count.
  kSlOutOfRange,
  /// Declared layer carrying zero paths (a wasted virtual lane).
  kEmptyLayer,
  /// Minimal routing declaring fewer layers than the provable existence
  /// lower bound (analysis/existence.hpp): the dump is truncated or the
  /// routing cannot actually be deadlock-free.
  kLayersBelowExistenceBound,
};
inline constexpr std::size_t kNumLintKinds = 9;

const char* to_string(LintKind kind);

struct Lint {
  LintKind kind;
  std::string message;
};

struct LintOptions {
  /// Virtual lanes the target hardware offers (InfiniBand: 8).
  Layer hardware_vls = 8;
  /// Compare the declared layer count against the existence lower bound
  /// (only meaningful for minimal routings; skipped when any
  /// kNonMinimalPath fired, and on networks of more than 96 switches).
  bool existence_bound = true;
};

struct LintReport {
  /// Detailed findings, at most 8 per kind. The per-pair findings come out
  /// in source-switch order (walk_routed_paths, routing/collect.hpp), then
  /// the layer-level and file-level ones; deterministic at any thread
  /// count.
  std::vector<Lint> lints;
  /// Exact per-kind totals, indexed by LintKind.
  std::array<std::uint64_t, kNumLintKinds> counts{};
  std::uint64_t paths_checked = 0;

  std::uint64_t count(LintKind kind) const {
    return counts[static_cast<std::size_t>(kind)];
  }
  bool clean() const {
    for (std::uint64_t c : counts) {
      if (c != 0) return false;
    }
    return true;
  }
};

/// Runs every lint over the routing. Source switches are independent (each
/// owns one BFS distance field and its path walks) and fan out over
/// `exec`'s threads; findings are folded back in source order. `dump`,
/// when non-null, adds the file-level lints (duplicates, local LFT lines)
/// that are invisible in the loaded table.
LintReport lint_routing(const Network& net, const RoutingTable& table,
                        const LintOptions& options = {},
                        const DumpStats* dump = nullptr,
                        const ExecContext& exec = {});

}  // namespace dfsssp
