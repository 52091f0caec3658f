// Machine-checkable deadlock-freedom certificates.
//
// `layering_is_deadlock_free` answers "is this routing deadlock-free?" with
// a boolean by *searching* each layer's channel dependency graph for cycles.
// A certificate turns that answer into a proof a third party can re-check
// without trusting (or re-running) the cycle search: per virtual layer it
// records a topological order of the layer's CDG nodes. Checking the proof
// is a single O(V + E) pass — walk every forwarding path and verify that
// consecutive channels appear in strictly increasing order positions — and
// a topological order *exists* iff the layer's CDG is acyclic, so an
// accepted certificate is exactly the paper's sufficient deadlock-freedom
// condition (Section III), made auditable. This mirrors what OpenSM's
// `ibdmchk` provides for production fabrics: offline validation of a dumped
// routing configuration.
//
// Channels are named in the serialized form by (source node, destination
// node, parallel index), the same stable slot naming forwarding dumps use,
// so a certificate stays valid across save/load of the topology.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "cdg/paths.hpp"
#include "common/parallel.hpp"
#include "common/types.hpp"
#include "routing/table.hpp"
#include "topology/network.hpp"

namespace dfsssp {

struct CertificateResult {
  bool ok = false;
  /// Why no certificate could be built for a routing table that is not
  /// the network's (e.g. a failed route's empty table); empty otherwise.
  std::string error;
  /// First layer whose CDG is cyclic (when !ok) — feed it to
  /// extract_witness to see why.
  Layer cyclic_layer = kInvalidLayer;
  Certificate cert;
};

/// Builds the certificate for a path set + layer assignment: one Kahn
/// topological sort per layer, layers fanned out over `exec`'s threads.
/// The order within each layer is canonical (smallest channel id first
/// among ready nodes), so the result is identical at any thread count.
CertificateResult make_certificate(const PathSet& paths,
                                   std::span<const Layer> layer,
                                   std::uint32_t num_channels,
                                   const ExecContext& exec = {});

/// Convenience: collect paths and layers out of a finished routing first.
/// Returns !ok with `error` set when `table` was not built for `net`.
/// Throws std::runtime_error when a forwarding walk is broken.
CertificateResult make_certificate(const Network& net,
                                   const RoutingTable& table,
                                   const ExecContext& exec = {});

/// Text serialization:
///   # dfsssp deadlock-freedom certificate
///   cert 1
///   layers <L>
///   layer <l> <n>        (for each l in 0..L-1, in order)
///   c <src> <dst> <slot> (exactly n per layer, topological order)
///   end
void write_certificate(const Network& net, const Certificate& cert,
                       std::ostream& out);
void write_certificate_path(const Network& net, const Certificate& cert,
                            const std::string& path);

/// Parses a certificate against the topology it was produced on. Throws
/// std::runtime_error ("<source>:<line>: <what>") on malformed input,
/// unknown node names or channel slots, a layer count outside
/// [1, kMaxLayers], out-of-order layer blocks, or truncation (missing
/// channel lines or a missing trailing `end`).
Certificate read_certificate(const Network& net, std::istream& in,
                             const std::string& source = "certificate");
Certificate read_certificate_path(const Network& net,
                                  const std::string& path);

struct CertCheckResult {
  bool ok = false;
  /// First violation, human-readable; empty when ok.
  std::string error;
  std::uint64_t paths_checked = 0;
  /// Consecutive-channel dependencies verified against the order.
  std::uint64_t deps_checked = 0;
};

/// The independent checker: validates `cert` against a routing in one
/// O(V + E) pass with no cycle search. Rejects when `table` was not built
/// for `net`, the layer counts
/// disagree, a layer's order lists a channel twice, a path's layer has no
/// order, a dependency's channel is missing from its layer's order, a
/// dependency violates the order, or a forwarding walk is broken (a dead
/// end, a loop or a hop over a dead channel: a path that cannot be walked
/// cannot be certified). The paths come from walk_routed_paths
/// (routing/collect.hpp), in its order.
CertCheckResult check_certificate(const Network& net,
                                  const RoutingTable& table,
                                  const Certificate& cert);

}  // namespace dfsssp
