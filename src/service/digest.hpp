// Deterministic digests of published forwarding state, recorded in the
// flight-recorder journal (obs/journal) and re-checked by dfreplay.
//
// FNV-1a 64 over a canonical serialization: node ids ascend, so two
// RoutingTables hash equal iff every (switch, terminal) slot's next
// channel and layer agree — "bitwise-identical forwarding snapshot" in one
// u64. The certificate digest hashes the engine's own per-layer orders
// (DFSSSP's Pearce-Kelly orders) or, from engines that return none,
// make_certificate's canonical Kahn orders, so it pins the deterministic
// deadlock-freedom proof of a generation, not just its table.
#pragma once

#include <cstdint>

#include "routing/table.hpp"
#include "topology/network.hpp"

namespace dfsssp::service {

/// FNV-1a 64 of (num_layers, then next+layer per ascending
/// (switch, terminal) pair).
std::uint64_t table_digest(const Network& net, const RoutingTable& table);

/// FNV-1a 64 of (num_layers, then per layer: order length + channel ids).
std::uint64_t certificate_digest(const Certificate& cert);

}  // namespace dfsssp::service
