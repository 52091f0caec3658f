// In-place fault application with effective-change deltas.
//
// ChurnEngine is the mutation side of the fault subsystem: it applies
// FaultEvents to one Topology IN PLACE (Network::set_link_up /
// set_switch_up — no rebuild, every NodeId/ChannelId stable) and reports
// exactly which directed channels and switches changed effective state as a
// ChurnDelta. That delta is the contract with IncrementalDfsssp: the
// repair engine invalidates precisely the destinations whose paths touch
// `delta.downed` channels.
//
// Events that would disconnect the alive switches are vetoed (rolled back,
// `applied == false`) by default — the same degraded-connectivity detection
// a subnet manager performs before reprogramming a fabric it can no longer
// span.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "fault/schedule.hpp"
#include "topology/topology.hpp"

namespace dfsssp {

struct ChurnDelta {
  FaultEvent event{};
  /// False when the event was vetoed (see veto_reason) or changed nothing.
  bool applied = false;
  std::string veto_reason;
  /// Directed channels that were traversable before and are not now.
  std::vector<ChannelId> downed;
  /// Directed channels that were dead before and are traversable now.
  std::vector<ChannelId> restored;
  /// Switches whose up flag flipped (at most one per event).
  std::vector<NodeId> switches_down;
  std::vector<NodeId> switches_up;

  bool no_effect() const {
    return downed.empty() && restored.empty() && switches_down.empty() &&
           switches_up.empty();
  }
};

struct ChurnOptions {
  /// Roll back any event after which the alive switches are disconnected.
  bool veto_disconnecting = true;
  /// On the first applied fault, drop the topology's generator metadata
  /// (coordinates, tree levels): a degraded fabric is no longer the regular
  /// structure the generator promised, so structure-dependent engines (DOR,
  /// fat-tree) must refuse it rather than route it wrong — exactly how a
  /// subnet manager re-discovers a broken fabric as an arbitrary graph.
  bool degrade_meta = true;
};

class ChurnEngine {
 public:
  explicit ChurnEngine(Topology& topo, ChurnOptions options = {});

  /// Applies one event and returns the effective change. The Topology
  /// mutates in place; a vetoed event leaves it untouched.
  ChurnDelta apply(const FaultEvent& event);

  /// Applies a batch of events and returns ONE coalesced delta: channel and
  /// switch flips are measured batch-start vs batch-end (a link downed and
  /// restored within the batch appears in neither list, duplicates collapse),
  /// and connectivity is vetoed with a single partition pass at the end
  /// instead of per event. This is what lets a daemon fold a burst of fault
  /// notifications into one repair. When the batch as a whole would
  /// disconnect the alive switches, it is rolled back and replayed per event
  /// so exactly the disconnecting events are vetoed — the net topology state
  /// is then identical to calling apply() in a loop. `delta.event` is the
  /// first event of the batch; an empty batch returns a no-effect delta.
  ChurnDelta apply_all(std::span<const FaultEvent> events);

  const Topology& topo() const { return *topo_; }
  std::uint64_t events_applied() const { return events_applied_; }
  std::uint64_t events_vetoed() const { return events_vetoed_; }

 private:
  /// Flips one event's state in the network, with no veto, and returns
  /// its own effect: its candidate channels' aliveness and its switch's up
  /// flag, before vs after. `applied` is true when anything changed.
  ChurnDelta flip(const FaultEvent& event);
  /// Drops generator metadata once the fabric diverges from its generated
  /// structure (see ChurnOptions::degrade_meta).
  void maybe_degrade_meta();

  Topology* topo_;
  ChurnOptions options_;
  std::uint64_t events_applied_ = 0;
  std::uint64_t events_vetoed_ = 0;
};

}  // namespace dfsssp
