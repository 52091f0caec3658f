#include "fault/churn.hpp"

#include <algorithm>

namespace dfsssp {
namespace {

bool is_link_event(const FaultEvent& e) {
  return e.kind == FaultKind::kLinkDown || e.kind == FaultKind::kLinkUp;
}

bool is_up_event(const FaultEvent& e) {
  return e.kind == FaultKind::kLinkUp || e.kind == FaultKind::kSwitchUp;
}

/// Channels whose effective state one event can change: the link's two
/// directions, or everything physically touching the switch (inter-switch
/// links and the switch's terminals' injection/ejection channels).
/// Sorted, deduplicated.
std::vector<ChannelId> event_candidates(const Network& net,
                                        const FaultEvent& event) {
  std::vector<ChannelId> candidates;
  if (is_link_event(event)) {
    candidates = {event.channel, net.channel(event.channel).reverse};
  } else {
    for (ChannelId c : net.out_channels_all(event.sw)) {
      candidates.push_back(c);
      candidates.push_back(net.channel(c).reverse);
    }
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  return candidates;
}

}  // namespace

ChurnEngine::ChurnEngine(Topology& topo, ChurnOptions options)
    : topo_(&topo), options_(options) {}

void ChurnEngine::maybe_degrade_meta() {
  if (options_.degrade_meta && !topo_->meta.family.empty() &&
      topo_->meta.family.find("/degraded") == std::string::npos) {
    topo_->meta.sw_coord.clear();
    topo_->meta.sw_level.clear();
    topo_->meta.dims.clear();
    topo_->meta.wraparound = false;
    topo_->meta.family += "/degraded";
  }
}

ChurnDelta ChurnEngine::flip(const FaultEvent& event) {
  Network& net = topo_->net;
  ChurnDelta delta;
  delta.event = event;

  const bool is_link = is_link_event(event);
  const std::vector<ChannelId> candidates = event_candidates(net, event);

  std::vector<std::uint8_t> alive_before(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    alive_before[i] = net.channel_alive(candidates[i]) ? 1 : 0;
  }
  const bool sw_up_before = !is_link && net.switch_up(event.sw);

  const bool up = is_up_event(event);
  if (is_link) {
    net.set_link_up(event.channel, up);
  } else {
    net.set_switch_up(event.sw, up);
  }

  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const bool alive_after = net.channel_alive(candidates[i]);
    if (alive_before[i] && !alive_after) delta.downed.push_back(candidates[i]);
    if (!alive_before[i] && alive_after) {
      delta.restored.push_back(candidates[i]);
    }
  }
  if (!is_link && net.switch_up(event.sw) != sw_up_before) {
    (up ? delta.switches_up : delta.switches_down).push_back(event.sw);
  }
  delta.applied = !delta.no_effect();
  return delta;
}

ChurnDelta ChurnEngine::apply(const FaultEvent& event) {
  Network& net = topo_->net;
  ChurnDelta delta = flip(event);

  if (!is_up_event(event) && options_.veto_disconnecting &&
      !net.alive_connected()) {
    // Roll back: this fault would partition the alive fabric.
    if (is_link_event(event)) {
      net.set_link_up(event.channel, true);
    } else {
      net.set_switch_up(event.sw, true);
    }
    ChurnDelta vetoed;
    vetoed.event = event;
    vetoed.veto_reason = "would disconnect the alive switches";
    ++events_vetoed_;
    return vetoed;
  }

  if (!delta.applied) return delta;  // e.g. re-killing an already-dead link

  ++events_applied_;
  maybe_degrade_meta();
  return delta;
}

ChurnDelta ChurnEngine::apply_all(std::span<const FaultEvent> events) {
  ChurnDelta delta;
  if (events.empty()) return delta;
  if (events.size() == 1) return apply(events.front());
  Network& net = topo_->net;
  delta.event = events.front();

  // Batch-start snapshot over the union of everything any event can touch.
  // The coalesced delta is measured against this, so a channel downed and
  // restored within the batch nets out to no entry at all.
  std::vector<ChannelId> union_ch;
  std::vector<NodeId> union_sw;
  for (const FaultEvent& e : events) {
    if (is_link_event(e)) {
      union_ch.push_back(e.channel);
      union_ch.push_back(net.channel(e.channel).reverse);
    } else {
      union_sw.push_back(e.sw);
      for (ChannelId c : net.out_channels_all(e.sw)) {
        union_ch.push_back(c);
        union_ch.push_back(net.channel(c).reverse);
      }
    }
  }
  std::sort(union_ch.begin(), union_ch.end());
  union_ch.erase(std::unique(union_ch.begin(), union_ch.end()),
                 union_ch.end());
  std::sort(union_sw.begin(), union_sw.end());
  union_sw.erase(std::unique(union_sw.begin(), union_sw.end()),
                 union_sw.end());

  std::vector<std::uint8_t> alive_start(union_ch.size());
  std::vector<std::uint8_t> link_phys_start(union_ch.size());
  for (std::size_t i = 0; i < union_ch.size(); ++i) {
    alive_start[i] = net.channel_alive(union_ch[i]) ? 1 : 0;
    link_phys_start[i] = net.link_up(union_ch[i]) ? 1 : 0;
  }
  std::vector<std::uint8_t> sw_start(union_sw.size());
  for (std::size_t i = 0; i < union_sw.size(); ++i) {
    sw_start[i] = net.switch_up(union_sw[i]) ? 1 : 0;
  }

  // Forward pass: flip every event with apply()'s own per-event effect
  // tracking, so the events_applied counter stays equal to the serial
  // path's.
  std::uint64_t applied_here = 0;
  bool any_down = false;
  for (const FaultEvent& e : events) {
    if (!is_up_event(e)) any_down = true;
    if (flip(e).applied) ++applied_here;
  }

  if (any_down && options_.veto_disconnecting && !net.alive_connected()) {
    // The single partition pass failed: the batch as a whole disconnects
    // the alive switches. Roll everything back to the batch-start state and
    // replay per event, so exactly the disconnecting events are vetoed and
    // the fabric ends up identical to a serial apply() loop.
    // Restore only links whose physical state moved: terminal
    // injection/ejection channels are in the union (a switch event kills
    // them) but have no independent link state — set_switch_up below
    // revives them.
    for (std::size_t i = 0; i < union_ch.size(); ++i) {
      const bool want = link_phys_start[i] != 0;
      if (net.link_up(union_ch[i]) != want) {
        net.set_link_up(union_ch[i], want);
      }
    }
    for (std::size_t i = 0; i < union_sw.size(); ++i) {
      net.set_switch_up(union_sw[i], sw_start[i] != 0);
    }
    const std::uint64_t vetoed_before = events_vetoed_;
    for (const FaultEvent& e : events) apply(e);
    const std::uint64_t vetoed = events_vetoed_ - vetoed_before;
    if (vetoed > 0) {
      delta.veto_reason = std::to_string(vetoed) + " of " +
                          std::to_string(events.size()) +
                          " events vetoed: would disconnect the alive "
                          "switches";
    }
  } else {
    events_applied_ += applied_here;
    if (applied_here > 0) maybe_degrade_meta();
  }

  // Coalesced delta: batch start vs wherever the fabric ended up.
  for (std::size_t i = 0; i < union_ch.size(); ++i) {
    const bool alive_now = net.channel_alive(union_ch[i]);
    if (alive_start[i] != 0 && !alive_now) delta.downed.push_back(union_ch[i]);
    if (alive_start[i] == 0 && alive_now) {
      delta.restored.push_back(union_ch[i]);
    }
  }
  for (std::size_t i = 0; i < union_sw.size(); ++i) {
    const bool up_now = net.switch_up(union_sw[i]);
    if (sw_start[i] != 0 && !up_now) delta.switches_down.push_back(union_sw[i]);
    if (sw_start[i] == 0 && up_now) delta.switches_up.push_back(union_sw[i]);
  }
  delta.applied = !delta.no_effect();
  return delta;
}

}  // namespace dfsssp
