// First-fit virtual-layer assignment, the online layering of DFSSSP's first
// approach, LASH and incremental repair: each unit of paths goes into the
// lowest layer whose channel dependency graph stays acyclic with all of its
// edges. One Pearce-Kelly OnlineCdg per layer, made when first reached.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "cdg/online.hpp"

namespace dfsssp {

class FirstFitLayers {
 public:
  explicit FirstFitLayers(std::size_t num_channels = 0, Layer max_layers = 0)
      : num_channels_(static_cast<std::uint32_t>(num_channels)),
        max_layers_(max_layers) {}

  /// Adds every sequence of `unit` to the first layer that accepts them
  /// all; a layer that rejects one gets the unit's earlier ones removed
  /// again. Returns that layer, or kInvalidLayer with no layer changed. A
  /// unit without dependencies (no sequence of two or more channels) takes
  /// layer 0 without an attempt.
  Layer place(std::initializer_list<std::span<const ChannelId>> unit);
  /// Why place() returned kInvalidLayer, for error messages.
  std::string overflow_error() const {
    return "ran out of virtual layers (" + std::to_string(max_layers_) + ")";
  }
  /// Retracts a sequence place() put into `layer`.
  void remove(Layer layer, std::span<const ChannelId> seq) {
    if (seq.size() >= 2) layers_[layer].remove_path(seq);
  }

  /// One more than the highest layer holding a path, at least 1.
  Layer layers_used() const;
  /// Totals over the set's lifetime: layers tried by place(), and the
  /// layers' Pearce-Kelly reorders and dependency-edge insertions.
  std::uint64_t attempts() const { return attempts_; }
  std::uint64_t reorders() const { return sum(&OnlineCdg::num_reorders); }
  std::uint64_t insertions() const { return sum(&OnlineCdg::num_insertions); }

  Layer num_layers() const { return static_cast<Layer>(layers_.size()); }
  const OnlineCdg& layer(Layer l) const { return layers_[l]; }
  /// The first `count` layers' topological orders, a certificate's layer
  /// entries; empty for layers no unit has reached.
  std::vector<std::vector<ChannelId>> topological_orders(Layer count) const;

 private:
  std::uint64_t sum(std::uint64_t (OnlineCdg::*count)() const) const;

  std::uint32_t num_channels_;
  Layer max_layers_;
  std::vector<OnlineCdg> layers_;
  std::uint64_t attempts_ = 0;
};

}  // namespace dfsssp
