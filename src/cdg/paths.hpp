// A set of routed paths in channel-sequence form.
//
// This is the interchange format between the routing engines and the
// deadlock machinery: each path is the sequence of inter-switch channels a
// message traverses, keyed by (source switch, destination terminal) and
// weighted by the number of terminals on the source switch (destination-
// based forwarding makes all of them take the identical channel sequence,
// so one entry represents `weight` of the paper's |N|^2 terminal pairs).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace dfsssp {

class PathSet {
 public:
  /// Appends a path; `channels` may be empty (intra-switch traffic).
  void add(std::uint32_t src_switch_index, std::uint32_t dst_terminal_index,
           std::span<const ChannelId> channels, std::uint32_t weight = 1) {
    src_switch_.push_back(src_switch_index);
    dst_terminal_.push_back(dst_terminal_index);
    weight_.push_back(weight);
    channels_.insert(channels_.end(), channels.begin(), channels.end());
    offset_.push_back(static_cast<std::uint32_t>(channels_.size()));
  }

  /// Makes room for `num_paths` paths in total (their channels excluded).
  void reserve(std::size_t num_paths) {
    offset_.reserve(num_paths + 1);
    src_switch_.reserve(num_paths);
    dst_terminal_.reserve(num_paths);
    weight_.reserve(num_paths);
  }

  std::size_t size() const { return src_switch_.size(); }
  bool empty() const { return src_switch_.empty(); }

  std::span<const ChannelId> channels(std::size_t p) const {
    return {channels_.data() + offset_[p], offset_[p + 1] - offset_[p]};
  }
  std::uint32_t src_switch_index(std::size_t p) const { return src_switch_[p]; }
  std::uint32_t dst_terminal_index(std::size_t p) const {
    return dst_terminal_[p];
  }
  std::uint32_t weight(std::size_t p) const { return weight_[p]; }

  /// Position of path p's first channel in the concatenation of all
  /// paths' channels, in path order.
  std::size_t channel_offset(std::size_t p) const { return offset_[p]; }

  /// Total number of channel entries across all paths.
  std::size_t total_channels() const { return channels_.size(); }

 private:
  std::vector<std::uint32_t> offset_{0};
  std::vector<ChannelId> channels_;
  std::vector<std::uint32_t> src_switch_;
  std::vector<std::uint32_t> dst_terminal_;
  std::vector<std::uint32_t> weight_;
};

}  // namespace dfsssp
