#include "cdg/first_fit.hpp"

#include <algorithm>

namespace dfsssp {

Layer FirstFitLayers::place(
    std::initializer_list<std::span<const ChannelId>> unit) {
  auto has_deps = [](std::span<const ChannelId> s) { return s.size() >= 2; };
  if (std::none_of(unit.begin(), unit.end(), has_deps)) return 0;
  for (Layer l = 0; l < max_layers_; ++l) {
    if (l == layers_.size()) layers_.emplace_back(num_channels_);
    ++attempts_;
    auto it = unit.begin();
    while (it != unit.end() &&
           (!has_deps(*it) || layers_[l].try_add_path(*it))) {
      ++it;
    }
    if (it == unit.end()) return l;
    for (auto done = unit.begin(); done != it; ++done) remove(l, *done);
  }
  return kInvalidLayer;
}

Layer FirstFitLayers::layers_used() const {
  Layer used = num_layers();
  while (used > 1 && layers_[used - 1].num_paths() == 0) --used;
  return std::max<Layer>(used, 1);
}

std::uint64_t FirstFitLayers::sum(
    std::uint64_t (OnlineCdg::*count)() const) const {
  std::uint64_t total = 0;
  for (const OnlineCdg& cdg : layers_) total += (cdg.*count)();
  return total;
}

std::vector<std::vector<ChannelId>> FirstFitLayers::topological_orders(
    Layer count) const {
  std::vector<std::vector<ChannelId>> orders(count);
  for (Layer l = 0; l < count && l < layers_.size(); ++l) {
    orders[l] = layers_[l].topological_order();
  }
  return orders;
}

}  // namespace dfsssp
