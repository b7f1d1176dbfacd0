#include "common/wavefront.h"

#include <algorithm>

namespace xmlup {

Wavefronts ComputeWavefronts(
    size_t n, const std::vector<std::pair<size_t, size_t>>& edges,
    const std::vector<char>& skip) {
  auto skipped = [&](size_t i) { return !skip.empty() && skip[i] != 0; };
  Wavefronts out;
  out.level.assign(n, 0);
  for (const auto& [from, to] : edges) {
    if (skipped(from) || skipped(to)) continue;
    out.level[to] = std::max(out.level[to], out.level[from] + 1);
  }
  for (size_t i = 0; i < n; ++i) {
    if (skipped(i)) continue;
    if (out.level[i] >= out.batches.size()) {
      out.batches.resize(out.level[i] + 1);
    }
    out.batches[out.level[i]].push_back(i);
  }
  for (const auto& batch : out.batches) {
    out.width = std::max(out.width, batch.size());
  }
  return out;
}

}  // namespace xmlup
