#ifndef XMLUP_COMMON_WAVEFRONT_H_
#define XMLUP_COMMON_WAVEFRONT_H_

#include <cstddef>
#include <utility>
#include <vector>

namespace xmlup {

/// Wavefront levels of a dependence DAG over nodes 0..n-1: level k holds
/// the nodes whose predecessors all sit in earlier levels, so nodes that
/// share a level have no edge between them. The one construction behind
/// the lint parallel-safety partitioner and the merge executor's levels.
struct Wavefronts {
  /// Per node; 0 for skipped nodes (they sit in no batch).
  std::vector<size_t> level;
  /// The non-skipped nodes of each level, in ascending index order.
  std::vector<std::vector<size_t>> batches;
  /// The largest batch size.
  size_t width = 0;
};

/// `edges` must go from a lower to a higher index; then one forward sweep
/// settles all longest paths. Edges touching a node with `skip[i] != 0`
/// are ignored, as are the skipped nodes themselves; an empty `skip`
/// skips nothing.
Wavefronts ComputeWavefronts(
    size_t n, const std::vector<std::pair<size_t, size_t>>& edges,
    const std::vector<char>& skip = {});

}  // namespace xmlup

#endif  // XMLUP_COMMON_WAVEFRONT_H_
