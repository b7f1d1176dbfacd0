#include "match/dp_matcher.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace xmlup {
namespace {

/// Flattened view of the first `limit` nodes of a linear pattern: per-node
/// symbol classes and the axis of the edge *into* each node (index 0 =
/// root, no incoming edge).
struct Flat {
  std::vector<LabelClass> classes;
  std::vector<Axis> axes;

  Flat(const Pattern& l, size_t limit) {
    for (PatternNodeId n = l.root(); n != kNullPatternNode && size() < limit;
         n = l.first_child(n)) {
      classes.push_back(l.is_wildcard(n) ? LabelClass::Any()
                                         : LabelClass::Of(l.label(n)));
      axes.push_back(n == l.root() ? Axis::kChild : l.axis(n));
    }
  }

  size_t size() const { return classes.size(); }
};

struct Parent {
  size_t prev = SIZE_MAX;
  LabelClass on;
  bool visited = false;
};

/// Per-thread scratch: the DP grid and the BFS queue are reused across
/// calls (assign() keeps capacity), so a steady-state match allocates
/// nothing. The queue is a vector with a head cursor — same FIFO order as
/// std::queue with retained storage.
struct DpScratch {
  std::vector<Parent> table;
  std::vector<std::pair<size_t, size_t>> queue;

  static DpScratch& Get() {
    thread_local DpScratch scratch;
    return scratch;
  }
};

}  // namespace

MatchResult MatchDp(const Pattern& l1, const Pattern& l2, bool weak,
                    size_t l2_prefix) {
  XMLUP_CHECK(l1.IsLinear());
  XMLUP_CHECK(l2.IsLinear());
  XMLUP_CHECK(l2_prefix >= 1);
  const Flat f1(l1, SIZE_MAX);
  const Flat f2(l2, l2_prefix);
  const size_t m1 = f1.size();
  const size_t m2 = f2.size();

  // State (i, j): i nodes of l1 and j nodes of l2 matched onto the prefix
  // of a common root-to-leaf path. Both patterns consume the same word;
  // each word symbol is consumed by each side, either by *advancing* (the
  // symbol is the side's next pattern node) or by *gapping* (the symbol is
  // an intermediate node under a pending descendant edge — or, in weak
  // mode, below l2's already-matched output).
  const size_t width = m2 + 1;
  auto encode = [width](size_t i, size_t j) { return i * width + j; };
  DpScratch& scratch = DpScratch::Get();
  std::vector<Parent>& table = scratch.table;
  table.assign((m1 + 1) * (m2 + 1), Parent{});

  auto gap1_ok = [&](size_t i) {
    return i >= 1 && i < m1 && f1.axes[i] == Axis::kDescendant;
  };
  auto gap2_ok = [&](size_t j) {
    if (j >= 1 && j < m2 && f2.axes[j] == Axis::kDescendant) return true;
    return weak && j == m2;
  };

  std::vector<std::pair<size_t, size_t>>& queue = scratch.queue;
  queue.clear();
  size_t queue_head = 0;
  auto visit = [&](size_t i, size_t j, size_t from, const LabelClass& on) {
    Parent& cell = table[encode(i, j)];
    if (cell.visited) return;
    cell = {from, on, true};
    queue.emplace_back(i, j);
  };

  visit(0, 0, SIZE_MAX, LabelClass::Any());
  while (queue_head < queue.size()) {
    auto [i, j] = queue[queue_head++];
    if (i == m1 && j == m2) {
      MatchResult result;
      result.matches = true;
      size_t cur = encode(i, j);
      while (table[cur].prev != SIZE_MAX) {
        result.witness_word.push_back(table[cur].on);
        cur = table[cur].prev;
      }
      std::reverse(result.witness_word.begin(), result.witness_word.end());
      return result;
    }
    const size_t id = encode(i, j);
    // Both sides advance.
    if (i < m1 && j < m2) {
      LabelClass common;
      if (IntersectClasses(f1.classes[i], f2.classes[j], &common)) {
        visit(i + 1, j + 1, id, common);
      }
    }
    // l1 advances, l2 gaps.
    if (i < m1 && gap2_ok(j)) visit(i + 1, j, id, f1.classes[i]);
    // l2 advances, l1 gaps.
    if (j < m2 && gap1_ok(i)) visit(i, j + 1, id, f2.classes[j]);
  }
  return MatchResult{};
}

}  // namespace xmlup
