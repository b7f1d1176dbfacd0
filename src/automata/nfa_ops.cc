#include "automata/nfa_ops.h"

#include <algorithm>

namespace xmlup {
namespace {

/// Per-thread scratch for ProductSearch. The product BFS is the inner loop
/// of every reference match; reusing these buffers keeps the steady-state
/// search allocation-free (capacity is retained across
/// calls, assign() only memsets).
struct SearchScratch {
  /// parent[state] = (previous state, class taken); only kept for
  /// witnesses.
  struct Parent {
    size_t prev = SIZE_MAX;
    LabelClass on;
  };

  std::vector<char> visited;
  std::vector<Parent> parents;
  /// FIFO queue as a vector with a head cursor — same visit order as
  /// std::queue, but the backing storage survives between calls.
  std::vector<std::pair<StateId, StateId>> queue;

  static SearchScratch& Get() {
    thread_local SearchScratch scratch;
    return scratch;
  }
};

/// BFS over product states (sa, sb), taking epsilon moves into account by
/// closing each side independently. Records parents for witness
/// reconstruction when `want_witness` is set.
std::optional<ClassWord> ProductSearch(const Nfa& a, const Nfa& b,
                                       bool want_witness) {
  const size_t nb = b.num_states();
  auto encode = [nb](StateId sa, StateId sb) -> size_t {
    return static_cast<size_t>(sa) * nb + sb;
  };

  SearchScratch& scratch = SearchScratch::Get();
  std::vector<char>& visited = scratch.visited;
  visited.assign(a.num_states() * b.num_states(), 0);
  std::vector<SearchScratch::Parent>& parents = scratch.parents;
  if (want_witness) parents.assign(visited.size(), SearchScratch::Parent{});

  std::vector<std::pair<StateId, StateId>>& queue = scratch.queue;
  queue.clear();
  size_t queue_head = 0;

  auto enqueue_closed = [&](StateId sa, StateId sb, size_t from,
                            const LabelClass& on) {
    // Close both sides under epsilon and enqueue every pair in the closure.
    for (StateId xa : a.ClosureFrom(sa)) {
      for (StateId xb : b.ClosureFrom(sb)) {
        const size_t id = encode(xa, xb);
        if (visited[id]) continue;
        visited[id] = 1;
        if (want_witness) parents[id] = {from, on};
        queue.emplace_back(xa, xb);
      }
    }
  };

  enqueue_closed(a.start(), b.start(), SIZE_MAX, LabelClass::Any());

  while (queue_head < queue.size()) {
    auto [sa, sb] = queue[queue_head++];
    const size_t id = encode(sa, sb);
    if (sa == a.accept() && sb == b.accept()) {
      if (!want_witness) return ClassWord{};
      // Reconstruct the word by following parents.
      ClassWord word;
      size_t cur = id;
      while (parents[cur].prev != SIZE_MAX) {
        word.push_back(parents[cur].on);
        cur = parents[cur].prev;
      }
      std::reverse(word.begin(), word.end());
      return word;
    }
    for (uint32_t ti : a.TransitionsFrom(sa)) {
      const Nfa::Transition& ta = a.transitions()[ti];
      for (uint32_t tj : b.TransitionsFrom(sb)) {
        const Nfa::Transition& tb = b.transitions()[tj];
        LabelClass common;
        if (!IntersectClasses(ta.on, tb.on, &common)) continue;
        enqueue_closed(ta.to, tb.to, id, common);
      }
    }
  }
  return std::nullopt;
}

}  // namespace

bool IntersectionNonEmpty(const Nfa& a, const Nfa& b) {
  return ProductSearch(a, b, /*want_witness=*/false).has_value();
}

std::optional<ClassWord> IntersectionWitness(const Nfa& a, const Nfa& b) {
  return ProductSearch(a, b, /*want_witness=*/true);
}

}  // namespace xmlup
