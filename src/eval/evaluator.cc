#include "eval/evaluator.h"

#include <algorithm>
#include <memory>

#include "eval/sat_kernel.h"

namespace xmlup {
namespace {

bool LabelOk(const Pattern& p, PatternNodeId q, const Tree& t, NodeId n) {
  return p.is_wildcard(q) || p.label(q) == t.label(n);
}

/// The bottom-up pass over the subtree of `top`, in postorder along the
/// tree's child/sibling/parent links.
template <size_t kW>
void ComputeRows(const SatKernel& kernel, const Tree& t, NodeId top,
                 uint64_t* rows, uint64_t* scratch) {
  NodeId n = top;
  for (;;) {
    while (t.first_child(n) != kNullNode) n = t.first_child(n);
    for (;;) {
      kernel.Step<kW>(
          kernel.LabelRow(t.label(n)),
          [&](auto&& visit) {
            for (NodeId c = t.first_child(n); c != kNullNode;
                 c = t.next_sibling(c)) {
              visit(c);
            }
          },
          rows, n, scratch);
      if (n == top) return;
      if (t.next_sibling(n) != kNullNode) {
        n = t.next_sibling(n);
        break;
      }
      n = t.parent(n);
    }
  }
}

/// ORs the kid rows of every bit set in `bits` into `out`.
template <size_t kW>
void OrKids(const SatKernel& kernel, const uint64_t* bits, bool child_edges,
            uint64_t* out) {
  const size_t w = kW != 0 ? kW : kernel.words();
  for (size_t i = 0; i < w; ++i) {
    for (uint64_t todo = bits[i]; todo != 0; todo &= todo - 1) {
      const size_t b = i * 64 + static_cast<size_t>(__builtin_ctzll(todo));
      const uint64_t* kids = child_edges ? kernel.child_kids<kW>(b)
                                         : kernel.desc_kids<kW>(b);
      for (size_t j = 0; j < w; ++j) out[j] |= kids[j];
    }
  }
}

/// [[p]](t) from the sat rows: a top-down pass in preorder along the links.
/// cand(n) bit q: some full embedding maps q ↦ n; it is sat(n) restricted
/// to the kids that n's parent allows. Each visited node's rows are
/// overwritten with allow(n), the bits its children may take (child-edge
/// kids of cand(n), and descendant-edge kids of cand over n and its
/// ancestors), and down(n), that descendant-edge part alone. A subtree
/// whose root allows nothing holds no candidates and is skipped.
template <size_t kW>
std::vector<NodeId> Candidates(const SatKernel& kernel, const Pattern& p,
                               const Tree& t, uint64_t* rows,
                               uint64_t* cand) {
  const size_t w = kW != 0 ? kW : kernel.words();
  auto allow = [&](NodeId n) { return rows + n * 2 * w; };
  auto down = [&](NodeId n) { return rows + n * 2 * w + w; };
  const NodeId root = t.root();
  if ((rows[root * 2 * w] & 1) == 0) return {};  // the pattern root is bit 0
  const uint64_t out_bit = uint64_t{1} << (p.output() % 64);
  const size_t out_word = p.output() / 64;
  std::vector<NodeId> result;
  std::fill_n(cand, w, 0);
  cand[0] = 1;  // only the pattern root maps to the tree root
  for (NodeId n = root, parent = kNullNode;;) {
    // Before it is overwritten, allow(n) still holds sat(n).
    if (parent != kNullNode) {
      for (size_t i = 0; i < w; ++i) cand[i] = allow(n)[i] & allow(parent)[i];
    }
    if ((cand[out_word] & out_bit) != 0) result.push_back(n);
    std::fill_n(down(n), w, 0);
    if (parent != kNullNode) std::copy_n(down(parent), w, down(n));
    OrKids<kW>(kernel, cand, /*child_edges=*/false, down(n));
    std::copy_n(down(n), w, allow(n));
    OrKids<kW>(kernel, cand, /*child_edges=*/true, allow(n));
    const bool allows = std::any_of(allow(n), allow(n) + w,
                                    [](uint64_t x) { return x != 0; });
    if (allows && t.first_child(n) != kNullNode) {
      parent = n;
      n = t.first_child(n);
      continue;
    }
    while (n != root && t.next_sibling(n) == kNullNode) n = t.parent(n);
    if (n == root) break;
    n = t.next_sibling(n);
    parent = t.parent(n);
  }
  std::sort(result.begin(), result.end());
  return result;
}

/// Runs the bottom-up pass of p over the subtree of `top`, then
/// finish(kernel, words, rows, scratch). The rows hold 2W words per tree
/// slot, then a scratch slot; a pass touches only the nodes it visits.
template <typename Finish>
auto RunKernel(const Pattern& p, const Tree& t, NodeId top, Finish finish) {
  const Pattern* const patterns[] = {&p};
  const SatKernel kernel(patterns);
  const size_t slots = t.capacity() * 2 * kernel.words();
  const auto rows = std::make_unique_for_overwrite<uint64_t[]>(
      slots + 2 * kernel.words());
  return kernel.Dispatch([&](auto words) {
    ComputeRows<words()>(kernel, t, top, rows.get(), rows.get() + slots);
    return finish(kernel, words, rows.get(), rows.get() + slots);
  });
}

uint64_t SatAdd(uint64_t a, uint64_t b) {
  return a > UINT64_MAX - b ? UINT64_MAX : a + b;
}

uint64_t SatMul(uint64_t a, uint64_t b) {
  if (a == 0 || b == 0) return 0;
  return a > UINT64_MAX / b ? UINT64_MAX : a * b;
}

/// Bit `from` (pattern node `from` is bit `from`) of the sat row (any =
/// false) or the any row (any = true) of tree node n.
bool RowBit(const SatKernel& kernel, const uint64_t* rows, NodeId n, bool any,
            PatternNodeId from) {
  const uint64_t* row = rows + (n * 2 + (any ? 1 : 0)) * kernel.words();
  return ((row[from / 64] >> (from % 64)) & 1) != 0;
}

}  // namespace

uint64_t CountEmbeddings(const Pattern& p, const Tree& t) {
  XMLUP_CHECK(p.has_root());
  if (!t.has_root() || t.size() == 0) return 0;
  // cnt[q][n]: embeddings of the subpattern rooted at q with q ↦ n.
  // dcnt[q][n]: sum of cnt[q][m] over proper descendants m of n.
  const size_t stride = t.capacity();
  std::vector<uint64_t> cnt(p.size() * stride, 0);
  std::vector<uint64_t> dcnt(p.size() * stride, 0);
  const std::vector<NodeId> tree_post = t.PostOrder();
  const std::vector<PatternNodeId> pat_post = p.PostOrder();
  for (NodeId n : tree_post) {
    for (PatternNodeId q : pat_post) {
      uint64_t total = LabelOk(p, q, t, n) ? 1 : 0;
      for (PatternNodeId c = p.first_child(q);
           total != 0 && c != kNullPatternNode; c = p.next_sibling(c)) {
        uint64_t ways = 0;
        for (NodeId m = t.first_child(n); m != kNullNode;
             m = t.next_sibling(m)) {
          ways = SatAdd(ways, cnt[c * stride + m]);
          if (p.axis(c) == Axis::kDescendant) {
            ways = SatAdd(ways, dcnt[c * stride + m]);
          }
        }
        total = SatMul(total, ways);
      }
      cnt[q * stride + n] = total;
      uint64_t below = 0;
      for (NodeId m = t.first_child(n); m != kNullNode;
           m = t.next_sibling(m)) {
        below = SatAdd(below, SatAdd(cnt[q * stride + m],
                                     dcnt[q * stride + m]));
      }
      dcnt[q * stride + n] = below;
    }
  }
  return cnt[p.root() * stride + t.root()];
}

std::vector<NodeId> Evaluate(const Pattern& p, const Tree& t) {
  if (!t.has_root() || t.size() == 0) return {};
  return RunKernel(p, t, t.root(),
                   [&](const SatKernel& kernel, auto words, uint64_t* rows,
                       uint64_t* scratch) {
                     return Candidates<words()>(kernel, p, t, rows, scratch);
                   });
}

bool HasEmbedding(const Pattern& p, const Tree& t) {
  if (!t.has_root() || t.size() == 0) return false;
  return EmbedsAt(p, t, t.root());
}

bool EmbedsAt(const Pattern& p, const Tree& t, NodeId at, PatternNodeId from) {
  XMLUP_DCHECK(t.alive(at));
  XMLUP_DCHECK(from < p.size());
  return RunKernel(p, t, at,
                   [&](const SatKernel& kernel, auto, uint64_t* rows,
                       uint64_t*) {
                     return RowBit(kernel, rows, at, /*any=*/false, from);
                   });
}

bool EmbedsAnywhereIn(const Pattern& p, const Tree& t, NodeId scope,
                      PatternNodeId from) {
  XMLUP_DCHECK(t.alive(scope));
  XMLUP_DCHECK(from < p.size());
  return RunKernel(p, t, scope,
                   [&](const SatKernel& kernel, auto, uint64_t* rows,
                       uint64_t*) {
                     return RowBit(kernel, rows, scope, /*any=*/true, from);
                   });
}

}  // namespace xmlup
