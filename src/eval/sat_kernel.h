#ifndef XMLUP_EVAL_SAT_KERNEL_H_
#define XMLUP_EVAL_SAT_KERNEL_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "pattern/pattern.h"

namespace xmlup {

/// The word-parallel form of the bottom-up embedding recurrence (paper
/// §2.3; the Core-XPath evaluation of [7]). It is the one copy of that
/// recurrence: the tree evaluator (eval/evaluator), the bounded search's
/// shape-table pass (conflict/bounded_search) and the pattern
/// homomorphism test (conflict/minimize) all run Step, and differ only in
/// how a node's children and label row are given.
///
/// One or more patterns are packed into one bit layout, in order: node q of
/// pattern i is bit o_i + q, o_i = |p_0| + ... + |p_(i-1)|, so bit o_i is
/// its root. A row is W = ⌈bits / 64⌉ words. For a node n (a tree node or
/// a shape) whose children are done, Step writes two rows:
///   sat(n) bit b: the sub-pattern rooted at b embeds with b ↦ n;
///   any(n) bit b: sat(m) bit b for some m in the subtree of n, n included.
/// The caller's row buffer holds them next to each other, 2W words at
/// index n·2W.
class SatKernel {
 public:
  explicit SatKernel(std::span<const Pattern* const> patterns);

  size_t words() const { return words_; }

  /// The bits whose label test a node labeled `label` passes.
  const uint64_t* LabelRow(Label label) const {
    for (size_t i = 0; i < num_labels_; ++i) {
      if (data_[i] == label) return row(1 + i);
    }
    return row(0);  // only the wildcards
  }
  /// The bits of the patterns' roots.
  const uint64_t* roots() const { return row(roots_row_); }
  /// The children of bit b reached by a child edge / a descendant edge.
  template <size_t kW = 0>
  const uint64_t* child_kids(size_t b) const {
    return row<kW>(kids_row_ + 2 * b);
  }
  template <size_t kW = 0>
  const uint64_t* desc_kids(size_t b) const {
    return row<kW>(kids_row_ + 2 * b + 1);
  }

  /// Calls fn(std::integral_constant<size_t, kW>) with kW = 1 for a
  /// one-word layout and kW = 0 (W read at run time) otherwise, so the
  /// common single-word case compiles to straight-line word operations.
  template <typename Fn>
  decltype(auto) Dispatch(Fn&& fn) const {
    if (words_ == 1) return fn(std::integral_constant<size_t, 1>{});
    return fn(std::integral_constant<size_t, 0>{});
  }

  /// True iff every bit of `need` is in `have` (rows of `w` words).
  static bool CoveredIn(const uint64_t* need, const uint64_t* have,
                        size_t w) {
    for (size_t i = 0; i < w; ++i) {
      if ((need[i] & ~have[i]) != 0) return false;
    }
    return true;
  }

  /// Computes node n's sat and any rows into rows[n·2W, n·2W + 2W).
  /// `for_each_child(visit)` calls visit(c) for each child c of n, whose
  /// rows are already in `rows`; visit(c, false) lists a child that no
  /// child edge may map onto (a pattern target's descendant-edge child),
  /// which then counts only as below n. `scratch` holds 2W words. kW is W,
  /// or 0.
  template <size_t kW, typename ForEachChild>
  void Step(const uint64_t* label_row, ForEachChild&& for_each_child,
            uint64_t* rows, size_t n, uint64_t* scratch) const {
    const size_t w = Words<kW>();
    // The children's sat rows ORed, then their any rows ORed: the union
    // over the proper descendants. A fixed W keeps both in registers.
    uint64_t* acc = scratch;
    std::fill_n(acc, 2 * w, 0);
    for_each_child([&](size_t c, bool child_edge = true) {
      const uint64_t* child = rows + c * 2 * w;
      for (size_t i = 0; i < w; ++i) {
        if (child_edge) acc[i] |= child[i];
        acc[w + i] |= child[w + i];
      }
    });
    const uint64_t* child_sat = acc;
    const uint64_t* below = acc + w;
    // A leaf of a pattern needs only its label; an inner node also needs
    // each child edge met: a child-edge kid in some child's sat, a
    // descendant-edge kid anywhere below. (Row pointers are read once: a
    // store through a row may alias this kernel's size_t members.)
    const uint64_t* internal = row<kW>(internal_row_);
    const uint64_t* kids = row<kW>(kids_row_);
    uint64_t* sat = rows + n * 2 * w;
    for (size_t i = 0; i < w; ++i) {
      uint64_t matched = label_row[i] & ~internal[i];
      for (uint64_t todo = label_row[i] & internal[i]; todo != 0;
           todo &= todo - 1) {
        const size_t b = i * 64 + static_cast<size_t>(__builtin_ctzll(todo));
        const uint64_t* child_edges = kids + 2 * b * w;
        if (CoveredIn(child_edges, child_sat, w) &&
            CoveredIn(child_edges + w, below, w)) {
          matched |= todo & -todo;
        }
      }
      sat[i] = matched;
      sat[w + i] = matched | below[i];
    }
  }

 private:
  template <size_t kW>
  size_t Words() const {
    return kW != 0 ? kW : words_;
  }
  template <size_t kW = 0>
  const uint64_t* row(size_t r) const {
    return data_.data() + num_labels_ + r * Words<kW>();
  }
  uint64_t* mutable_row(size_t r) {
    return data_.data() + num_labels_ + r * words_;
  }

  size_t words_ = 1;
  size_t num_labels_ = 0;
  /// Rows: [0] wildcards, [1, 1 + num_labels_) label rows, then per bit a
  /// child-kid row and a descendant-kid row, the inner-node row and the
  /// roots row.
  size_t kids_row_ = 0;
  size_t internal_row_ = 0;
  size_t roots_row_ = 0;
  /// The distinct non-wildcard labels (row 1 + i is data_[i]'s label row),
  /// then the rows: one allocation per kernel.
  std::vector<uint64_t> data_;
};

}  // namespace xmlup

#endif  // XMLUP_EVAL_SAT_KERNEL_H_
