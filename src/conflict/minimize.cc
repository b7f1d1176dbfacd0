#include "conflict/minimize.h"

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "eval/sat_kernel.h"

namespace xmlup {
bool HasPatternHomomorphism(const Pattern& from, const Pattern& to,
                            bool preserve_output) {
  XMLUP_DCHECK(from.symbols() == to.symbols());
  const Pattern* const patterns[] = {&from};
  const SatKernel kernel(patterns);
  const size_t w = kernel.words();
  // Rows per node of `to`, then a scratch slot and a label row.
  std::vector<uint64_t> rows((to.size() + 2) * 2 * w);
  uint64_t* scratch = rows.data() + to.size() * 2 * w;
  uint64_t* label_row = scratch + 2 * w;
  const size_t out = from.output();
  kernel.Dispatch([&](auto words) {
    // A child's id exceeds its parent's, so descending ids are bottom-up.
    for (PatternNodeId y = static_cast<PatternNodeId>(to.size()); y-- > 0;) {
      // A wildcard of `to` is not in the kernel's label list, so its row
      // holds just the wildcards of `from`.
      std::copy_n(kernel.LabelRow(to.label(y)), w, label_row);
      if (preserve_output && y != to.output()) {
        label_row[out / 64] &= ~(uint64_t{1} << (out % 64));
      }
      kernel.Step<words()>(
          label_row,
          [&](auto&& visit) {
            for (PatternNodeId c = to.first_child(y); c != kNullPatternNode;
                 c = to.next_sibling(c)) {
              visit(c, to.axis(c) == Axis::kChild);
            }
          },
          rows.data(), y, scratch);
    }
  });
  return (rows[to.root() * 2 * w] & 1) != 0;  // from's root is bit 0
}

bool HasOutputPreservingHomomorphism(const Pattern& from, const Pattern& to) {
  return HasPatternHomomorphism(from, to, /*preserve_output=*/true);
}

Pattern RemoveLeaf(const Pattern& p, PatternNodeId node) {
  XMLUP_CHECK(node != p.root());
  XMLUP_CHECK(node != p.output());
  XMLUP_CHECK(p.first_child(node) == kNullPatternNode);
  Pattern reduced(p.symbols());
  std::vector<PatternNodeId> image(p.size(), kNullPatternNode);
  image[p.root()] = reduced.CreateRoot(p.label(p.root()));
  for (PatternNodeId n : p.PreOrder()) {
    if (n == p.root() || n == node) continue;
    image[n] = reduced.AddChild(image[p.parent(n)], p.label(n), p.axis(n));
  }
  reduced.SetOutput(image[p.output()]);
  return reduced;
}

Pattern MinimizePattern(const Pattern& p) {
  Pattern current = p;
  bool changed = true;
  while (changed && current.size() > 1) {
    changed = false;
    for (PatternNodeId n : current.PreOrder()) {
      if (n == current.root() || n == current.output()) continue;
      if (current.first_child(n) != kNullPatternNode) continue;
      Pattern reduced = RemoveLeaf(current, n);
      // The reduced pattern trivially contains the original (fewer
      // constraints, same output position); equality needs the converse,
      // certified by an output-preserving homomorphism original → reduced.
      if (HasOutputPreservingHomomorphism(current, reduced)) {
        current = std::move(reduced);
        changed = true;
        break;
      }
    }
  }
  return current;
}

}  // namespace xmlup
