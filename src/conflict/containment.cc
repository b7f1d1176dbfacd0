#include "conflict/containment.h"

#include <vector>

#include "conflict/minimize.h"
#include "conflict/witness_build.h"
#include "eval/evaluator.h"
#include "pattern/pattern_ops.h"

namespace xmlup {

bool HasContainmentHomomorphism(const Pattern& p, const Pattern& q) {
  return HasPatternHomomorphism(q, p, /*preserve_output=*/false);
}

namespace {

/// Builds the canonical model of `p` for one assignment of chain lengths
/// to its descendant edges (indexed in preorder order of the lower node).
Tree BuildCanonicalModel(const Pattern& p,
                         const std::vector<PatternNodeId>& desc_nodes,
                         const std::vector<size_t>& chain_lengths, Label z) {
  Tree tree(p.symbols());
  auto fill = [&](PatternNodeId n) {
    return p.is_wildcard(n) ? z : p.label(n);
  };
  std::vector<NodeId> image(p.size(), kNullNode);
  image[p.root()] = tree.CreateRoot(fill(p.root()));
  for (PatternNodeId n : p.PreOrder()) {
    if (n == p.root()) continue;
    NodeId attach = image[p.parent(n)];
    if (p.axis(n) == Axis::kDescendant) {
      // Insert the chain of z nodes chosen for this edge.
      size_t index = 0;
      while (desc_nodes[index] != n) ++index;
      for (size_t i = 0; i < chain_lengths[index]; ++i) {
        attach = tree.AddChild(attach, z);
      }
    }
    image[n] = tree.AddChild(attach, fill(n));
  }
  return tree;
}

uint64_t SaturatingPow(uint64_t base, uint64_t exp) {
  uint64_t result = 1;
  for (uint64_t i = 0; i < exp; ++i) {
    if (result > UINT64_MAX / base) return UINT64_MAX;
    result *= base;
  }
  return result;
}

}  // namespace

ContainmentDecision DecideContainment(const Pattern& p, const Pattern& q) {
  ContainmentDecision decision;
  // The models decide containment with no later check, so the filler
  // must satisfy z ∉ labels(p) ∪ labels(q): a z that a label of q matches
  // would let q embed into a model standing for trees q misses. z is the
  // reserved `z$` unless p or q uses it, else a fresh label.
  const Label z = UnusedLabel("z", p, q, nullptr);
  const size_t w = StarLength(q) + 1;

  std::vector<PatternNodeId> desc_nodes;
  for (PatternNodeId n : p.PreOrder()) {
    if (n != p.root() && p.axis(n) == Axis::kDescendant) {
      desc_nodes.push_back(n);
    }
  }

  // Odometer over chain lengths in {0..w} per descendant edge.
  std::vector<size_t> lengths(desc_nodes.size(), 0);
  for (;;) {
    Tree model = BuildCanonicalModel(p, desc_nodes, lengths, z);
    ++decision.models_checked;
    if (!HasEmbedding(q, model)) {
      decision.contained = false;
      decision.counterexample = std::move(model);
      return decision;
    }
    // Advance the odometer.
    size_t i = 0;
    while (i < lengths.size() && lengths[i] == w) {
      lengths[i] = 0;
      ++i;
    }
    if (i == lengths.size()) break;
    ++lengths[i];
  }
  decision.contained = true;
  return decision;
}

bool HasContainmentHomomorphism(const PatternStore& store, PatternRef p,
                                PatternRef q) {
  return HasContainmentHomomorphism(store.pattern(p), store.pattern(q));
}

ContainmentDecision DecideContainment(const PatternStore& store, PatternRef p,
                                      PatternRef q) {
  return DecideContainment(store.pattern(p), store.pattern(q));
}

uint64_t CanonicalModelCount(const Pattern& p, const Pattern& q) {
  size_t desc_edges = 0;
  for (PatternNodeId n : p.PreOrder()) {
    if (n != p.root() && p.axis(n) == Axis::kDescendant) ++desc_edges;
  }
  return SaturatingPow(StarLength(q) + 2, desc_edges);
}

}  // namespace xmlup
