#include "conflict/witness_check.h"

#include <algorithm>
#include <set>

#include "eval/evaluator.h"
#include "xml/isomorphism.h"
#include "xml/tree_algos.h"

namespace xmlup {
namespace {

/// Captures everything about R(t) needed by all three semantics, applies
/// `mutate` to `t` in place, then compares. NodeIds are stable across
/// mutation, so reference-based comparison is direct id comparison.
template <typename MutateFn>
bool CheckWitness(const Pattern& read, Tree& t, ConflictSemantics semantics,
                  MutateFn mutate) {
  const std::vector<NodeId> before = Evaluate(read, t);

  std::vector<SubtreeSnapshot> snapshots;
  std::set<std::string> codes_before;
  if (semantics == ConflictSemantics::kTree) {
    snapshots.reserve(before.size());
    for (NodeId n : before) snapshots.push_back(SnapshotSubtree(t, n));
  } else if (semantics == ConflictSemantics::kValue) {
    for (NodeId n : before) codes_before.insert(CanonicalCode(t, n));
  }

  mutate(&t);
  const std::vector<NodeId> after = Evaluate(read, t);

  switch (semantics) {
    case ConflictSemantics::kNode:
      return before != after;  // both sorted
    case ConflictSemantics::kTree: {
      if (before != after) return true;
      for (const SubtreeSnapshot& snapshot : snapshots) {
        if (!SnapshotUnchanged(t, snapshot)) return true;
      }
      return false;
    }
    case ConflictSemantics::kValue: {
      std::set<std::string> codes_after;
      for (NodeId n : after) codes_after.insert(CanonicalCode(t, n));
      return codes_before != codes_after;
    }
  }
  return false;
}

}  // namespace

std::string_view ConflictSemanticsName(ConflictSemantics semantics) {
  switch (semantics) {
    case ConflictSemantics::kNode:
      return "node";
    case ConflictSemantics::kTree:
      return "tree";
    case ConflictSemantics::kValue:
      return "value";
  }
  return "?";
}

bool IsReadInsertWitness(const Pattern& read, const Pattern& insert_pattern,
                         const Tree& inserted, const Tree& t,
                         ConflictSemantics semantics) {
  return IsReadInsertWitness(read, insert_pattern, inserted, CopyTree(t),
                             semantics);
}

bool IsReadInsertWitness(const Pattern& read, const Pattern& insert_pattern,
                         const Tree& inserted, Tree&& t,
                         ConflictSemantics semantics) {
  return CheckWitness(read, t, semantics, [&](Tree* tree) {
    const std::vector<NodeId> points = Evaluate(insert_pattern, *tree);
    for (NodeId point : points) {
      tree->GraftCopy(point, inserted, inserted.root());
    }
  });
}

bool IsReadDeleteWitness(const Pattern& read, const Pattern& delete_pattern,
                         const Tree& t, ConflictSemantics semantics) {
  return IsReadDeleteWitness(read, delete_pattern, CopyTree(t), semantics);
}

bool IsReadDeleteWitness(const Pattern& read, const Pattern& delete_pattern,
                         Tree&& t, ConflictSemantics semantics) {
  XMLUP_CHECK(delete_pattern.output() != delete_pattern.root());
  return CheckWitness(read, t, semantics, [&](Tree* tree) {
    for (NodeId point : Evaluate(delete_pattern, *tree)) {
      if (tree->alive(point)) tree->DeleteSubtree(point);
    }
  });
}

}  // namespace xmlup
