#include "conflict/witness_build.h"

#include <algorithm>
#include <string>
#include <vector>

#include "pattern/pattern_ops.h"

namespace xmlup {

Label UnusedLabel(std::string_view prefix, const Pattern& read,
                  const Pattern& update, const Tree* content,
                  const Tree* other) {
  const std::shared_ptr<SymbolTable>& symbols = read.symbols();
  const Label reserved = symbols->Reserved(prefix);
  auto uses = [reserved](const Pattern& p) {
    const std::vector<Label> labels = p.DistinctLabels();
    return std::find(labels.begin(), labels.end(), reserved) != labels.end();
  };
  bool used = uses(read) || uses(update);
  for (const Tree* tree : {content, other}) {
    if (tree == nullptr) continue;
    for (NodeId n : tree->PreOrder()) used = used || tree->label(n) == reserved;
  }
  return used ? symbols->Fresh(prefix) : reserved;
}

Tree MatchWordToPath(const ClassWord& word,
                     const std::shared_ptr<SymbolTable>& symbols, Label filler,
                     NodeId* deepest) {
  XMLUP_CHECK(!word.empty());
  Tree tree = WordToPathTree(word, symbols, filler);
  if (deepest != nullptr) {
    NodeId n = tree.root();
    while (tree.first_child(n) != kNullNode) n = tree.first_child(n);
    *deepest = n;
  }
  return tree;
}

void GraftBranchModelsEverywhere(Tree* tree, const Pattern& update) {
  // Branch children: children of mainline nodes that are not themselves on
  // the mainline.
  std::vector<PatternNodeId> branches;
  for (PatternNodeId n : PathBetween(update, update.root(), update.output())) {
    for (PatternNodeId c = update.first_child(n); c != kNullPatternNode;
         c = update.next_sibling(c)) {
      if (!update.IsAncestorOrSelf(c, update.output())) branches.push_back(c);
    }
  }
  if (branches.empty()) return;
  // Snapshot the node set first: models are grafted onto the original
  // nodes only (the Lemma 4 proof adds M_c to each node of W).
  const std::vector<NodeId> nodes = tree->PreOrder();
  // The reserved filler unless `update` or the tree already uses it; every
  // caller re-checks the grafted tree with the Lemma 1 checker.
  const std::shared_ptr<SymbolTable>& symbols = tree->symbols();
  const Label reserved = symbols->Reserved("bfill");
  const std::vector<Label> labels = update.DistinctLabels();
  bool used = std::find(labels.begin(), labels.end(), reserved) != labels.end();
  for (NodeId n : nodes) used = used || tree->label(n) == reserved;
  const Label filler = used ? symbols->Fresh("bfill") : reserved;
  for (NodeId n : nodes) {
    for (PatternNodeId c : branches) {
      GraftModel(tree, n, update, c, filler);
    }
  }
}

Result<Tree> FinishLinearWitness(Tree witness, const Pattern& read,
                                 const Pattern& update, const Tree* content,
                                 ConflictSemantics semantics) {
  auto verified = [&] {
    return content != nullptr
               ? IsReadInsertWitness(read, update, *content, witness,
                                     semantics)
               : IsReadDeleteWitness(read, update, witness, semantics);
  };
  GraftBranchModelsEverywhere(&witness, update);
  if (verified()) return witness;
  const Label unique = UnusedLabel("uniq", read, update, content);
  for (NodeId n : witness.PreOrder()) witness.AddChild(n, unique);
  if (verified()) return witness;
  return Status::Internal(std::string("constructed read-") +
                          (content != nullptr ? "insert" : "delete") +
                          " witness failed verification");
}

}  // namespace xmlup
