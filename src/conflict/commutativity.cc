#include "conflict/commutativity.h"

#include <set>

#include "eval/evaluator.h"
#include "xml/isomorphism.h"
#include "xml/tree_algos.h"

namespace xmlup {

bool UpdatesCommuteOn(const Tree& t, const UpdateOp& o1, const UpdateOp& o2) {
  Tree order12 = CopyTree(t);
  o2.ApplyInPlace(&order12);
  o1.ApplyInPlace(&order12);
  Tree order21 = CopyTree(t);
  o1.ApplyInPlace(&order21);
  o2.ApplyInPlace(&order21);
  return CanonicalCode(order12) == CanonicalCode(order21);
}

BruteForceResult FindCommutativityViolation(
    const UpdateOp& o1, const UpdateOp& o2,
    const BoundedSearchOptions& options) {
  // Alphabet: labels of both patterns and the inserted trees, plus unused
  // ones.
  std::set<Label> labels = LabelsOf({&o1.pattern(), &o2.pattern()});
  for (const UpdateOp* op : {&o1, &o2}) {
    if (op->kind() == UpdateOp::Kind::kInsert) {
      labels.merge(LabelsOf({}, {&op->content()}));
    }
  }
  const std::shared_ptr<SymbolTable>& symbols = o1.pattern().symbols();
  return SearchShapes(
      symbols,
      SearchAlphabet(*symbols, labels, labels, options.extra_labels), options,
      /*must_embed=*/{}, [&](Tree&& candidate) {
        return !UpdatesCommuteOn(candidate, o1, o2);
      });
}

}  // namespace xmlup
