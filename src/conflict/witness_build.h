#ifndef XMLUP_CONFLICT_WITNESS_BUILD_H_
#define XMLUP_CONFLICT_WITNESS_BUILD_H_

#include <string_view>

#include "common/result.h"
#include "conflict/witness_check.h"
#include "match/matching.h"
#include "pattern/pattern.h"
#include "xml/tree.h"

namespace xmlup {

/// Helpers shared by the witness constructions of the linear read-delete
/// and read-insert detectors (proofs of Lemmas 3, 4, 6 and 8).

/// A label used by none of `read`, `update`, `content` and `other` (trees
/// may be null): the table's reserved `<prefix>$` label unless one of them
/// uses it, else a fresh one. The constructions only need "a label not
/// used in R, I or X"; drawing it from the reserved label keeps the shared
/// SymbolTable from growing with every witness built.
Label UnusedLabel(std::string_view prefix, const Pattern& read,
                  const Pattern& update, const Tree* content,
                  const Tree* other = nullptr);

/// Materializes a match witness word as a path tree whose Any classes are
/// resolved to `filler`, a label occurring in no pattern involved (see
/// UnusedLabel). Returns the tree; `deepest` (optional) receives the last
/// node of the path — the image of O(l1) in the match.
Tree MatchWordToPath(const ClassWord& word,
                     const std::shared_ptr<SymbolTable>& symbols, Label filler,
                     NodeId* deepest = nullptr);

/// Lemma 4 / Lemma 8 extension step: for every branch subpattern of
/// `update` (a child subtree hanging off the root→output mainline), grafts
/// a model of that subpattern onto every pre-existing node of `tree`, so
/// any embedding of the mainline extends to an embedding of the full
/// pattern. Wildcards in the models are filled with the table's reserved
/// `bfill$` label, or a fresh one when `update` or `tree` uses it.
void GraftBranchModelsEverywhere(Tree* tree, const Pattern& update);

/// The common end of the linear witness constructions: grafts `update`'s
/// branch models onto `witness` (Lemmas 4 and 8) and checks the tree with
/// the Lemma 1 checker under `semantics`. A node-conflict witness need not
/// witness a value conflict on the same tree (the paper's Figure 3), so on
/// failure the Lemma 2 upgrade gives every node a child whose label no
/// input uses (a changed result then has no isomorphic partner) and checks
/// again; that label is drawn only then. `content` is the inserted tree X
/// of an insert, null for a delete. A tree failing both checks is a
/// library bug, reported as Internal.
Result<Tree> FinishLinearWitness(Tree witness, const Pattern& read,
                                 const Pattern& update, const Tree* content,
                                 ConflictSemantics semantics);

}  // namespace xmlup

#endif  // XMLUP_CONFLICT_WITNESS_BUILD_H_
