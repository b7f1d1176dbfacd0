#ifndef XMLUP_EVAL_EVALUATOR_H_
#define XMLUP_EVAL_EVALUATOR_H_

#include <vector>

#include "pattern/pattern.h"
#include "xml/tree.h"

namespace xmlup {

/// Evaluates [[p]](t) (paper §2.3): the set of tree nodes v such that some
/// embedding of p into t maps O(p) to v. Embeddings are root-preserving,
/// label-preserving (wildcards match anything), need not be injective, and
/// must satisfy the child/descendant edge constraints.
///
/// Runs in O(|p|·|t|) via a bottom-up satisfaction pass followed by a
/// top-down reachability pass — the Core-XPath-style evaluation the paper
/// cites ([7]) for the polynomial cost of its operations.
/// The result is sorted and duplicate-free.
std::vector<NodeId> Evaluate(const Pattern& p, const Tree& t);

/// True iff [[p]](t) is non-empty, i.e. some embedding of p into t exists.
bool HasEmbedding(const Pattern& p, const Tree& t);

/// True iff there is an embedding of the sub-pattern of `p` rooted at
/// `from` (default: ROOT(p), node 0) into the subtree of `t` rooted at `at`
/// that maps `from` to `at` (anchored, not root-preserving w.r.t. t) —
/// EmbedsAt(SubpatternAt(p, from), t, at) without the copy. Used for
/// "there is an embedding from SEQ into X" (Lemma 6, where SEQ is a suffix
/// of the read's mainline) and by the containment checker.
bool EmbedsAt(const Pattern& p, const Tree& t, NodeId at,
              PatternNodeId from = 0);

/// True iff EmbedsAt(p, t, n, from) holds for some node n in the subtree
/// rooted at `scope` ("an embedding into X or some subtree of X", Lemma 6).
bool EmbedsAnywhereIn(const Pattern& p, const Tree& t, NodeId scope,
                      PatternNodeId from = 0);

/// Number of distinct embeddings of `p` into `t` (root-preserving), in
/// O(|p|·|t|) by dynamic programming — the polynomial counterpart of
/// EnumerateEmbeddings. Saturates at UINT64_MAX.
uint64_t CountEmbeddings(const Pattern& p, const Tree& t);

}  // namespace xmlup

#endif  // XMLUP_EVAL_EVALUATOR_H_
