#ifndef XMLUP_CONFLICT_READ_INSERT_H_
#define XMLUP_CONFLICT_READ_INSERT_H_

#include "common/result.h"
#include "conflict/report.h"
#include "conflict/witness_check.h"
#include "match/matching.h"
#include "pattern/pattern.h"
#include "xml/tree.h"

namespace xmlup {

/// Polynomial-time read-insert conflict detection (§4.2).
///
/// `read` must be linear (P^{//,*}); `insert_pattern` may be any pattern in
/// P^{//,[],*} — by Lemma 8 / Corollary 2 only its mainline matters.
/// `inserted` is the tree X grafted at each insertion point.
///
/// Node semantics implements Lemmas 5-7: a conflict exists iff some read
/// edge (n, n') is a *cut edge*, i.e.
///   - child edge:      I' and SEQ_ROOT(R)^n match strongly, and
///                      SEQ_{n'}^{O(R)} embeds at the root of X;
///   - descendant edge: I' and SEQ_ROOT(R)^n match weakly, and
///                      SEQ_{n'}^{O(R)} embeds somewhere in X.
///
/// Tree semantics adds the case where an insertion lands at-or-below a read
/// result (I' weakly matched by the whole read); value semantics coincides
/// (Lemma 2). Witnesses are constructed per the proofs and re-validated
/// with the Lemma 1 checker.
/// Returns a ConflictReport with method == kLinearPtime and a definitive
/// verdict (the linear algorithms are complete — never kUnknown). This
/// value overload matches with the paper's construction (MatchStrongly /
/// MatchWeakly: per-call regexes and Thompson NFAs) and is the reference
/// the mainline core below is tested against.
Result<ConflictReport> DetectLinearReadInsertConflict(
    const Pattern& read, const Pattern& insert_pattern, const Tree& inserted,
    ConflictSemantics semantics = ConflictSemantics::kNode,
    bool build_witness = true);

/// Mainline core, the detection hot path: the same algorithm and reports
/// as the value overload, running the §4.1 dynamic program (MatchDp) on
/// prefixes of `read_mainline` and the evaluator on its suffixes, both
/// read in place, instead of the paper's per-call automata on ExtractSeq
/// copies. `read_mainline` and `insert_mainline` must be linear: a linear
/// read is its own mainline, and the detector's branching heuristic passes
/// Mainline(read) to get that answer. `insert_pattern` is the full insert
/// (the witness construction grafts its branch models) and
/// `insert_mainline` its Mainline (Corollary 2). Verdict, method and
/// detail are identical to the value overload on the same operands;
/// witness words may differ, and every witness is re-verified.
Result<ConflictReport> DetectMainlineReadInsertConflict(
    const Pattern& read_mainline, const Pattern& insert_mainline,
    const Pattern& insert_pattern, const Tree& inserted,
    ConflictSemantics semantics = ConflictSemantics::kNode,
    bool build_witness = true);

}  // namespace xmlup

#endif  // XMLUP_CONFLICT_READ_INSERT_H_
