#ifndef XMLUP_CONFLICT_READ_DELETE_H_
#define XMLUP_CONFLICT_READ_DELETE_H_

#include "common/result.h"
#include "conflict/report.h"
#include "conflict/witness_check.h"
#include "match/matching.h"
#include "pattern/pattern.h"

namespace xmlup {

/// Polynomial-time read-delete conflict detection (§4.1).
///
/// `read` must be linear (P^{//,*}); `delete_pattern` may be any pattern in
/// P^{//,[],*} with O(p) != ROOT(p) — by Lemma 4 / Corollary 1 only the
/// delete's mainline SEQ_ROOT(D)^O(D) matters.
///
/// Node semantics implements Lemma 3: a conflict exists iff some edge
/// (n, n') of the read pattern satisfies
///   - (n, n') ∈ EDGES_//:  D' and SEQ_ROOT(R)^n match weakly, or
///   - (n, n') ∈ EDGES_/:   D' and SEQ_ROOT(R)^n' match strongly.
///
/// Tree semantics adds the case where the deletion happens strictly below a
/// read result (D' weakly matched by the whole read); by Lemma 2, value
/// semantics coincides with tree semantics for linear patterns.
///
/// On conflict, a witness tree is constructed per the Lemma 3/4 proofs and
/// re-validated with the Lemma 1 checker; a verification failure (a library
/// bug) surfaces as an Internal error.
/// Returns a ConflictReport with method == kLinearPtime and a definitive
/// verdict (the linear algorithms are complete — never kUnknown). This
/// value overload matches with the paper's construction (MatchStrongly /
/// MatchWeakly: per-call regexes and Thompson NFAs) and is the reference
/// the mainline core below is tested against.
Result<ConflictReport> DetectLinearReadDeleteConflict(
    const Pattern& read, const Pattern& delete_pattern,
    ConflictSemantics semantics = ConflictSemantics::kNode,
    bool build_witness = true);

/// Mainline core, the detection hot path: the same algorithm and reports
/// as the value overload, running the §4.1 dynamic program (MatchDp) on
/// prefixes of `read_mainline` read in place instead of the paper's
/// per-call automata on extracted copies. `read_mainline` and
/// `delete_mainline` must be linear: a linear read is its own mainline,
/// and the detector's branching heuristic passes Mainline(read) to get
/// that answer. `delete_pattern` is the full delete (the witness
/// construction grafts its branch models) and `delete_mainline` its
/// Mainline (Corollary 1). Verdict, method and detail are identical to
/// the value overload on the same operands; witness words may differ, and
/// every witness is re-verified.
Result<ConflictReport> DetectMainlineReadDeleteConflict(
    const Pattern& read_mainline, const Pattern& delete_mainline,
    const Pattern& delete_pattern,
    ConflictSemantics semantics = ConflictSemantics::kNode,
    bool build_witness = true);

}  // namespace xmlup

#endif  // XMLUP_CONFLICT_READ_DELETE_H_
