#include "conflict/read_insert.h"

#include <string>
#include <utility>

#include "conflict/witness_build.h"
#include "eval/evaluator.h"
#include "match/dp_matcher.h"
#include "pattern/pattern_ops.h"

namespace xmlup {
namespace {

/// The read-insert witness from a match word, the path from the root to
/// the insertion point u. For a cut edge the read continues inside the
/// grafted copy of X after the insertion, so the path alone is the witness
/// (Lemma 6 "(If)"); for the subtree-modification case u lies at or below
/// a read result, whose subtree the insertion changes.
Result<Tree> BuildPathWitness(const Pattern& read,
                              const Pattern& insert_pattern,
                              const Tree& inserted, const ClassWord& word,
                              ConflictSemantics semantics) {
  Tree witness = MatchWordToPath(
      word, read.symbols(),
      UnusedLabel("wfill", read, insert_pattern, &inserted));
  return FinishLinearWitness(std::move(witness), read, insert_pattern,
                             &inserted, semantics);
}

}  // namespace

Result<ConflictReport> DetectLinearReadInsertConflict(
    const Pattern& read, const Pattern& insert_pattern, const Tree& inserted,
    ConflictSemantics semantics, bool build_witness) {
  if (!read.IsLinear()) {
    return Status::InvalidArgument(
        "read pattern must be linear (P^{//,*}) for polynomial detection");
  }
  if (!inserted.has_root()) {
    return Status::InvalidArgument("inserted tree X is empty");
  }

  // Corollary 2: only the insert's mainline matters.
  const Pattern mainline = Mainline(insert_pattern);

  ConflictReport report;
  report.verdict = ConflictVerdict::kNoConflict;
  report.method = DetectorMethod::kLinearPtime;

  // Lemmas 5-7: scan the read's edges for a cut edge.
  for (PatternNodeId n_prime : read.PreOrder()) {
    if (n_prime == read.root()) continue;
    const PatternNodeId n = read.parent(n_prime);
    const Pattern prefix = ExtractSeq(read, read.root(), n);
    const Pattern suffix = ExtractSeq(read, n_prime, read.output());
    MatchResult match;
    bool suffix_ok = false;
    if (read.axis(n_prime) == Axis::kChild) {
      match = MatchStrongly(mainline, prefix);
      if (match.matches) {
        suffix_ok = EmbedsAt(suffix, inserted, inserted.root());
      }
    } else {
      match = MatchWeakly(mainline, prefix);
      if (match.matches) {
        suffix_ok = EmbedsAnywhereIn(suffix, inserted, inserted.root());
      }
    }
    if (!match.matches || !suffix_ok) continue;
    report.verdict = ConflictVerdict::kConflict;
    report.detail =
        std::string("cut edge (") +
        (read.axis(n_prime) == Axis::kDescendant ? "descendant" : "child") +
        ") into read node " + read.LabelName(n_prime);
    if (build_witness) {
      XMLUP_ASSIGN_OR_RETURN(
          Tree witness, BuildPathWitness(read, insert_pattern, inserted,
                                         match.witness_word, semantics));
      report.witness = std::move(witness);
    }
    return report;
  }

  if (semantics == ConflictSemantics::kNode) return report;

  // Tree / value semantics: an insertion at-or-below a read result
  // modifies the returned subtree (paper REMARKS after Theorem 2).
  MatchResult below = MatchWeakly(mainline, read);
  if (below.matches) {
    report.verdict = ConflictVerdict::kConflict;
    report.detail = "subtree-modification conflict (I weakly matches R)";
    if (build_witness) {
      XMLUP_ASSIGN_OR_RETURN(
          Tree witness,
          BuildPathWitness(read, insert_pattern, inserted,
                           below.witness_word, semantics));
      report.witness = std::move(witness);
    }
  }
  return report;
}

Result<ConflictReport> DetectMainlineReadInsertConflict(
    const Pattern& read_mainline, const Pattern& insert_mainline,
    const Pattern& insert_pattern, const Tree& inserted,
    ConflictSemantics semantics, bool build_witness) {
  if (!inserted.has_root()) {
    return Status::InvalidArgument("inserted tree X is empty");
  }
  const Pattern& r = read_mainline;

  ConflictReport report;
  report.verdict = ConflictVerdict::kNoConflict;
  report.method = DetectorMethod::kLinearPtime;

  // Lemmas 5-7 along the chain: the edge (n, n') with k nodes of r above
  // n'. The DP reads the prefix SEQ_ROOT^n (k nodes) straight from r, and
  // the suffix SEQ_{n'}^O is r's sub-pattern at n', read from bit n' of
  // the evaluator's rows.
  size_t k = 1;
  for (PatternNodeId n_prime = r.first_child(r.root());
       n_prime != kNullPatternNode; n_prime = r.first_child(n_prime), ++k) {
    const bool descendant = r.axis(n_prime) == Axis::kDescendant;
    const MatchResult match = MatchDp(insert_mainline, r, descendant, k);
    if (!match.matches) continue;
    const bool suffix_ok =
        descendant ? EmbedsAnywhereIn(r, inserted, inserted.root(), n_prime)
                   : EmbedsAt(r, inserted, inserted.root(), n_prime);
    if (!suffix_ok) continue;
    report.verdict = ConflictVerdict::kConflict;
    report.detail = std::string("cut edge (") +
                    (descendant ? "descendant" : "child") +
                    ") into read node " + r.LabelName(n_prime);
    if (build_witness) {
      XMLUP_ASSIGN_OR_RETURN(
          Tree witness, BuildPathWitness(r, insert_pattern, inserted,
                                         match.witness_word, semantics));
      report.witness = std::move(witness);
    }
    return report;
  }

  if (semantics == ConflictSemantics::kNode) return report;

  MatchResult below = MatchDp(insert_mainline, r, /*weak=*/true);
  if (below.matches) {
    report.verdict = ConflictVerdict::kConflict;
    report.detail = "subtree-modification conflict (I weakly matches R)";
    if (build_witness) {
      XMLUP_ASSIGN_OR_RETURN(
          Tree witness, BuildPathWitness(r, insert_pattern, inserted,
                                         below.witness_word, semantics));
      report.witness = std::move(witness);
    }
  }
  return report;
}

}  // namespace xmlup
