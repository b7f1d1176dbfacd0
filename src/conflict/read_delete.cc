#include "conflict/read_delete.h"

#include <string>
#include <utility>

#include "conflict/update_op.h"
#include "conflict/witness_build.h"
#include "match/dp_matcher.h"
#include "pattern/pattern_ops.h"

namespace xmlup {
namespace {

/// Builds the Lemma 3 "(If)" witness for a node conflict found on the read
/// edge into `n_prime` and verifies it. `word` is the matching witness: the
/// label classes of the path from the tree root to the deletion point u.
Result<Tree> BuildNodeConflictWitness(const Pattern& read,
                                      const Pattern& delete_pattern,
                                      PatternNodeId n_prime,
                                      const ClassWord& word,
                                      ConflictSemantics semantics) {
  NodeId u = kNullNode;
  Tree witness = MatchWordToPath(
      word, read.symbols(),
      UnusedLabel("wfill", read, delete_pattern, nullptr), &u);
  const Label filler = UnusedLabel("mfill", read, delete_pattern, nullptr);

  if (read.axis(n_prime) == Axis::kDescendant) {
    // Descendant edge (n, n'): insert a model of SEQ_{n'}^{O(R)} as a child
    // of u; the read then selects a node inside the doomed subtree.
    const Pattern suffix = ExtractSeq(read, n_prime, read.output());
    GraftModel(&witness, u, suffix, suffix.root(), filler);
  } else {
    // Child edge: u is the image of n' itself. If n' is not the output,
    // extend below u with a model of the rest of the read.
    if (n_prime != read.output()) {
      const PatternNodeId n_next = read.first_child(n_prime);
      const Pattern suffix = ExtractSeq(read, n_next, read.output());
      GraftModel(&witness, u, suffix, suffix.root(), filler);
    }
  }
  return FinishLinearWitness(std::move(witness), read, delete_pattern,
                             /*content=*/nullptr, semantics);
}

/// Builds a witness for the "deletion strictly below a read result" case
/// (tree/value semantics) from a weak match of D' against the whole read.
Result<Tree> BuildSubtreeModificationWitness(const Pattern& read,
                                             const Pattern& delete_pattern,
                                             const ClassWord& word,
                                             ConflictSemantics semantics) {
  Tree witness = MatchWordToPath(
      word, read.symbols(),
      UnusedLabel("wfill", read, delete_pattern, nullptr));
  return FinishLinearWitness(std::move(witness), read, delete_pattern,
                             /*content=*/nullptr, semantics);
}

}  // namespace

Result<ConflictReport> DetectLinearReadDeleteConflict(
    const Pattern& read, const Pattern& delete_pattern,
    ConflictSemantics semantics, bool build_witness) {
  if (!read.IsLinear()) {
    return Status::InvalidArgument(
        "read pattern must be linear (P^{//,*}) for polynomial detection");
  }
  XMLUP_RETURN_NOT_OK(ValidateDeletePattern(delete_pattern));

  // Corollary 1: only the delete's mainline matters.
  const Pattern mainline = Mainline(delete_pattern);

  ConflictReport report;
  report.verdict = ConflictVerdict::kNoConflict;
  report.method = DetectorMethod::kLinearPtime;

  // Lemma 3: scan the read's edges.
  for (PatternNodeId n_prime : read.PreOrder()) {
    if (n_prime == read.root()) continue;
    const PatternNodeId n = read.parent(n_prime);
    MatchResult match;
    if (read.axis(n_prime) == Axis::kDescendant) {
      match = MatchWeakly(mainline, ExtractSeq(read, read.root(), n));
    } else {
      match = MatchStrongly(mainline, ExtractSeq(read, read.root(), n_prime));
    }
    if (!match.matches) continue;
    report.verdict = ConflictVerdict::kConflict;
    report.detail =
        std::string("node conflict via ") +
        (read.axis(n_prime) == Axis::kDescendant ? "descendant" : "child") +
        " edge into read node " + read.LabelName(n_prime);
    if (build_witness) {
      XMLUP_ASSIGN_OR_RETURN(
          Tree witness,
          BuildNodeConflictWitness(read, delete_pattern, n_prime,
                                   match.witness_word, semantics));
      report.witness = std::move(witness);
    }
    return report;
  }

  if (semantics == ConflictSemantics::kNode) return report;

  // Tree / value semantics (equivalent for linear patterns, Lemma 2): a
  // conflict also exists when the deletion point can fall at-or-below a
  // read result, modifying the returned subtree.
  MatchResult below = MatchWeakly(mainline, read);
  if (below.matches) {
    report.verdict = ConflictVerdict::kConflict;
    report.detail = "subtree-modification conflict (D weakly matches R)";
    if (build_witness) {
      XMLUP_ASSIGN_OR_RETURN(
          Tree witness,
          BuildSubtreeModificationWitness(read, delete_pattern,
                                          below.witness_word, semantics));
      report.witness = std::move(witness);
    }
  }
  return report;
}

Result<ConflictReport> DetectMainlineReadDeleteConflict(
    const Pattern& read_mainline, const Pattern& delete_mainline,
    const Pattern& delete_pattern, ConflictSemantics semantics,
    bool build_witness) {
  XMLUP_RETURN_NOT_OK(ValidateDeletePattern(delete_pattern));
  const Pattern& r = read_mainline;

  ConflictReport report;
  report.verdict = ConflictVerdict::kNoConflict;
  report.method = DetectorMethod::kLinearPtime;

  // Lemma 3 along the chain: the edge (n, n') with k nodes of r above n'.
  // The DP reads the prefix SEQ_ROOT^n (k nodes) or SEQ_ROOT^n' (k + 1)
  // straight from r.
  size_t k = 1;
  for (PatternNodeId n_prime = r.first_child(r.root());
       n_prime != kNullPatternNode; n_prime = r.first_child(n_prime), ++k) {
    const bool descendant = r.axis(n_prime) == Axis::kDescendant;
    const MatchResult match =
        descendant ? MatchDp(delete_mainline, r, /*weak=*/true, k)
                   : MatchDp(delete_mainline, r, /*weak=*/false, k + 1);
    if (!match.matches) continue;
    report.verdict = ConflictVerdict::kConflict;
    report.detail = std::string("node conflict via ") +
                    (descendant ? "descendant" : "child") +
                    " edge into read node " + r.LabelName(n_prime);
    if (build_witness) {
      XMLUP_ASSIGN_OR_RETURN(
          Tree witness,
          BuildNodeConflictWitness(r, delete_pattern, n_prime,
                                   match.witness_word, semantics));
      report.witness = std::move(witness);
    }
    return report;
  }

  if (semantics == ConflictSemantics::kNode) return report;

  MatchResult below = MatchDp(delete_mainline, r, /*weak=*/true);
  if (below.matches) {
    report.verdict = ConflictVerdict::kConflict;
    report.detail = "subtree-modification conflict (D weakly matches R)";
    if (build_witness) {
      XMLUP_ASSIGN_OR_RETURN(
          Tree witness,
          BuildSubtreeModificationWitness(r, delete_pattern,
                                          below.witness_word, semantics));
      report.witness = std::move(witness);
    }
  }
  return report;
}

}  // namespace xmlup
