#include "conflict/read_insert.h"

#include <string>

#include "conflict/witness_build.h"
#include "eval/evaluator.h"
#include "pattern/pattern_ops.h"

namespace xmlup {
namespace {

Result<Tree> BuildCutEdgeWitness(const Pattern& read,
                                 const Pattern& insert_pattern,
                                 const Tree& inserted, const ClassWord& word,
                                 ConflictSemantics semantics) {
  // The word is the path from the root to the insertion point u; after the
  // insertion the read continues inside the grafted copy of X, so the path
  // alone is the witness (Lemma 6 "(If)").
  Tree witness = MatchWordToPath(
      word, read.symbols(),
      UnusedLabel("wfill", read, insert_pattern, &inserted));
  GraftBranchModelsEverywhere(&witness, insert_pattern);
  if (IsReadInsertWitness(read, insert_pattern, inserted, witness,
                          semantics)) {
    return witness;
  }
  // Lemma 2: a node-conflict witness is upgraded to a value-conflict
  // witness by giving every original node a child whose label no input
  // uses (the new result inside X then has no isomorphic partner).
  const Label unique = UnusedLabel("uniq", read, insert_pattern, &inserted);
  for (NodeId n : witness.PreOrder()) witness.AddChild(n, unique);
  if (IsReadInsertWitness(read, insert_pattern, inserted, witness,
                          semantics)) {
    return witness;
  }
  return Status::Internal(
      "constructed read-insert witness failed verification");
}

Result<Tree> BuildSubtreeModificationWitness(const Pattern& read,
                                             const Pattern& insert_pattern,
                                             const Tree& inserted,
                                             const ClassWord& word,
                                             ConflictSemantics semantics) {
  Tree witness = MatchWordToPath(
      word, read.symbols(),
      UnusedLabel("wfill", read, insert_pattern, &inserted));
  GraftBranchModelsEverywhere(&witness, insert_pattern);
  if (IsReadInsertWitness(read, insert_pattern, inserted, witness,
                          semantics)) {
    return witness;
  }
  // Lemma 2 fallback: uniquify subtrees with children carrying a label no
  // input uses, so a modified result cannot be value-equal to an
  // unmodified one.
  const Label unique = UnusedLabel("uniq", read, insert_pattern, &inserted);
  for (NodeId n : witness.PreOrder()) witness.AddChild(n, unique);
  if (IsReadInsertWitness(read, insert_pattern, inserted, witness,
                          semantics)) {
    return witness;
  }
  return Status::Internal(
      "constructed read-insert subtree witness failed verification");
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
          Tree witness, BuildCutEdgeWitness(read, insert_pattern, inserted,
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
          BuildSubtreeModificationWitness(read, insert_pattern, inserted,
                                          below.witness_word, semantics));
      report.witness = std::move(witness);
    }
  }
  return report;
}

Result<ConflictReport> DetectReadInsertConflictCompiled(
    const CompiledPattern& read, const CompiledPattern& ins,
    const Pattern& insert_pattern, const Tree& inserted,
    ConflictSemantics semantics, bool build_witness) {
  if (!inserted.has_root()) {
    return Status::InvalidArgument("inserted tree X is empty");
  }

  // The compiled read *is* the mainline chain; for a linear read this is
  // the read itself. Chain index k carries both the prefix SEQ_ROOT^n
  // (k-1) and the suffix SEQ_{n'}^O (k) the Lemma 5-7 cut-edge test needs,
  // precompiled.
  const Pattern& r = read.mainline_pattern();

  ConflictReport report;
  report.verdict = ConflictVerdict::kNoConflict;
  report.method = DetectorMethod::kLinearPtime;

  const size_t length = read.chain_length();
  for (size_t k = 1; k < length; ++k) {
    const PatternNodeId n_prime = read.mainline_node(k);
    MatchResult match;
    bool suffix_ok = false;
    if (r.axis(n_prime) == Axis::kChild) {
      match = MatchCompiled(ins, read, k - 1, /*weak=*/false);
      if (match.matches) {
        suffix_ok =
            EmbedsAt(read.suffix_pattern(k), inserted, inserted.root());
      }
    } else {
      match = MatchCompiled(ins, read, k - 1, /*weak=*/true);
      if (match.matches) {
        suffix_ok = EmbedsAnywhereIn(read.suffix_pattern(k), inserted,
                                     inserted.root());
      }
    }
    if (!match.matches || !suffix_ok) continue;
    report.verdict = ConflictVerdict::kConflict;
    report.detail =
        std::string("cut edge (") +
        (r.axis(n_prime) == Axis::kDescendant ? "descendant" : "child") +
        ") into read node " + r.LabelName(n_prime);
    if (build_witness) {
      XMLUP_ASSIGN_OR_RETURN(
          Tree witness, BuildCutEdgeWitness(r, insert_pattern, inserted,
                                            match.witness_word, semantics));
      report.witness = std::move(witness);
    }
    return report;
  }

  if (semantics == ConflictSemantics::kNode) return report;

  MatchResult below = MatchCompiled(ins, read, length - 1, /*weak=*/true);
  if (below.matches) {
    report.verdict = ConflictVerdict::kConflict;
    report.detail = "subtree-modification conflict (I weakly matches R)";
    if (build_witness) {
      XMLUP_ASSIGN_OR_RETURN(
          Tree witness,
          BuildSubtreeModificationWitness(r, insert_pattern, inserted,
                                          below.witness_word, semantics));
      report.witness = std::move(witness);
    }
  }
  return report;
}

}  // namespace xmlup
