#ifndef XMLUP_TESTS_DETECT_ORACLE_H_
#define XMLUP_TESTS_DETECT_ORACLE_H_

// Reference checks for the detector pipeline (conflict/detector.h) that do
// not run the pipeline itself:
//   - linear reads: the report must equal the value linear detectors'
//     (read_insert.h / read_delete.h: the paper's per-call Thompson NFAs,
//     no store) on the stored operands, field by field — so the pipeline's
//     dynamic-programming matcher is checked against an independent
//     implementation of Definition 7;
//   - branching reads: a kConflict witness must pass the Lemma 1 checker;
//     a kMainlineHeuristic report needs a conflict of the value linear
//     detector on Mainline(read); a kBoundedSearch report must equal a
//     direct bounded search with the same options, mapped through the
//     paper-bound rule (kNoConflict only when the searched size covers
//     PaperWitnessBound and the enumeration was not truncated).
// Stage 0 is out of scope: callers pass options without a schema.

#include <string>

#include "conflict/bounded_search.h"
#include "conflict/detector.h"
#include "conflict/read_delete.h"
#include "conflict/read_insert.h"
#include "conflict/witness_check.h"
#include "gtest/gtest.h"
#include "pattern/pattern_ops.h"
#include "pattern/pattern_store.h"

namespace xmlup {
namespace testing_util {

/// Field-by-field agreement on everything deterministic across calls.
/// Witness *trees* are excluded: the two matchers may return different
/// witness words, and the construction mints a fresh label when an input
/// uses a reserved one ("wfill$", "uniq$", ...), so trees can differ
/// textually between two runs —
/// both sides' witnesses are re-verified by the Lemma 1 checkers inside
/// the detectors, so presence is the right comparison here.
inline void ExpectSameReport(const Result<ConflictReport>& want,
                             const Result<ConflictReport>& got,
                             const std::string& label) {
  ASSERT_EQ(want.ok(), got.ok()) << label;
  if (!want.ok()) {
    EXPECT_EQ(want.status().code(), got.status().code()) << label;
    return;
  }
  EXPECT_EQ(want->verdict, got->verdict) << label;
  EXPECT_EQ(want->method, got->method) << label;
  EXPECT_EQ(want->trees_checked, got->trees_checked) << label;
  EXPECT_EQ(want->detail, got->detail) << label;
  EXPECT_EQ(want->witness.has_value(), got->witness.has_value()) << label;
}

/// The value linear detector on (`read`, `update`): complete for a linear
/// `read` (Theorems 1-2).
inline Result<ConflictReport> ValueLinearDetect(const Pattern& read,
                                                const UpdateOp& update,
                                                const DetectorOptions& options,
                                                bool build_witness) {
  if (update.kind() == UpdateOp::Kind::kInsert) {
    return DetectLinearReadInsertConflict(read, update.pattern(),
                                          update.content(), options.semantics,
                                          build_witness);
  }
  return DetectLinearReadDeleteConflict(read, update.pattern(),
                                        options.semantics, build_witness);
}

/// Checks `got` — Detect(store, read, update, options) — against the
/// reference described at the top of this file.
inline void ExpectMatchesOracle(const PatternStore& store, PatternRef read,
                                const UpdateOp& update,
                                const DetectorOptions& options,
                                const Result<ConflictReport>& got,
                                const std::string& label) {
  ASSERT_EQ(options.dtd, nullptr) << label;
  const Pattern& r = store.pattern(read);
  const Pattern& u = update.pattern();
  if (r.IsLinear()) {
    ExpectSameReport(ValueLinearDetect(r, update, options,
                                       options.build_witness),
                     got, label);
    return;
  }
  ASSERT_TRUE(got.ok()) << label << ": " << got.status();
  const bool insert = update.kind() == UpdateOp::Kind::kInsert;
  if (got->conflict()) {
    ASSERT_TRUE(got->witness.has_value()) << label;
    const bool witness_ok =
        insert ? IsReadInsertWitness(r, u, update.content(), *got->witness,
                                     options.semantics)
               : IsReadDeleteWitness(r, u, *got->witness, options.semantics);
    EXPECT_TRUE(witness_ok) << label << ": witness fails the Lemma 1 check";
  }
  switch (got->method) {
    case DetectorMethod::kMainlineHeuristic: {
      EXPECT_EQ(got->verdict, ConflictVerdict::kConflict) << label;
      Result<ConflictReport> mainline =
          ValueLinearDetect(Mainline(r), update, options, false);
      ASSERT_TRUE(mainline.ok()) << label;
      EXPECT_TRUE(mainline->conflict())
          << label << ": heuristic fired without a mainline conflict";
      break;
    }
    case DetectorMethod::kBoundedSearch: {
      const BruteForceResult search =
          insert ? BruteForceReadInsertSearch(r, u, update.content(),
                                              options.semantics,
                                              options.search)
                 : BruteForceReadDeleteSearch(r, u, options.semantics,
                                              options.search);
      ConflictVerdict want = ConflictVerdict::kUnknown;
      if (search.outcome == SearchOutcome::kWitnessFound) {
        want = ConflictVerdict::kConflict;
      } else if (search.outcome == SearchOutcome::kExhaustedNoWitness &&
                 !search.truncated &&
                 options.search.max_nodes >= PaperWitnessBound(r, u)) {
        want = ConflictVerdict::kNoConflict;
      }
      EXPECT_EQ(got->verdict, want) << label;
      EXPECT_EQ(got->trees_checked, search.trees_checked) << label;
      break;
    }
    case DetectorMethod::kLinearPtime:
    case DetectorMethod::kTypePruned:
      ADD_FAILURE() << label << ": branching read answered by "
                    << DetectorMethodName(got->method);
      break;
  }
}

}  // namespace testing_util
}  // namespace xmlup

#endif  // XMLUP_TESTS_DETECT_ORACLE_H_
