#include "conflict/read_delete.h"

#include "common/random.h"
#include "conflict/bounded_search.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"
#include "workload/pattern_generator.h"

namespace xmlup {
namespace {

using testing_util::NewSymbols;
using testing_util::Xp;

class ReadDeleteTest : public ::testing::Test {
 protected:
  std::shared_ptr<SymbolTable> symbols_ = NewSymbols();

  ConflictReport Detect(const char* read, const char* del,
                              ConflictSemantics semantics =
                                  ConflictSemantics::kNode) {
    Result<ConflictReport> r = DetectLinearReadDeleteConflict(
        Xp(read, symbols_), Xp(del, symbols_), semantics);
    EXPECT_TRUE(r.ok()) << r.status();
    return std::move(r).value();
  }
};

TEST_F(ReadDeleteTest, DeleteOfReadTargetConflicts) {
  const ConflictReport r = Detect("a/b", "a/b");
  EXPECT_TRUE(r.conflict());
  ASSERT_TRUE(r.witness.has_value());
}

TEST_F(ReadDeleteTest, DisjointLabelsNoConflict) {
  EXPECT_FALSE(Detect("a/b", "a/c").conflict());
}

TEST_F(ReadDeleteTest, DescendantReadReachesIntoDeletedSubtree) {
  // Deleting c children can remove b *descendants* living inside them.
  EXPECT_TRUE(Detect("a//b", "a/c").conflict());
}

TEST_F(ReadDeleteTest, DescendantReadConflictsWithAncestorDeletion) {
  // Deleting c children can remove subtrees containing b descendants.
  EXPECT_TRUE(Detect("a//b", "a//c").conflict());
}

TEST_F(ReadDeleteTest, ChildEdgeRequiresStrongMatch) {
  // read a/b (child edge), delete a/c/b: the deletion point is at depth 2,
  // but the read's b is at depth 1 — no conflict.
  EXPECT_FALSE(Detect("a/b", "a/c/b").conflict());
  // read a//b can reach depth 2: conflict.
  EXPECT_TRUE(Detect("a//b", "a/c/b").conflict());
}

TEST_F(ReadDeleteTest, WildcardsEnableConflict) {
  EXPECT_TRUE(Detect("a/*", "a/c").conflict());
  EXPECT_TRUE(Detect("a/b", "a/*").conflict());
  EXPECT_TRUE(Detect("*//x", "*/y").conflict());
}

TEST_F(ReadDeleteTest, RootLabelMismatchNoConflict) {
  EXPECT_FALSE(Detect("a/b", "z/b").conflict());
}

TEST_F(ReadDeleteTest, DeletionBelowReadOutputIsNotNodeConflict) {
  // The deletion point lies strictly below anything the read returns.
  EXPECT_FALSE(Detect("a/b", "a/b/c").conflict());
  // But it is a tree conflict (the returned subtree is modified) and a
  // value conflict (Lemma 2).
  EXPECT_TRUE(Detect("a/b", "a/b/c", ConflictSemantics::kTree).conflict());
  EXPECT_TRUE(Detect("a/b", "a/b/c", ConflictSemantics::kValue).conflict());
}

TEST_F(ReadDeleteTest, BranchingDeleteUsesMainline) {
  // Corollary 1: the delete may branch; conflict behavior follows its
  // mainline a/b.
  EXPECT_TRUE(Detect("a/b", "a[x][.//y]/b[z]").conflict());
  EXPECT_FALSE(Detect("a/c", "a[x][.//y]/b[z]").conflict());
}

TEST_F(ReadDeleteTest, RejectsNonLinearRead) {
  Result<ConflictReport> r = DetectLinearReadDeleteConflict(
      Xp("a[x]/b", symbols_), Xp("a/b", symbols_));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ReadDeleteTest, RejectsRootDeletingPattern) {
  Result<ConflictReport> r = DetectLinearReadDeleteConflict(
      Xp("a/b", symbols_), Xp("a", symbols_));
  EXPECT_FALSE(r.ok());
}

TEST_F(ReadDeleteTest, WitnessesAreVerified) {
  const char* cases[][2] = {
      {"a/b", "a/b"},       {"a//b", "a//c"},    {"a/*/c", "a/x"},
      {"*//m", "*/k[z]"},   {"a//b//c", "a/b"},  {"r/s/t", "r[q]/s"},
  };
  for (const auto& c : cases) {
    const ConflictReport r = Detect(c[0], c[1]);
    if (!r.conflict()) continue;
    ASSERT_TRUE(r.witness.has_value()) << c[0] << " vs " << c[1];
    EXPECT_TRUE(IsReadDeleteWitness(Xp(c[0], symbols_), Xp(c[1], symbols_),
                                    *r.witness, ConflictSemantics::kNode))
        << c[0] << " vs " << c[1];
  }
}

TEST_F(ReadDeleteTest, SingleNodeReadNeverConflicts) {
  // A read of just the root cannot lose nodes to deletion (the root
  // survives every DELETE).
  EXPECT_FALSE(Detect("a", "a//b").conflict());
  EXPECT_FALSE(Detect("*", "*/x").conflict());
  // Under tree semantics it does conflict: the root's subtree changes.
  EXPECT_TRUE(Detect("a", "a//b", ConflictSemantics::kTree).conflict());
}

TEST_F(ReadDeleteTest, DpMatcherGivesSameAnswers) {
  const char* cases[][2] = {
      {"a/b", "a/b"},     {"a/b", "a/c"},   {"a//b", "a//c"},
      {"a/b", "a/b/c"},   {"a/*", "a/c"},   {"a/b", "a/c/b"},
  };
  // The value detector runs the paper's automata; the mainline core runs
  // the dynamic program.
  for (const auto& c : cases) {
    const Pattern read = Xp(c[0], symbols_);
    const Pattern del = Xp(c[1], symbols_);
    Result<ConflictReport> nfa =
        DetectLinearReadDeleteConflict(read, del, ConflictSemantics::kNode);
    Result<ConflictReport> dp = DetectMainlineReadDeleteConflict(
        read, del, del, ConflictSemantics::kNode);
    ASSERT_TRUE(nfa.ok());
    ASSERT_TRUE(dp.ok());
    EXPECT_EQ(nfa->conflict(), dp->conflict()) << c[0] << " vs " << c[1];
  }
}

TEST_F(ReadDeleteTest, Section6SatisfiabilityEncoding) {
  // §6 "Fragments of XPath": satisfiability of a delete pattern is
  // encodable as a read-delete conflict against a read that selects all
  // (non-root) nodes. Patterns in P^{//,[],*} are always satisfiable, so
  // the conflict must always be found.
  const char* deletes[] = {"a/b", "*//*", "x[y][.//z]/w", "*/a[b/c]//d"};
  for (const char* del : deletes) {
    EXPECT_TRUE(Detect("*//*", del).conflict()) << del;
  }
}

/// The load-bearing property: on random pattern pairs the PTIME detector
/// agrees with exhaustive small-tree search. Detector conflicts come with
/// internally verified witnesses, so "detector yes" is always sound; this
/// sweep checks "detector no ⇒ no small witness exists" and "brute-force
/// witness ⇒ detector yes".
class ReadDeletePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ReadDeletePropertyTest, AgreesWithBruteForce) {
  auto symbols = NewSymbols();
  Rng rng(7000 + GetParam());
  PatternGenOptions options;
  options.size = 3;
  options.alphabet = {symbols->Intern("a"), symbols->Intern("b")};
  RandomPatternGenerator gen(symbols, options);

  BoundedSearchOptions search;
  search.max_nodes = 5;

  for (int iter = 0; iter < 12; ++iter) {
    const Pattern read = gen.GenerateLinear(&rng);
    const Pattern del = rng.NextBool(0.5)
                            ? gen.GenerateLinear(&rng)
                            : gen.GenerateBranchingNonRootOutput(&rng);
    if (del.output() == del.root()) continue;

    for (ConflictSemantics semantics :
         {ConflictSemantics::kNode, ConflictSemantics::kTree,
          ConflictSemantics::kValue}) {
      Result<ConflictReport> detect =
          DetectLinearReadDeleteConflict(read, del, semantics);
      ASSERT_TRUE(detect.ok())
          << detect.status() << " seed=" << GetParam() << " iter=" << iter;
      const BruteForceResult brute =
          BruteForceReadDeleteSearch(read, del, semantics, search);
      if (brute.outcome == SearchOutcome::kWitnessFound) {
        EXPECT_TRUE(detect->conflict())
            << "brute force found a witness the detector missed; seed="
            << GetParam() << " iter=" << iter << " semantics="
            << ConflictSemanticsName(semantics);
      }
      if (!detect->conflict() &&
          brute.outcome == SearchOutcome::kExhaustedNoWitness) {
        SUCCEED();  // both agree there is no small witness
      }
      if (detect->conflict()) {
        ASSERT_TRUE(detect->witness.has_value());
        EXPECT_TRUE(IsReadDeleteWitness(read, del, *detect->witness,
                                        semantics));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ReadDeletePropertyTest,
                         ::testing::Range(0, 14));

/// Lemma 2: for linear patterns, tree conflicts and value conflicts are
/// the same decision problem.
class Lemma2DeleteTest : public ::testing::TestWithParam<int> {};

TEST_P(Lemma2DeleteTest, TreeAndValueSemanticsCoincide) {
  auto symbols = NewSymbols();
  Rng rng(61000 + GetParam());
  PatternGenOptions options;
  options.size = 4;
  options.alphabet = {symbols->Intern("a"), symbols->Intern("b")};
  RandomPatternGenerator gen(symbols, options);
  for (int iter = 0; iter < 20; ++iter) {
    const Pattern read = gen.GenerateLinear(&rng);
    const Pattern del = gen.GenerateLinear(&rng);
    if (del.output() == del.root()) continue;
    Result<ConflictReport> tree_sem = DetectLinearReadDeleteConflict(
        read, del, ConflictSemantics::kTree);
    Result<ConflictReport> value_sem = DetectLinearReadDeleteConflict(
        read, del, ConflictSemantics::kValue);
    ASSERT_TRUE(tree_sem.ok()) << tree_sem.status();
    ASSERT_TRUE(value_sem.ok()) << value_sem.status();
    EXPECT_EQ(tree_sem->conflict(), value_sem->conflict())
        << "Lemma 2 violated; seed=" << GetParam() << " iter=" << iter;
    // Node conflicts imply tree conflicts.
    Result<ConflictReport> node_sem = DetectLinearReadDeleteConflict(
        read, del, ConflictSemantics::kNode);
    ASSERT_TRUE(node_sem.ok());
    if (node_sem->conflict()) {
      EXPECT_TRUE(tree_sem->conflict());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, Lemma2DeleteTest, ::testing::Range(0, 6));

}  // namespace
}  // namespace xmlup
