#include "conflict/containment.h"

#include "common/random.h"
#include "conflict/bounded_search.h"
#include "eval/evaluator.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"
#include "workload/pattern_generator.h"

namespace xmlup {
namespace {

using testing_util::NewSymbols;
using testing_util::Xp;

class ContainmentTest : public ::testing::Test {
 protected:
  std::shared_ptr<SymbolTable> symbols_ = NewSymbols();

  bool Contained(const char* p, const char* q) {
    const ContainmentDecision d =
        DecideContainment(Xp(p, symbols_), Xp(q, symbols_));
    if (!d.contained) {
      // Sanity: the counterexample must separate the patterns.
      EXPECT_TRUE(d.counterexample.has_value());
      EXPECT_TRUE(HasEmbedding(Xp(p, symbols_), *d.counterexample));
      EXPECT_FALSE(HasEmbedding(Xp(q, symbols_), *d.counterexample));
    }
    return d.contained;
  }
};

TEST_F(ContainmentTest, ReflexiveAndBasic) {
  EXPECT_TRUE(Contained("a/b", "a/b"));
  EXPECT_TRUE(Contained("a/b", "a//b"));
  EXPECT_FALSE(Contained("a//b", "a/b"));
  EXPECT_TRUE(Contained("a/b", "a/*"));
  EXPECT_FALSE(Contained("a/*", "a/b"));
  EXPECT_TRUE(Contained("a/b", "a"));
  EXPECT_FALSE(Contained("a", "a/b"));
}

TEST_F(ContainmentTest, BranchingCases) {
  EXPECT_TRUE(Contained("a[b][c]", "a[b]"));
  EXPECT_FALSE(Contained("a[b]", "a[b][c]"));
  EXPECT_TRUE(Contained("a[b/c]", "a[b]"));
  EXPECT_TRUE(Contained("a[b/c]", "a[.//c]"));
  EXPECT_FALSE(Contained("a[.//c]", "a[b/c]"));
}

TEST_F(ContainmentTest, MiklauSuciuStarChainExample) {
  // The classic subtlety: a//b ⊆ a/*...? No — but a//*//b vs a//b shows
  // why canonical models need z-chains longer than the star length.
  EXPECT_TRUE(Contained("a//*//b", "a//b"));
  EXPECT_FALSE(Contained("a//b", "a//*//b"));
  EXPECT_TRUE(Contained("a/*/b", "a//b"));
  EXPECT_FALSE(Contained("a//b", "a/*/b"));
}

TEST_F(ContainmentTest, WildcardInContaineeNotContainer) {
  // p with a wildcard is "bigger": a/* ⊄ a/b but a/b ⊆ a/*.
  EXPECT_TRUE(Contained("x[a][b]", "x[*]"));
  EXPECT_FALSE(Contained("x[*]", "x[a]"));
}

TEST_F(ContainmentTest, RepeatedDecisionsDoNotGrowTheSymbolTable) {
  const Pattern p = Xp("a/*/b", symbols_);
  const Pattern q = Xp("a//b", symbols_);
  EXPECT_TRUE(DecideContainment(p, q).contained);  // interns `z$` once
  const size_t symbols = symbols_->size();
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(DecideContainment(p, q).contained);
    EXPECT_FALSE(DecideContainment(q, p).contained);
  }
  EXPECT_EQ(symbols_->size(), symbols);
}

TEST_F(ContainmentTest, InputUsingTheReservedFillerIsStillDecided) {
  // q = a/z$/b with the filler's reserved name. Filling p's wildcard with
  // z$ would make q embed into p's only model; the fresh fallback keeps
  // a/c/b-like trees as counterexamples.
  const Label reserved = symbols_->Reserved("z");
  Pattern q(symbols_);
  const PatternNodeId mid =
      q.AddChild(q.CreateRoot(symbols_->Intern("a")), reserved, Axis::kChild);
  q.SetOutput(q.AddChild(mid, symbols_->Intern("b"), Axis::kChild));
  const Pattern p = Xp("a/*/b", symbols_);
  const ContainmentDecision d = DecideContainment(p, q);
  EXPECT_FALSE(d.contained);
  ASSERT_TRUE(d.counterexample.has_value());
  EXPECT_TRUE(HasEmbedding(p, *d.counterexample));
  EXPECT_FALSE(HasEmbedding(q, *d.counterexample));
  // And the other direction holds: a/z$/b is one of the trees of a/*/b.
  EXPECT_TRUE(DecideContainment(q, p).contained);
}

TEST_F(ContainmentTest, HomomorphismIsSound) {
  // Whenever the PTIME homomorphism exists, the exact decision agrees.
  const char* cases[][2] = {
      {"a/b", "a//b"},   {"a[b][c]", "a[b]"}, {"a/b/c", "a//c"},
      {"a[b/c]", "a[.//c]"}, {"a/b", "a/*"},  {"x//y//z", "x//z"},
  };
  for (const auto& c : cases) {
    const Pattern p = Xp(c[0], symbols_);
    const Pattern q = Xp(c[1], symbols_);
    EXPECT_TRUE(HasContainmentHomomorphism(p, q)) << c[0] << " vs " << c[1];
    EXPECT_TRUE(DecideContainment(p, q).contained) << c[0] << " vs " << c[1];
  }
}

TEST_F(ContainmentTest, HomomorphismAbsentOnNonContainment) {
  // Soundness contrapositive: not contained ⇒ no homomorphism.
  const char* cases[][2] = {
      {"a//b", "a/b"}, {"a[b]", "a[c]"}, {"a/*", "a/b"},
  };
  for (const auto& c : cases) {
    EXPECT_FALSE(
        HasContainmentHomomorphism(Xp(c[0], symbols_), Xp(c[1], symbols_)))
        << c[0] << " vs " << c[1];
  }
}

TEST_F(ContainmentTest, ModelCountGrowsWithDescendantEdges) {
  const Pattern q = Xp("a/b", symbols_);  // star length 0 → w = 1
  EXPECT_EQ(CanonicalModelCount(Xp("a/b", symbols_), q), 1u);
  EXPECT_EQ(CanonicalModelCount(Xp("a//b", symbols_), q), 2u);
  EXPECT_EQ(CanonicalModelCount(Xp("a//b//c", symbols_), q), 4u);
}

TEST_F(ContainmentTest, ModelsCheckedMatchesCount) {
  const Pattern p = Xp("a//b//c", symbols_);
  const Pattern q = Xp("a//b//c", symbols_);
  const ContainmentDecision d = DecideContainment(p, q);
  EXPECT_TRUE(d.contained);
  EXPECT_EQ(d.models_checked, CanonicalModelCount(p, q));
}

/// The decisive sweep: the exact canonical-model algorithm is validated
/// against exhaustive small-tree search. p ⊆ q iff no tree (up to the
/// budget) embeds p but not q.
class ContainmentPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ContainmentPropertyTest, AgreesWithExhaustiveSearch) {
  auto symbols = NewSymbols();
  Rng rng(15000 + GetParam());
  PatternGenOptions options;
  options.size = 3;
  options.alphabet = {symbols->Intern("a"), symbols->Intern("b")};
  RandomPatternGenerator gen(symbols, options);

  for (int iter = 0; iter < 10; ++iter) {
    const Pattern p = rng.NextBool(0.5) ? gen.GenerateLinear(&rng)
                                        : gen.GenerateBranching(&rng);
    const Pattern q = rng.NextBool(0.5) ? gen.GenerateLinear(&rng)
                                        : gen.GenerateBranching(&rng);
    const ContainmentDecision exact = DecideContainment(p, q);

    // Exhaustive check over all trees with <= 5 nodes over the pattern
    // alphabet plus one fresh label.
    std::vector<Label> alphabet = options.alphabet;
    alphabet.push_back(symbols->Fresh("z"));
    TreeEnumerator enumerator(symbols, alphabet, 5);
    bool found_separator = false;
    enumerator.Enumerate([&](const Tree& t) {
      if (HasEmbedding(p, t) && !HasEmbedding(q, t)) {
        found_separator = true;
        return false;
      }
      return true;
    });
    if (exact.contained) {
      EXPECT_FALSE(found_separator)
          << "exact says contained but a small separating tree exists; "
          << "seed=" << GetParam() << " iter=" << iter;
    } else {
      // Verify the counterexample (trees may be larger than 5 nodes, so
      // found_separator may be false even when not contained).
      ASSERT_TRUE(exact.counterexample.has_value());
      EXPECT_TRUE(HasEmbedding(p, *exact.counterexample));
      EXPECT_FALSE(HasEmbedding(q, *exact.counterexample));
    }
    // Homomorphism soundness on the same pair.
    if (HasContainmentHomomorphism(p, q)) {
      EXPECT_TRUE(exact.contained) << "hom test unsound; seed=" << GetParam();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ContainmentPropertyTest,
                         ::testing::Range(0, 14));

}  // namespace
}  // namespace xmlup
