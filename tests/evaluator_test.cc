#include "eval/evaluator.h"

#include <algorithm>
#include <set>

#include "common/random.h"
#include "eval/embedding_enumerator.h"
#include "gtest/gtest.h"
#include "pattern/pattern_ops.h"
#include "tests/test_util.h"
#include "workload/pattern_generator.h"
#include "workload/tree_generator.h"
#include "xml/tree_algos.h"

namespace xmlup {
namespace {

using testing_util::NewSymbols;
using testing_util::Xml;
using testing_util::Xp;

class EvaluatorTest : public ::testing::Test {
 protected:
  std::shared_ptr<SymbolTable> symbols_ = NewSymbols();
};

TEST_F(EvaluatorTest, RootOnlyPattern) {
  Tree t = Xml("<a><b/></a>", symbols_);
  EXPECT_EQ(Evaluate(Xp("a", symbols_), t), std::vector<NodeId>{t.root()});
  EXPECT_TRUE(Evaluate(Xp("x", symbols_), t).empty());
  EXPECT_EQ(Evaluate(Xp("*", symbols_), t), std::vector<NodeId>{t.root()});
}

TEST_F(EvaluatorTest, ChildAxis) {
  Tree t = Xml("<a><b/><b><b/></b><c/></a>", symbols_);
  const std::vector<NodeId> result = Evaluate(Xp("a/b", symbols_), t);
  EXPECT_EQ(result.size(), 2u);  // only direct b children
}

TEST_F(EvaluatorTest, DescendantAxis) {
  Tree t = Xml("<a><b/><b><b/></b><c><b/></c></a>", symbols_);
  EXPECT_EQ(Evaluate(Xp("a//b", symbols_), t).size(), 4u);
}

TEST_F(EvaluatorTest, DescendantIsProper) {
  // a//a must not select the root itself (DESC is proper descendants).
  Tree t = Xml("<a><a/></a>", symbols_);
  const std::vector<NodeId> result = Evaluate(Xp("a//a", symbols_), t);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_NE(result[0], t.root());
}

TEST_F(EvaluatorTest, WildcardMatchesAnyLabel) {
  Tree t = Xml("<a><b/><c/></a>", symbols_);
  EXPECT_EQ(Evaluate(Xp("a/*", symbols_), t).size(), 2u);
  EXPECT_EQ(Evaluate(Xp("*//*", symbols_), t).size(), 2u);
}

TEST_F(EvaluatorTest, PredicateFiltersResults) {
  Tree t = Xml("<r><book><quantity/></book><book/></r>", symbols_);
  EXPECT_EQ(Evaluate(Xp("r/book", symbols_), t).size(), 2u);
  EXPECT_EQ(Evaluate(Xp("r/book[quantity]", symbols_), t).size(), 1u);
}

TEST_F(EvaluatorTest, DescendantPredicate) {
  Tree t = Xml("<r><b><s><q/></s></b><b><s/></b></r>", symbols_);
  EXPECT_EQ(Evaluate(Xp("r/b[.//q]", symbols_), t).size(), 1u);
  EXPECT_EQ(Evaluate(Xp("r/b[q]", symbols_), t).size(), 0u);  // q not a child
}

TEST_F(EvaluatorTest, OutputCanBeInternalNode) {
  // Output in the middle of the trunk: a/b[c] selects b nodes having c.
  Tree t = Xml("<a><b><c/></b><b/></a>", symbols_);
  const std::vector<NodeId> result = Evaluate(Xp("a/b[c]", symbols_), t);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(t.LabelName(result[0]), "b");
}

TEST_F(EvaluatorTest, MultiplePredicatesConjoin) {
  Tree t = Xml("<a><b><c/><d/></b><b><c/></b></a>", symbols_);
  EXPECT_EQ(Evaluate(Xp("a/b[c][d]", symbols_), t).size(), 1u);
}

TEST_F(EvaluatorTest, Figure1Scenario) {
  // The paper's Figure 1/§1: books whose quantity is low.
  Tree t = Xml(
      "<catalog>"
      "<book><title/><stock><quantity><low/></quantity></stock></book>"
      "<book><title/><stock><quantity><high/></quantity></stock></book>"
      "</catalog>",
      symbols_);
  const std::vector<NodeId> low_books =
      Evaluate(Xp("catalog/book[.//low]", symbols_), t);
  ASSERT_EQ(low_books.size(), 1u);
  EXPECT_EQ(t.LabelName(low_books[0]), "book");
}

TEST_F(EvaluatorTest, EmbeddingsNeedNotBeInjective) {
  // Two predicate branches may map onto the same tree path.
  Tree t = Xml("<a><b><c/></b></a>", symbols_);
  EXPECT_EQ(Evaluate(Xp("a[b][b/c]", symbols_), t).size(), 1u);
}

TEST_F(EvaluatorTest, EvaluationAfterMutationSeesCurrentTree) {
  Tree t = Xml("<a><b/></a>", symbols_);
  Pattern p = Xp("a//c", symbols_);
  EXPECT_TRUE(Evaluate(p, t).empty());
  const NodeId b = t.first_child(t.root());
  t.AddChild(b, symbols_->Intern("c"));
  EXPECT_EQ(Evaluate(p, t).size(), 1u);
  t.DeleteSubtree(b);
  EXPECT_TRUE(Evaluate(p, t).empty());
}

TEST_F(EvaluatorTest, EmbedsAtAnchorsAtGivenNode) {
  Tree t = Xml("<r><x><a><b/></a></x></r>", symbols_);
  Pattern p = Xp("a/b", symbols_);
  EXPECT_FALSE(HasEmbedding(p, t));  // root is r, not a
  const NodeId x = t.first_child(t.root());
  const NodeId a = t.first_child(x);
  EXPECT_TRUE(EmbedsAt(p, t, a));
  EXPECT_FALSE(EmbedsAt(p, t, x));
  EXPECT_TRUE(EmbedsAnywhereIn(p, t, t.root()));
  EXPECT_TRUE(EmbedsAnywhereIn(p, t, x));
  const NodeId b = t.first_child(a);
  EXPECT_FALSE(EmbedsAnywhereIn(p, t, b));
}

TEST_F(EvaluatorTest, CountEmbeddingsHandCases) {
  Tree t = Xml("<a><b/><b/></a>", symbols_);
  EXPECT_EQ(CountEmbeddings(Xp("a", symbols_), t), 1u);
  EXPECT_EQ(CountEmbeddings(Xp("a/b", symbols_), t), 2u);
  EXPECT_EQ(CountEmbeddings(Xp("a[b]", symbols_), t), 2u);
  EXPECT_EQ(CountEmbeddings(Xp("a[b][b]", symbols_), t), 4u);
  EXPECT_EQ(CountEmbeddings(Xp("a/c", symbols_), t), 0u);
}

TEST_F(EvaluatorTest, CountEmbeddingsDescendant) {
  Tree t = Xml("<a><b><b/></b></a>", symbols_);
  EXPECT_EQ(CountEmbeddings(Xp("a//b", symbols_), t), 2u);
  EXPECT_EQ(CountEmbeddings(Xp("a//b//b", symbols_), t), 1u);
  EXPECT_EQ(CountEmbeddings(Xp("a//*", symbols_), t), 2u);
}

TEST_F(EvaluatorTest, CountEmbeddingsLargeWithoutOverflowIssues) {
  // A bushy tree where a[*][*][*] has fanout^3 embeddings.
  Tree t(symbols_);
  const NodeId root = t.CreateRoot(symbols_->Intern("a"));
  for (int i = 0; i < 100; ++i) t.AddChild(root, symbols_->Intern("b"));
  EXPECT_EQ(CountEmbeddings(Xp("a[*][*][*]", symbols_), t), 1000000u);
}

/// True iff the reference enumerator finds an embedding of `p` into the
/// subtree of `t` rooted at `n` with ROOT(p) ↦ n.
bool EnumeratedAt(const Pattern& p, const Tree& t, NodeId n) {
  return !EnumerateEmbeddings(p, CopySubtree(t, n), 1).empty();
}

/// HasEmbedding, EmbedsAt(n) and EmbedsAnywhereIn(n) at every node of `t`
/// against the reference enumerator.
void ExpectAnchoredChecksMatchEnumeration(const Pattern& p, const Tree& t) {
  EXPECT_EQ(HasEmbedding(p, t), EnumeratedAt(p, t, t.root()));
  for (NodeId n : t.PreOrder()) {
    EXPECT_EQ(EmbedsAt(p, t, n), EnumeratedAt(p, t, n)) << "node " << n;
    bool anywhere = false;
    for (NodeId m : t.SubtreeNodes(n)) {
      anywhere = anywhere || EnumeratedAt(p, t, m);
    }
    EXPECT_EQ(EmbedsAnywhereIn(p, t, n), anywhere) << "node " << n;
  }
}

/// EmbedsAt and EmbedsAnywhereIn read from pattern node q, at every node
/// of `t`, against the same calls on the copy SubpatternAt(p, q). Returns
/// how many anchored checks held, so callers can see both outcomes occur.
size_t ExpectFromNodeMatchesSubpattern(const Pattern& p, PatternNodeId q,
                                       const Tree& t) {
  const Pattern sub = SubpatternAt(p, q);
  size_t held = 0;
  for (NodeId n : t.PreOrder()) {
    const bool at = EmbedsAt(p, t, n, q);
    EXPECT_EQ(at, EmbedsAt(sub, t, n)) << "q " << q << " node " << n;
    EXPECT_EQ(EmbedsAnywhereIn(p, t, n, q), EmbedsAnywhereIn(sub, t, n))
        << "q " << q << " node " << n;
    held += at ? 1 : 0;
  }
  return held;
}

/// Property sweep: the polynomial evaluator agrees with explicit embedding
/// enumeration on random (tree, pattern) pairs.
class EvaluatorPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(EvaluatorPropertyTest, MatchesEmbeddingEnumeration) {
  auto symbols = NewSymbols();
  Rng rng(1000 + GetParam());

  TreeGenOptions tree_options;
  tree_options.target_size = 18;
  tree_options.alphabet = RandomTreeGenerator::MakeAlphabet(symbols.get(), 3);
  RandomTreeGenerator trees(symbols, tree_options);

  PatternGenOptions pat_options;
  pat_options.size = 4;
  pat_options.alphabet = tree_options.alphabet;
  RandomPatternGenerator patterns(symbols, pat_options);

  size_t from_held = 0;
  size_t from_checks = 0;
  for (int iter = 0; iter < 20; ++iter) {
    const Tree t = trees.Generate(&rng);
    const Pattern p = rng.NextBool(0.5) ? patterns.GenerateLinear(&rng)
                                        : patterns.GenerateBranching(&rng);
    const std::vector<NodeId> fast = Evaluate(p, t);

    bool truncated = false;
    const std::vector<Embedding> embeddings =
        EnumerateEmbeddings(p, t, 200000, &truncated);
    ASSERT_FALSE(truncated);
    std::set<NodeId> slow;
    for (const Embedding& e : embeddings) {
      EXPECT_TRUE(IsValidEmbedding(p, t, e));
      slow.insert(e[p.output()]);
    }
    EXPECT_EQ(std::set<NodeId>(fast.begin(), fast.end()), slow)
        << "seed=" << GetParam() << " iter=" << iter;
    // The counting DP agrees with explicit enumeration.
    EXPECT_EQ(CountEmbeddings(p, t), embeddings.size())
        << "seed=" << GetParam() << " iter=" << iter;
    ExpectAnchoredChecksMatchEnumeration(p, t);
    for (PatternNodeId q = 0; q < p.size(); ++q) {
      from_held += ExpectFromNodeMatchesSubpattern(p, q, t);
      from_checks += t.size();
    }
  }
  EXPECT_GT(from_held, 0u);
  EXPECT_LT(from_held, from_checks);
}

INSTANTIATE_TEST_SUITE_P(Sweep, EvaluatorPropertyTest,
                         ::testing::Range(0, 12));

/// A pattern of `t`'s first `size` nodes in preorder (a connected top
/// part), keeping labels and edges except that some edges become
/// descendant edges, some inner nodes wildcards, and some labels change,
/// so it may or may not embed. Labels drawn from a large alphabet keep the
/// embeddings few enough for the reference enumerator.
Pattern PatternFromTree(const Tree& t, size_t size,
                        const std::vector<Label>& alphabet, Rng* rng) {
  Pattern p(t.symbols());
  std::vector<PatternNodeId> image(t.capacity(), kNullPatternNode);
  for (NodeId n : t.PreOrder()) {
    if (p.size() == size) break;
    Label label = t.label(n);
    if (rng->NextBool(0.02)) {
      label = alphabet[rng->NextBounded(alphabet.size())];
    }
    if (t.first_child(n) != kNullNode && rng->NextBool(0.05)) {
      label = kWildcardLabel;
    }
    if (n == t.root()) {
      image[n] = p.CreateRoot(label);
      continue;
    }
    const Axis axis = rng->NextBool(0.1) ? Axis::kDescendant : Axis::kChild;
    image[n] = p.AddChild(image[t.parent(n)], label, axis);
  }
  p.SetOutput(static_cast<PatternNodeId>(rng->NextBounded(p.size())));
  return p;
}

TEST(EvaluatorMultiWordTest, PatternsOver64NodesMatchEnumeration) {
  auto symbols = NewSymbols();
  Rng rng(4242);
  TreeGenOptions tree_options;
  tree_options.target_size = 150;
  tree_options.alphabet =
      RandomTreeGenerator::MakeAlphabet(symbols.get(), 60);
  RandomTreeGenerator trees(symbols, tree_options);
  size_t embedded = 0;
  size_t from_held = 0;
  for (int iter = 0; iter < 24; ++iter) {
    const Tree t = trees.Generate(&rng);
    const size_t size = std::min<size_t>(65 + rng.NextBounded(66), t.size());
    const Pattern p = PatternFromTree(t, size, tree_options.alphabet, &rng);
    ASSERT_GT(p.size(), 64u) << "iter=" << iter;
    bool truncated = false;
    const std::vector<Embedding> embeddings =
        EnumerateEmbeddings(p, t, 200000, &truncated);
    ASSERT_FALSE(truncated) << "iter=" << iter;
    std::set<NodeId> slow;
    for (const Embedding& e : embeddings) slow.insert(e[p.output()]);
    const std::vector<NodeId> fast = Evaluate(p, t);
    EXPECT_EQ(std::set<NodeId>(fast.begin(), fast.end()), slow)
        << "iter=" << iter;
    embedded += embeddings.empty() ? 0 : 1;
    ExpectAnchoredChecksMatchEnumeration(p, t);
    // Reading from a node: every ninth one, and nodes on both sides of
    // the first word boundary and the last node, in word >= 1.
    for (PatternNodeId q = 0; q < p.size(); ++q) {
      if (q % 9 == 0 || q == 63 || q == 64 || q + 1 == p.size()) {
        from_held += ExpectFromNodeMatchesSubpattern(p, q, t);
      }
    }
  }
  EXPECT_GT(from_held, 0u);
  // Both outcomes occur, so neither side of the comparison is vacuous.
  EXPECT_GT(embedded, 0u);
  EXPECT_LT(embedded, 24u);
}

}  // namespace
}  // namespace xmlup
