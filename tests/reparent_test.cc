#include "conflict/reparent.h"

#include "common/random.h"
#include "conflict/read_delete.h"
#include "eval/evaluator.h"
#include "conflict/read_insert.h"
#include "gtest/gtest.h"
#include "pattern/pattern_ops.h"
#include "tests/test_util.h"
#include "workload/pattern_generator.h"
#include "xml/tree_algos.h"

namespace xmlup {
namespace {

using testing_util::NewSymbols;
using testing_util::Xml;
using testing_util::Xp;

class ReparentTest : public ::testing::Test {
 protected:
  std::shared_ptr<SymbolTable> symbols_ = NewSymbols();
};

TEST_F(ReparentTest, ReparentBuildsAlphaChain) {
  // Chain r -> n1 -> n2 -> n3 -> n4 -> v ; reparent v w.r.t. r with k=1.
  Tree t(symbols_);
  NodeId n = t.CreateRoot(symbols_->Intern("r"));
  const NodeId u = n;
  for (int i = 0; i < 4; ++i) {
    n = t.AddChild(n, symbols_->Intern("n"));
  }
  const NodeId v = t.AddChild(n, symbols_->Intern("v"));
  const Label alpha = symbols_->Intern("ALPHA");
  const ReparentResult result = Reparent(t, u, v, /*k=*/1, alpha);
  ASSERT_TRUE(result.tree.Validate().ok());
  // v's subtree hangs under u behind k+1 = 2 alpha nodes; the old chain
  // remains (now without v).
  const NodeId new_v = result.mapping.at(v);
  EXPECT_EQ(result.tree.LabelName(new_v), "v");
  NodeId p = result.tree.parent(new_v);
  EXPECT_EQ(result.tree.LabelName(p), "ALPHA");
  p = result.tree.parent(p);
  EXPECT_EQ(result.tree.LabelName(p), "ALPHA");
  EXPECT_EQ(result.tree.parent(p), result.mapping.at(u));
  EXPECT_EQ(result.tree.size(), t.size() + 2);
}

TEST_F(ReparentTest, ReparentPreservesOtherSubtrees) {
  Tree t = Xml("<r><a><b><c><d><v><w/></v></d></c></b></a><q/></r>",
               symbols_);
  // Find v.
  NodeId v = kNullNode;
  for (NodeId n : t.PreOrder()) {
    if (t.LabelName(n) == "v") v = n;
  }
  ASSERT_NE(v, kNullNode);
  const ReparentResult result =
      Reparent(t, t.root(), v, /*k=*/0, symbols_->Intern("AL"));
  ASSERT_TRUE(result.tree.Validate().ok());
  // w survived under v.
  const NodeId new_v = result.mapping.at(v);
  EXPECT_EQ(result.tree.ChildCount(new_v), 1u);
  // The q sibling survived.
  bool has_q = false;
  for (NodeId n : result.tree.PreOrder()) {
    has_q |= result.tree.LabelName(n) == "q";
  }
  EXPECT_TRUE(has_q);
}

TEST_F(ReparentTest, Lemma9NoNewResults) {
  // Reparenting must not create result nodes that were not results before
  // (other than fresh alpha nodes) — Lemma 9.
  Tree t = Xml("<r><x><y><z><m><b/></m></z></y></x></r>", symbols_);
  const Pattern p = Xp("r//b", symbols_);
  NodeId b = kNullNode;
  for (NodeId n : t.PreOrder()) {
    if (t.LabelName(n) == "b") b = n;
  }
  const std::vector<NodeId> before = Evaluate(p, t);
  const ReparentResult result =
      Reparent(t, t.root(), b, StarLength(p), symbols_->Fresh("alpha"));
  const std::vector<NodeId> after = Evaluate(p, result.tree);
  for (NodeId n : after) {
    // Every result of the reparented tree maps back to an old result.
    bool is_old = false;
    for (NodeId old : before) {
      auto it = result.mapping.find(old);
      if (it != result.mapping.end() && it->second == n) is_old = true;
    }
    EXPECT_TRUE(is_old);
  }
}

TEST_F(ReparentTest, ShrinkInsertWitnessPreservesConflict) {
  // Build a conflict witness, inflate it with junk, shrink it back.
  const Pattern read = Xp("x//C", symbols_);
  const Pattern ins = Xp("x/B", symbols_);
  Tree x = Xml("<C/>", symbols_);
  // Inflated witness: long chains and irrelevant branches around x/B.
  Tree w = Xml(
      "<x>"
      "<junk><junk><junk/></junk></junk>"
      "<B><deep><deep><deep><deep/></deep></deep></deep></B>"
      "<noise/>"
      "</x>",
      symbols_);
  ASSERT_TRUE(IsReadInsertWitness(read, ins, x, w, ConflictSemantics::kNode));
  Result<Tree> shrunk = ShrinkReadInsertWitness(read, ins, x, w);
  ASSERT_TRUE(shrunk.ok()) << shrunk.status();
  EXPECT_LE(shrunk->size(), w.size());
  EXPECT_TRUE(
      IsReadInsertWitness(read, ins, x, *shrunk, ConflictSemantics::kNode));
  // The junk subtrees are gone: only the root and the B path remain.
  EXPECT_LE(shrunk->size(), 2u);
}

TEST_F(ReparentTest, ShrinkDeleteWitnessPreservesConflict) {
  const Pattern read = Xp("a//b", symbols_);
  const Pattern del = Xp("a//c", symbols_);
  Tree w = Xml(
      "<a><pad><pad/></pad>"
      "<c><mid><mid><mid><b/></mid></mid></mid></c></a>",
      symbols_);
  ASSERT_TRUE(IsReadDeleteWitness(read, del, w, ConflictSemantics::kNode));
  Result<Tree> shrunk = ShrinkReadDeleteWitness(read, del, w);
  ASSERT_TRUE(shrunk.ok()) << shrunk.status();
  EXPECT_LE(shrunk->size(), w.size());
  EXPECT_TRUE(
      IsReadDeleteWitness(read, del, *shrunk, ConflictSemantics::kNode));
}

TEST_F(ReparentTest, RepeatedShrinksDoNotGrowTheSymbolTable) {
  // Both witnesses have an unmarked stretch long enough to be reparented
  // behind a chain of the shrink's unused label.
  const Pattern read = Xp("a//b", symbols_);
  const Pattern del = Xp("a//c", symbols_);
  const Tree w = Xml("<a><c><mid><mid><mid><b/></mid></mid></mid></c></a>",
                     symbols_);
  const Pattern ins = Xp("a//c", symbols_);
  const Tree x = Xml("<d/>", symbols_);
  const Pattern read_ins = Xp("a//c//d", symbols_);
  const Tree w_ins =
      Xml("<a><mid><mid><mid><mid><c/></mid></mid></mid></mid></a>", symbols_);
  ASSERT_TRUE(ShrinkReadDeleteWitness(read, del, w).ok());
  ASSERT_TRUE(ShrinkReadInsertWitness(read_ins, ins, x, w_ins).ok());
  const size_t symbols = symbols_->size();
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(ShrinkReadDeleteWitness(read, del, w).ok());
    ASSERT_TRUE(ShrinkReadInsertWitness(read_ins, ins, x, w_ins).ok());
  }
  EXPECT_EQ(symbols_->size(), symbols);
}

TEST_F(ReparentTest, InputUsingTheReservedChainLabelStillShrinks) {
  // The read selects nodes carrying the reserved chain name; a chain of
  // that label would add read results, so the shrink must pick another.
  const Label reserved = symbols_->Reserved("chain");
  Pattern read(symbols_);
  read.SetOutput(read.AddChild(read.CreateRoot(symbols_->Intern("a")),
                               reserved, Axis::kDescendant));
  const Pattern del = Xp("a//c", symbols_);
  Tree w = Xml("<a><c><mid><mid><mid><mid/></mid></mid></mid></c></a>",
               symbols_);
  NodeId leaf = w.root();
  while (w.first_child(leaf) != kNullNode) leaf = w.first_child(leaf);
  w.AddChild(leaf, reserved);
  ASSERT_TRUE(IsReadDeleteWitness(read, del, w, ConflictSemantics::kNode));
  Result<Tree> shrunk = ShrinkReadDeleteWitness(read, del, w);
  ASSERT_TRUE(shrunk.ok()) << shrunk.status();
  EXPECT_LT(shrunk->size(), w.size());
  EXPECT_TRUE(
      IsReadDeleteWitness(read, del, *shrunk, ConflictSemantics::kNode));
  EXPECT_EQ(Evaluate(read, *shrunk).size(), 1u);
}

TEST_F(ReparentTest, ChainLabelAvoidsTheWitnessLabels) {
  // Only the witness carries the reserved chain name, on the stretch the
  // shrink bypasses: the chain it adds must use another label.
  const Label reserved = symbols_->Reserved("chain");
  const Pattern read = Xp("a//b", symbols_);
  const Pattern del = Xp("a//c", symbols_);
  Tree w = Xml("<a><c/></a>", symbols_);
  NodeId n = w.AddChild(w.first_child(w.root()), reserved);
  for (int i = 0; i < 3; ++i) n = w.AddChild(n, symbols_->Intern("mid"));
  w.AddChild(n, symbols_->Intern("b"));
  Result<Tree> shrunk = ShrinkReadDeleteWitness(read, del, w);
  ASSERT_TRUE(shrunk.ok()) << shrunk.status();
  EXPECT_TRUE(
      IsReadDeleteWitness(read, del, *shrunk, ConflictSemantics::kNode));
  for (NodeId m : shrunk->PreOrder()) EXPECT_NE(shrunk->label(m), reserved);
  // The insert shrink, with the name on the stretch above the insertion
  // point.
  const Pattern read_ins = Xp("a//c//d", symbols_);
  const Pattern ins = Xp("a//c", symbols_);
  const Tree x = Xml("<d/>", symbols_);
  Tree w_ins(symbols_);
  NodeId m = w_ins.AddChild(w_ins.CreateRoot(symbols_->Intern("a")), reserved);
  for (int i = 0; i < 3; ++i) m = w_ins.AddChild(m, symbols_->Intern("mid"));
  w_ins.AddChild(m, symbols_->Intern("c"));
  shrunk = ShrinkReadInsertWitness(read_ins, ins, x, w_ins);
  ASSERT_TRUE(shrunk.ok()) << shrunk.status();
  EXPECT_TRUE(IsReadInsertWitness(read_ins, ins, x, *shrunk,
                                  ConflictSemantics::kNode));
  for (NodeId k : shrunk->PreOrder()) EXPECT_NE(shrunk->label(k), reserved);
}

TEST_F(ReparentTest, ShrinkRejectsNonWitness) {
  const Pattern read = Xp("a//b", symbols_);
  const Pattern del = Xp("a//zz", symbols_);
  Tree w = Xml("<a><b/></a>", symbols_);
  Result<Tree> shrunk = ShrinkReadDeleteWitness(read, del, w);
  EXPECT_FALSE(shrunk.ok());
  EXPECT_EQ(shrunk.status().code(), StatusCode::kInvalidArgument);
}

/// Property sweep: take detector-produced witnesses, inflate them with
/// long chains, shrink, and check the result is a verified witness within
/// the paper's size ballpark (Lemma 11).
class ShrinkPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ShrinkPropertyTest, ShrunkenWitnessesStaySmallAndValid) {
  auto symbols = NewSymbols();
  Rng rng(12000 + GetParam());
  PatternGenOptions options;
  options.size = 3;
  options.alphabet = {symbols->Intern("a"), symbols->Intern("b")};
  RandomPatternGenerator gen(symbols, options);

  for (int iter = 0; iter < 10; ++iter) {
    const Pattern read = gen.GenerateLinear(&rng);
    const Pattern del = gen.GenerateLinear(&rng);
    if (del.output() == del.root()) continue;
    Result<ConflictReport> detect = DetectLinearReadDeleteConflict(
        read, del, ConflictSemantics::kNode);
    ASSERT_TRUE(detect.ok());
    if (!detect->conflict()) continue;

    // Inflate: hang random chains off every node of the witness.
    Tree inflated = CopyTree(*detect->witness);
    const Label pad = symbols->Intern("pad");
    for (NodeId n : inflated.PreOrder()) {
      NodeId at = n;
      const size_t chain = rng.NextBounded(4);
      for (size_t i = 0; i < chain; ++i) at = inflated.AddChild(at, pad);
    }
    if (!IsReadDeleteWitness(read, del, inflated,
                             ConflictSemantics::kNode)) {
      // Padding with fresh-labeled nodes cannot remove results, but if
      // wildcard deletes now fire differently, skip this case.
      continue;
    }
    Result<Tree> shrunk = ShrinkReadDeleteWitness(read, del, inflated);
    ASSERT_TRUE(shrunk.ok()) << shrunk.status() << " seed=" << GetParam();
    EXPECT_TRUE(
        IsReadDeleteWitness(read, del, *shrunk, ConflictSemantics::kNode));
    const size_t bound =
        read.size() * del.size() * (StarLength(read) + 3) + read.size();
    EXPECT_LE(shrunk->size(), bound) << "seed=" << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ShrinkPropertyTest, ::testing::Range(0, 8));

}  // namespace
}  // namespace xmlup
