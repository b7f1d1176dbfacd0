#include "conflict/witness_build.h"

#include <utility>

#include "eval/evaluator.h"
#include "gtest/gtest.h"
#include "pattern/pattern_ops.h"
#include "tests/test_util.h"

namespace xmlup {
namespace {

using testing_util::NewSymbols;
using testing_util::Xp;

class WitnessBuildTest : public ::testing::Test {
 protected:
  std::shared_ptr<SymbolTable> symbols_ = NewSymbols();
};

TEST_F(WitnessBuildTest, MatchWordToPathResolvesClasses) {
  const ClassWord word = {LabelClass::Of(symbols_->Intern("a")),
                          LabelClass::Any(),
                          LabelClass::Of(symbols_->Intern("b"))};
  NodeId deepest = kNullNode;
  const Label filler = symbols_->Reserved("wfill");
  Tree path = MatchWordToPath(word, symbols_, filler, &deepest);
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path.LabelName(path.root()), "a");
  EXPECT_EQ(path.LabelName(deepest), "b");
  // The Any position resolved to the filler, not to a or b.
  const NodeId middle = path.first_child(path.root());
  EXPECT_EQ(path.label(middle), filler);
  EXPECT_EQ(path.first_child(deepest), kNullNode);
}

TEST_F(WitnessBuildTest, UnusedLabelIsReservedUnlessAnInputUsesIt) {
  const Pattern read = Xp("a//b", symbols_);
  const Pattern update = Xp("a/*", symbols_);
  const Label reserved = symbols_->Reserved("wfill");
  const size_t before = symbols_->size();
  // Repeated witnesses share the reserved label: the table does not grow.
  EXPECT_EQ(UnusedLabel("wfill", read, update, nullptr), reserved);
  EXPECT_EQ(UnusedLabel("wfill", read, update, nullptr), reserved);
  EXPECT_EQ(symbols_->size(), before);
  // Content that carries the reserved label gets a fresh one instead.
  Tree content(symbols_);
  content.CreateRoot(reserved);
  const Label fallback = UnusedLabel("wfill", read, update, &content);
  EXPECT_NE(fallback, reserved);
  EXPECT_NE(fallback, symbols_->Intern("a"));
  EXPECT_NE(fallback, symbols_->Intern("b"));
  // Distinct prefixes reserve distinct labels.
  EXPECT_NE(UnusedLabel("mfill", read, update, nullptr), reserved);
}

TEST_F(WitnessBuildTest, BranchModelsMakeFullPatternEmbed) {
  // The mainline of a[x][.//y]/b embeds into the path a/b; after grafting
  // branch models everywhere, the full pattern must embed too (the
  // Lemma 4/8 extension step).
  const Pattern full = Xp("a[x][.//y]/b", symbols_);
  Tree path(symbols_);
  const NodeId root = path.CreateRoot(symbols_->Intern("a"));
  path.AddChild(root, symbols_->Intern("b"));
  EXPECT_FALSE(HasEmbedding(full, path));  // predicates unsatisfied
  GraftBranchModelsEverywhere(&path, full);
  EXPECT_TRUE(HasEmbedding(full, path));
  EXPECT_TRUE(path.Validate().ok());
}

TEST_F(WitnessBuildTest, LinearPatternGraftsNothing) {
  const Pattern linear = Xp("a/b//c", symbols_);
  Tree path(symbols_);
  path.CreateRoot(symbols_->Intern("a"));
  const size_t before = path.size();
  GraftBranchModelsEverywhere(&path, linear);
  EXPECT_EQ(path.size(), before);
}

TEST_F(WitnessBuildTest, DeepBranchSubtreesCopiedWhole) {
  // Branches may themselves branch; the grafted model carries the whole
  // subpattern.
  const Pattern full = Xp("a[x[y][z]]/b", symbols_);
  Tree path(symbols_);
  const NodeId root = path.CreateRoot(symbols_->Intern("a"));
  path.AddChild(root, symbols_->Intern("b"));
  GraftBranchModelsEverywhere(&path, full);
  EXPECT_TRUE(HasEmbedding(full, path));
  // Each original node gained one branch model of 3 nodes (x, y, z).
  EXPECT_EQ(path.size(), 2u + 2u * 3u);
}

TEST_F(WitnessBuildTest, FinishDrawsTheUniqLabelOnlyOnFallback) {
  // The delete a[uniq$]/b uses the reserved Lemma 2 label, so drawing it
  // would mint a fresh symbol. The path a/b already witnesses the node
  // conflict once the branch model is grafted, so nothing is drawn.
  const Pattern read = Xp("a/b", symbols_);
  Pattern del(symbols_);
  const PatternNodeId root = del.CreateRoot(symbols_->Intern("a"));
  del.AddChild(root, symbols_->Reserved("uniq"), Axis::kChild);
  del.SetOutput(del.AddChild(root, symbols_->Intern("b"), Axis::kChild));
  Tree path(symbols_);
  path.AddChild(path.CreateRoot(symbols_->Intern("a")),
                symbols_->Intern("b"));
  symbols_->Reserved("bfill");  // the branch models' filler, interned once
  const size_t before = symbols_->size();
  Result<Tree> witness = FinishLinearWitness(
      std::move(path), read, del, /*content=*/nullptr,
      ConflictSemantics::kNode);
  ASSERT_TRUE(witness.ok()) << witness.status();
  EXPECT_TRUE(IsReadDeleteWitness(read, del, *witness,
                                  ConflictSemantics::kNode));
  EXPECT_EQ(symbols_->size(), before);
}

TEST_F(WitnessBuildTest, FinishReportsATreeThatNeverWitnesses) {
  // a/c deletes nothing a/b selects: no upgrade helps, which the linear
  // detectors would only hit through a library bug.
  const Pattern read = Xp("a/b", symbols_);
  const Pattern del = Xp("a/c", symbols_);
  Tree path(symbols_);
  path.AddChild(path.CreateRoot(symbols_->Intern("a")),
                symbols_->Intern("b"));
  Result<Tree> witness = FinishLinearWitness(
      std::move(path), read, del, /*content=*/nullptr,
      ConflictSemantics::kValue);
  ASSERT_FALSE(witness.ok());
  EXPECT_EQ(witness.status().code(), StatusCode::kInternal);
}

}  // namespace
}  // namespace xmlup
