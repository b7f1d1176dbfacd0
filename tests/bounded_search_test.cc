#include "conflict/bounded_search.h"

#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "eval/embedding_enumerator.h"
#include "eval/evaluator.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "tests/test_util.h"
#include "workload/pattern_generator.h"
#include "workload/tree_generator.h"
#include "xml/isomorphism.h"
#include "xml/tree_algos.h"

namespace xmlup {
namespace {

using testing_util::NewSymbols;
using testing_util::Xml;
using testing_util::Xp;

class TreeEnumeratorTest : public ::testing::Test {
 protected:
  std::shared_ptr<SymbolTable> symbols_ = NewSymbols();

  std::vector<Label> Alphabet(size_t n) {
    std::vector<Label> a;
    for (size_t i = 0; i < n; ++i) {
      a.push_back(symbols_->Intern(std::string(1, 'a' + i)));
    }
    return a;
  }
};

TEST_F(TreeEnumeratorTest, CountsUnlabeledTrees) {
  // With a single label, tree counts are the numbers of unordered rooted
  // trees: 1, 1, 2, 4, 9, 20, 48 (OEIS A000081 partial sums below).
  const uint64_t expected_cumulative[] = {1, 2, 4, 8, 17, 37, 85};
  for (size_t n = 1; n <= 7; ++n) {
    TreeEnumerator e(symbols_, Alphabet(1), n);
    EXPECT_FALSE(e.truncated());
    EXPECT_EQ(e.count(), expected_cumulative[n - 1]) << "max_nodes=" << n;
  }
}

TEST_F(TreeEnumeratorTest, CountsLabeledTrees) {
  // Two labels: t(1)=2, t(2)=4, t(3)=14 → cumulative 2, 6, 20.
  TreeEnumerator e1(symbols_, Alphabet(2), 1);
  EXPECT_EQ(e1.count(), 2u);
  TreeEnumerator e2(symbols_, Alphabet(2), 2);
  EXPECT_EQ(e2.count(), 6u);
  TreeEnumerator e3(symbols_, Alphabet(2), 3);
  EXPECT_EQ(e3.count(), 20u);
}

TEST_F(TreeEnumeratorTest, NoIsomorphicDuplicates) {
  TreeEnumerator e(symbols_, Alphabet(2), 4);
  std::set<std::string> codes;
  size_t visited = 0;
  e.Enumerate([&](const Tree& t) {
    ++visited;
    EXPECT_TRUE(t.Validate().ok());
    EXPECT_LE(t.size(), 4u);
    const std::string code = CanonicalCode(t);
    EXPECT_TRUE(codes.insert(code).second) << "duplicate: " << code;
    return true;
  });
  EXPECT_EQ(visited, e.count());
}

TEST_F(TreeEnumeratorTest, EarlyStop) {
  TreeEnumerator e(symbols_, Alphabet(2), 4);
  size_t visited = 0;
  const bool completed = e.Enumerate([&](const Tree&) {
    return ++visited < 5;
  });
  EXPECT_FALSE(completed);
  EXPECT_EQ(visited, 5u);
}

TEST_F(TreeEnumeratorTest, CapTruncatesGeneration) {
  TreeEnumerator e(symbols_, Alphabet(2), 6, /*max_shapes=*/10);
  EXPECT_TRUE(e.truncated());
  EXPECT_LE(e.count(), 10u);
}

class BruteForceTest : public ::testing::Test {
 protected:
  std::shared_ptr<SymbolTable> symbols_ = NewSymbols();
};

TEST_F(BruteForceTest, FindsKnownInsertConflict) {
  BoundedSearchOptions options;
  options.max_nodes = 3;
  Tree x = Xml("<C/>", symbols_);
  const BruteForceResult r = BruteForceReadInsertSearch(
      Xp("x//C", symbols_), Xp("x/B", symbols_), x,
      ConflictSemantics::kNode, options);
  ASSERT_EQ(r.outcome, SearchOutcome::kWitnessFound);
  ASSERT_TRUE(r.witness.has_value());
  EXPECT_TRUE(IsReadInsertWitness(Xp("x//C", symbols_), Xp("x/B", symbols_),
                                  x, *r.witness, ConflictSemantics::kNode));
  EXPECT_GT(r.trees_checked, 0u);
}

TEST_F(BruteForceTest, ExhaustsWithoutWitnessWhenNoConflict) {
  BoundedSearchOptions options;
  options.max_nodes = 4;
  Tree x = Xml("<C/>", symbols_);
  const BruteForceResult r = BruteForceReadInsertSearch(
      Xp("x//D", symbols_), Xp("x/B", symbols_), x,
      ConflictSemantics::kNode, options);
  EXPECT_EQ(r.outcome, SearchOutcome::kExhaustedNoWitness);
  EXPECT_FALSE(r.witness.has_value());
}

TEST_F(BruteForceTest, FindsKnownDeleteConflict) {
  BoundedSearchOptions options;
  options.max_nodes = 3;
  const BruteForceResult r = BruteForceReadDeleteSearch(
      Xp("a//b", symbols_), Xp("a//c", symbols_), ConflictSemantics::kNode,
      options);
  ASSERT_EQ(r.outcome, SearchOutcome::kWitnessFound);
  EXPECT_TRUE(IsReadDeleteWitness(Xp("a//b", symbols_), Xp("a//c", symbols_),
                                  *r.witness, ConflictSemantics::kNode));
}

TEST_F(BruteForceTest, BudgetExceededIsReported) {
  BoundedSearchOptions options;
  options.max_nodes = 8;
  options.max_trees = 50;  // far too small to exhaust
  const BruteForceResult r = BruteForceReadDeleteSearch(
      Xp("a/q", symbols_), Xp("a/z", symbols_), ConflictSemantics::kNode,
      options);
  EXPECT_EQ(r.outcome, SearchOutcome::kBudgetExceeded);
}

TEST_F(BruteForceTest, TruncationSetsFlagAndBudgetExceeded) {
  // Regression (soundness audit): a truncated enumeration must surface as
  // kBudgetExceeded with truncated == true, never as exhaustion.
  BoundedSearchOptions options;
  options.max_nodes = 8;
  options.max_trees = 5;  // forces TreeEnumerator::truncated()
  const BruteForceResult r = BruteForceReadDeleteSearch(
      Xp("a/q", symbols_), Xp("a/z", symbols_), ConflictSemantics::kNode,
      options);
  EXPECT_EQ(r.outcome, SearchOutcome::kBudgetExceeded);
  EXPECT_TRUE(r.truncated);
  EXPECT_FALSE(r.witness.has_value());
}

TEST_F(BruteForceTest, CompletedSearchIsNotTruncated) {
  BoundedSearchOptions options;
  options.max_nodes = 4;
  const BruteForceResult r = BruteForceReadInsertSearch(
      Xp("x//D", symbols_), Xp("x/B", symbols_), Xml("<C/>", symbols_),
      ConflictSemantics::kNode, options);
  EXPECT_EQ(r.outcome, SearchOutcome::kExhaustedNoWitness);
  EXPECT_FALSE(r.truncated);
}

TEST_F(BruteForceTest, PaperWitnessBound) {
  const Pattern read = Xp("a/*/*/b", symbols_);  // |R|=4, star length 2
  const Pattern ins = Xp("c//d", symbols_);      // |I|=2
  EXPECT_EQ(PaperWitnessBound(read, ins), 4u * 2u * 3u);
}

TEST_F(BruteForceTest, BranchingPatternsSupported) {
  // The NP-side search handles branching reads the PTIME detectors reject.
  BoundedSearchOptions options;
  options.max_nodes = 4;
  Tree x = Xml("<g/>", symbols_);
  const BruteForceResult r = BruteForceReadInsertSearch(
      Xp("a[b][g]", symbols_), Xp("a[b]/b", symbols_), x,
      ConflictSemantics::kNode, options);
  // Inserting g under b gives the root both a b child and ... g is at
  // depth 2, not a child of a: no node conflict from this insert.
  // (The point of this test: the search exhausts without crashing.)
  EXPECT_NE(r.outcome, SearchOutcome::kBudgetExceeded);
}

TEST_F(BruteForceTest, BranchingReadConflictFound) {
  // read a[c] (root with c child) vs insert X=<c/> under a: inserting a c
  // child makes the read return the root where it previously did not.
  BoundedSearchOptions options;
  options.max_nodes = 3;
  Tree x = Xml("<c/>", symbols_);
  Pattern read(symbols_);
  const PatternNodeId root = read.CreateRoot(symbols_->Intern("a"));
  read.AddChild(root, symbols_->Intern("c"), Axis::kChild);
  read.SetOutput(root);
  Pattern ins = Xp("a", symbols_);
  const BruteForceResult r = BruteForceReadInsertSearch(
      read, ins, x, ConflictSemantics::kNode, options);
  ASSERT_EQ(r.outcome, SearchOutcome::kWitnessFound);
  EXPECT_TRUE(IsReadInsertWitness(read, ins, x, *r.witness,
                                  ConflictSemantics::kNode));
}

// --- Shape table, pattern masks and the filtered search -------------------

uint64_t ShapeTableBuilds() {
  return obs::MetricsRegistry::Default()
      .GetCounter("bounded_search.shape_table_builds")
      .value();
}

/// Hand-written patterns over {a, b, c} plus `z`, a label no shape carries.
std::vector<Pattern> HandPatterns(const std::shared_ptr<SymbolTable>& s) {
  std::vector<Pattern> patterns;
  for (const char* xpath :
       {"a", "*", "a/b", "a//b", "*/*", "*//*", "a/b/c", "a//b//c", "a[b]/c",
        "a[b][c]", "a[.//c]/b", "*[a][b]//c", "a[b[c]]", "b[*/*]", "a/z",
        "z", "a[z]//b", "*[*][*]", "a[b/c][b//c]", "c//*[a]"}) {
    patterns.push_back(Xp(xpath, s));
  }
  return patterns;
}

/// Seeded random patterns with wildcards, descendant edges and branches.
std::vector<Pattern> RandomPatterns(const std::shared_ptr<SymbolTable>& s,
                                    size_t count, uint64_t seed) {
  PatternGenOptions options;
  options.size = 4;
  options.wildcard_prob = 0.25;
  options.descendant_prob = 0.4;
  options.branch_prob = 0.4;
  options.alphabet = {s->Intern("a"), s->Intern("b"), s->Intern("c"),
                      s->Intern("z")};
  const RandomPatternGenerator generator(s, options);
  Rng rng(seed);
  std::vector<Pattern> patterns;
  for (size_t i = 0; i < count; ++i) {
    patterns.push_back(i % 2 == 0 ? generator.GenerateBranching(&rng)
                                   : generator.GenerateLinear(&rng));
  }
  return patterns;
}

TEST_F(TreeEnumeratorTest, MaskRootBitEqualsHasEmbedding) {
  std::vector<Pattern> patterns = HandPatterns(symbols_);
  for (Pattern& p : RandomPatterns(symbols_, 40, 1301)) {
    patterns.push_back(std::move(p));
  }
  for (size_t k = 1; k <= 3; ++k) {
    const std::vector<Label> alphabet = Alphabet(k);
    for (size_t n = 1; n <= 5; ++n) {
      const std::shared_ptr<const ShapeTable> table =
          ShapeTable::Get(k, n, 4'000'000);
      ASSERT_FALSE(table->truncated());
      for (const Pattern& p : patterns) {
        const std::vector<uint64_t> masks =
            ShapeMatchMasks(*table, alphabet, p);
        ASSERT_EQ(masks.size(), table->size());
        for (uint32_t s = 0; s < table->size(); ++s) {
          const Tree t = table->Materialize(s, symbols_, alphabet);
          ASSERT_EQ((masks[s] & 1) != 0, HasEmbedding(p, t))
              << "k=" << k << " n=" << n << " shape " << CanonicalCode(t);
        }
      }
    }
  }
}

/// XPath of `root` with `count` copies of the predicate `[step]`.
std::string Repeated(const std::string& root, const std::string& step,
                     int count) {
  std::string xpath = root;
  for (int i = 0; i < count; ++i) xpath += "[" + step + "]";
  return xpath;
}

TEST_F(TreeEnumeratorTest, FusedPassEqualsConjunctionOfRootBits) {
  std::vector<Pattern> patterns = HandPatterns(symbols_);
  for (Pattern& p : RandomPatterns(symbols_, 40, 1733)) {
    patterns.push_back(std::move(p));
  }
  const size_t small = patterns.size();
  // Over 64 nodes in total, and singly: 41 + 31 + 71 nodes.
  patterns.push_back(Xp(Repeated("a", "b", 40), symbols_));
  patterns.push_back(Xp(Repeated("*", ".//c", 30), symbols_));
  patterns.push_back(Xp(Repeated("a", "*", 70), symbols_));
  std::vector<std::vector<const Pattern*>> sets;
  for (size_t i = 0; i + 2 < small; ++i) {
    sets.push_back({&patterns[i], &patterns[i + 1]});
    sets.push_back({&patterns[i], &patterns[i + 1], &patterns[i + 2]});
  }
  const Pattern* big[] = {&patterns[small], &patterns[small + 1],
                          &patterns[small + 2]};
  sets.push_back({big[0], big[1]});
  sets.push_back({big[2]});
  sets.push_back({big[0], &patterns[0], big[1], &patterns[2]});
  sets.push_back({big[0], big[1], big[2]});
  sets.push_back({});
  // Roots past the first word: each small pattern's root is bit 71.
  for (size_t i = 0; i < small; ++i) sets.push_back({big[2], &patterns[i]});
  size_t checked = 0;
  size_t accepted = 0;
  size_t big_accepted = 0;
  for (size_t k = 1; k <= 3; ++k) {
    const std::vector<Label> alphabet = Alphabet(k);
    const std::shared_ptr<const ShapeTable> table =
        ShapeTable::Get(k, 5, 4'000'000);
    ASSERT_FALSE(table->truncated());
    // Per pattern: its root bit on every shape, from the one-pattern pass
    // where it fits a word, else from the reference enumerator on the
    // built shape.
    std::vector<std::vector<bool>> root_bit(patterns.size());
    for (size_t i = 0; i < patterns.size(); ++i) {
      const Pattern& p = patterns[i];
      std::vector<uint64_t> masks;
      if (p.size() <= 64) masks = ShapeMatchMasks(*table, alphabet, p);
      for (uint32_t s = 0; s < table->size(); ++s) {
        root_bit[i].push_back(
            p.size() <= 64
                ? (masks[s] & 1) != 0
                : !EnumerateEmbeddings(
                       p, table->Materialize(s, symbols_, alphabet), 1)
                       .empty());
      }
    }
    for (const std::vector<const Pattern*>& set : sets) {
      const std::vector<char> fused =
          ShapesEmbeddingAll(*table, alphabet, set);
      ASSERT_EQ(fused.size(), table->size());
      size_t total = 0;
      for (const Pattern* p : set) total += p->size();
      for (uint32_t s = 0; s < table->size(); ++s) {
        bool all = true;
        for (const Pattern* p : set) {
          all = all && root_bit[p - patterns.data()][s];
        }
        ASSERT_EQ(fused[s] != 0, all)
            << "k=" << k << " set of " << set.size() << " patterns, "
            << total << " nodes, shape "
            << CanonicalCode(table->Materialize(s, symbols_, alphabet));
        ++checked;
        accepted += all;
        big_accepted += all && total > 64;
      }
    }
  }
  // The filter both passes and rejects shapes, also for the wide sets.
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, checked);
  EXPECT_GT(big_accepted, 0u);
}

TEST_F(TreeEnumeratorTest, TablesAreSharedPerKey) {
  const std::shared_ptr<const ShapeTable> first = ShapeTable::Get(3, 4, 977);
  const uint64_t builds = ShapeTableBuilds();
  const std::shared_ptr<const ShapeTable> second = ShapeTable::Get(3, 4, 977);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(ShapeTableBuilds(), builds);
  // Another key is another table.
  EXPECT_NE(ShapeTable::Get(3, 3, 977).get(), first.get());
}

TEST_F(TreeEnumeratorTest, OverBudgetTableIsNotRetained) {
  const uint64_t cap = ShapeTable::kMaxCachedShapes + 1;
  const uint64_t builds = ShapeTableBuilds();
  const std::shared_ptr<const ShapeTable> first = ShapeTable::Get(2, 12, cap);
  const std::shared_ptr<const ShapeTable> second = ShapeTable::Get(2, 12, cap);
  EXPECT_NE(first.get(), second.get());
  EXPECT_EQ(ShapeTableBuilds(), builds + 2);
  EXPECT_EQ(first->size(), cap);
  EXPECT_TRUE(first->truncated());
}

TEST_F(TreeEnumeratorTest, CachedTruncatedTableEqualsFreshBuild) {
  for (uint64_t cap : {1u, 10u, 37u}) {
    const std::shared_ptr<const ShapeTable> cached = ShapeTable::Get(2, 6, cap);
    const ShapeTable fresh(2, 6, cap);
    EXPECT_TRUE(cached->truncated());
    EXPECT_EQ(cached->truncated(), fresh.truncated());
    ASSERT_EQ(cached->size(), fresh.size());
    EXPECT_EQ(cached->size(), cap);
    for (uint32_t s = 0; s < fresh.size(); ++s) {
      EXPECT_EQ(cached->label(s), fresh.label(s));
      EXPECT_TRUE(std::ranges::equal(cached->children(s), fresh.children(s)));
    }
  }
}

/// One (read, update) pair of the search oracle.
struct SearchCase {
  Pattern read;
  Pattern update;
  std::shared_ptr<const Tree> content;  // null for deletes
  ConflictSemantics semantics;
  BoundedSearchOptions options;
};

std::vector<SearchCase> SeededSearchCases(
    const std::shared_ptr<SymbolTable>& symbols, uint64_t max_trees) {
  const std::vector<Label> alphabet =
      RandomTreeGenerator::MakeAlphabet(symbols.get(), 3);
  PatternGenOptions pattern_options;
  pattern_options.size = 4;
  pattern_options.wildcard_prob = 0.2;
  pattern_options.descendant_prob = 0.4;
  pattern_options.alphabet = alphabet;
  TreeGenOptions content_options;
  content_options.target_size = 3;
  content_options.alphabet = alphabet;
  const RandomPatternGenerator patterns(symbols, pattern_options);
  const RandomTreeGenerator contents(symbols, content_options);
  Rng rng(2027);
  std::vector<SearchCase> cases;
  for (int i = 0; i < 16; ++i) {
    for (ConflictSemantics semantics :
         {ConflictSemantics::kNode, ConflictSemantics::kTree,
          ConflictSemantics::kValue}) {
      BoundedSearchOptions options;
      options.max_nodes = 4;
      // Every fourth pair runs under a cap that truncates the table.
      options.max_trees = i % 4 == 3 ? 60 : max_trees;
      const bool insert = i % 2 == 0;
      Pattern read = patterns.GenerateBranching(&rng);
      Pattern update = insert ? patterns.GenerateBranching(&rng)
                              : patterns.GenerateBranchingNonRootOutput(&rng);
      std::shared_ptr<const Tree> content =
          insert ? std::make_shared<const Tree>(contents.Generate(&rng))
                 : nullptr;
      cases.push_back({std::move(read), std::move(update), std::move(content),
                       semantics, options});
    }
  }
  return cases;
}

BruteForceResult FilteredSearch(const SearchCase& c) {
  return c.content != nullptr
             ? BruteForceReadInsertSearch(c.read, c.update, *c.content,
                                          c.semantics, c.options)
             : BruteForceReadDeleteSearch(c.read, c.update, c.semantics,
                                          c.options);
}

/// The unfiltered loop: every enumerated tree goes to the Lemma 1 checker.
BruteForceResult ReferenceSearch(const SearchCase& c) {
  const std::shared_ptr<SymbolTable>& symbols = c.read.symbols();
  const std::set<Label> labels = LabelsOf({&c.read, &c.update});
  const std::set<Label> inputs =
      c.content != nullptr ? LabelsOf({&c.read, &c.update}, {c.content.get()})
                           : labels;
  TreeEnumerator enumerator(
      symbols,
      SearchAlphabet(*symbols, labels, inputs, c.options.extra_labels),
      c.options.max_nodes, c.options.max_trees);
  BruteForceResult result;
  const bool completed = enumerator.Enumerate([&](const Tree& t) {
    ++result.trees_checked;
    const bool witness =
        c.content != nullptr
            ? IsReadInsertWitness(c.read, c.update, *c.content, t, c.semantics)
            : IsReadDeleteWitness(c.read, c.update, t, c.semantics);
    if (!witness) return true;
    result.outcome = SearchOutcome::kWitnessFound;
    result.witness = CopyTree(t);
    return false;
  });
  result.truncated = enumerator.truncated();
  if (!result.witness.has_value()) {
    result.outcome = completed && !result.truncated
                         ? SearchOutcome::kExhaustedNoWitness
                         : SearchOutcome::kBudgetExceeded;
  }
  return result;
}

std::string Summary(const BruteForceResult& r) {
  return std::to_string(static_cast<int>(r.outcome)) + " checked=" +
         std::to_string(r.trees_checked) +
         " truncated=" + std::to_string(r.truncated) + " witness=" +
         (r.witness.has_value() ? CanonicalCode(*r.witness) : "-");
}

TEST_F(BruteForceTest, FilteredSearchEqualsUnfilteredReference) {
  size_t witnesses = 0;
  size_t exhausted = 0;
  size_t truncated = 0;
  for (const SearchCase& c : SeededSearchCases(symbols_, 2'000'000)) {
    const BruteForceResult filtered = FilteredSearch(c);
    EXPECT_EQ(Summary(filtered), Summary(ReferenceSearch(c)));
    witnesses += filtered.outcome == SearchOutcome::kWitnessFound;
    exhausted += filtered.outcome == SearchOutcome::kExhaustedNoWitness;
    truncated += filtered.truncated;
  }
  // The seeded pairs reach every outcome.
  EXPECT_GT(witnesses, 0u);
  EXPECT_GT(exhausted, 0u);
  EXPECT_GT(truncated, 0u);
}

TEST_F(BruteForceTest, ConcurrentSearchesMatchSerialResults) {
  // A cap no other test uses, so the threads race on cold cache keys.
  const std::vector<SearchCase> cases = SeededSearchCases(symbols_, 1'999'993);
  std::vector<std::vector<std::string>> by_thread(8);
  std::vector<std::thread> threads;
  for (std::vector<std::string>& out : by_thread) {
    threads.emplace_back([&cases, &out] {
      for (const SearchCase& c : cases) {
        out.push_back(Summary(FilteredSearch(c)));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<std::string> serial;
  for (const SearchCase& c : cases) {
    serial.push_back(Summary(FilteredSearch(c)));
  }
  for (const std::vector<std::string>& out : by_thread) EXPECT_EQ(out, serial);
}

TEST_F(BruteForceTest, ExtraLabelsAreDistinctAndUnusedByTheInputs) {
  const Label reserved = symbols_->Reserved("alpha");
  const std::set<Label> labels = {symbols_->Intern("a")};
  const std::vector<Label> alphabet =
      SearchAlphabet(*symbols_, labels, labels, 3);
  ASSERT_EQ(alphabet.size(), 4u);
  EXPECT_EQ(alphabet[1], reserved);
  EXPECT_EQ(std::set<Label>(alphabet.begin(), alphabet.end()).size(), 4u);
  // An input that uses the reserved label forces a fresh one.
  std::set<Label> inputs = labels;
  inputs.insert(reserved);
  const std::vector<Label> avoided =
      SearchAlphabet(*symbols_, labels, inputs, 1);
  ASSERT_EQ(avoided.size(), 2u);
  EXPECT_EQ(inputs.count(avoided[1]), 0u);
  // Repeated alphabets reuse the reserved labels.
  const size_t size = symbols_->size();
  SearchAlphabet(*symbols_, labels, labels, 3);
  EXPECT_EQ(symbols_->size(), size);
}

}  // namespace
}  // namespace xmlup
