// The hot path must be invisible except for speed: the Detect pipeline
// (the stored patterns' mainlines, matched by the §4.1 dynamic program)
// is checked against the reference of
// detect_oracle.h — the value linear detectors (the paper's automata)
// field by field on linear reads, the Lemma 1 checker and a direct
// bounded search on branching reads — over an exhaustive small-pattern
// sweep and randomized programs, and must be deterministic under 8-way
// concurrency on one shared store. Also covers the detector accounting
// invariant (calls == conflict + no_conflict + unknown + errors,
// including unbound and foreign-store updates) and the centralized
// root-delete guard on every entry point (factories, value and mainline
// detectors, batch engine).

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "conflict/batch_detector.h"
#include "conflict/detector.h"
#include "conflict/read_delete.h"
#include "conflict/read_insert.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "pattern/pattern_store.h"
#include "pattern/pattern_writer.h"
#include "tests/detect_oracle.h"
#include "tests/test_util.h"
#include "workload/pattern_generator.h"
#include "xml/tree_algos.h"

namespace xmlup {
namespace {

using testing_util::ExpectMatchesOracle;
using testing_util::ExpectSameReport;
using testing_util::NewSymbols;
using testing_util::Xml;
using testing_util::Xp;

/// Every linear pattern with 1..max_nodes nodes over `labels` (a chain per
/// shape: all axis assignments × labelings; output = the unique leaf).
std::vector<Pattern> EnumerateLinearPatterns(
    const std::shared_ptr<SymbolTable>& symbols,
    const std::vector<Label>& labels, size_t max_nodes) {
  std::vector<Pattern> out;
  for (size_t n = 1; n <= max_nodes; ++n) {
    const size_t edges = n - 1;
    for (size_t axes = 0; axes < (size_t{1} << edges); ++axes) {
      std::vector<size_t> labeling(n, 0);
      while (true) {
        Pattern p(symbols);
        PatternNodeId node = p.CreateRoot(labels[labeling[0]]);
        for (size_t i = 1; i < n; ++i) {
          const Axis axis =
              (axes >> (i - 1)) & 1 ? Axis::kDescendant : Axis::kChild;
          node = p.AddChild(node, labels[labeling[i]], axis);
        }
        p.SetOutput(node);
        out.push_back(std::move(p));
        size_t i = 0;
        while (i < n && labeling[i] == labels.size() - 1) labeling[i++] = 0;
        if (i == n) break;
        ++labeling[i];
      }
    }
  }
  return out;
}

/// A fixed mixed update workload bound to `store`: inserts and deletes
/// whose patterns/content overlap the {a, b} read alphabet so the sweep
/// hits conflicts, no-conflicts and the wildcard classes.
std::vector<UpdateOp> BoundUpdates(
    const std::shared_ptr<PatternStore>& store,
    const std::shared_ptr<SymbolTable>& symbols) {
  auto content_ab = std::make_shared<const Tree>(Xml("<a><b/></a>", symbols));
  auto content_b = std::make_shared<const Tree>(Xml("<b/>", symbols));
  std::vector<UpdateOp> updates;
  updates.push_back(UpdateOp::MakeInsert(store, store->Intern(Xp("a/b", symbols)),
                                         content_ab));
  updates.push_back(UpdateOp::MakeInsert(
      store, store->Intern(Xp("a//b", symbols)), content_b));
  updates.push_back(UpdateOp::MakeInsert(store, store->Intern(Xp("b", symbols)),
                                         content_ab));
  for (const char* del : {"a/b", "a//*", "b//a"}) {
    Result<UpdateOp> op =
        UpdateOp::MakeDelete(store, store->Intern(Xp(del, symbols)));
    EXPECT_TRUE(op.ok()) << del;
    updates.push_back(*std::move(op));
  }
  return updates;
}

TEST(DetectHotCacheTest, ExhaustiveLinearSweepMatchesValueLinearDetectors) {
  auto symbols = NewSymbols();
  auto store = std::make_shared<PatternStore>(symbols);
  const std::vector<Label> labels = {symbols->Intern("a"),
                                     symbols->Intern("b"), kWildcardLabel};
  // 3 + 18 + 108 + 648 linear chains over {a, b, *} with <= 4 nodes.
  const std::vector<Pattern> reads =
      EnumerateLinearPatterns(symbols, labels, 4);
  ASSERT_EQ(reads.size(), 777u);
  const std::vector<UpdateOp> updates = BoundUpdates(store, symbols);

  DetectorOptions options;
  options.semantics = ConflictSemantics::kValue;
  for (size_t i = 0; i < reads.size(); ++i) {
    const PatternRef ref = store->Intern(reads[i]);
    for (size_t j = 0; j < updates.size(); ++j) {
      ExpectMatchesOracle(*store, ref, updates[j], options,
                          Detect(*store, ref, updates[j], options),
                          "read " + std::to_string(i) + " update " +
                              std::to_string(j));
    }
  }
}

TEST(DetectHotCacheTest, RandomizedProgramsMatchOracle) {
  auto symbols = NewSymbols();
  auto store = std::make_shared<PatternStore>(symbols);
  Rng rng(20260807);
  PatternGenOptions gen_options;
  gen_options.size = 4;
  gen_options.branch_prob = 0.4;
  gen_options.alphabet = {symbols->Intern("a"), symbols->Intern("b"),
                          symbols->Intern("c")};
  RandomPatternGenerator gen(symbols, gen_options);
  DetectorOptions options;
  options.search.max_nodes = 4;

  for (int iter = 0; iter < 80; ++iter) {
    const bool linear_read = iter % 2 == 0;
    const Pattern read =
        linear_read ? gen.GenerateLinear(&rng) : gen.GenerateBranching(&rng);
    const PatternRef read_ref = store->Intern(read);
    const Pattern update = iter % 4 < 2 ? gen.GenerateLinear(&rng)
                                        : gen.GenerateBranching(&rng);
    UpdateOp op = [&]() -> UpdateOp {
      if (iter % 3 == 0) {
        Result<UpdateOp> del =
            UpdateOp::MakeDelete(store, store->Intern(update));
        if (del.ok()) return *std::move(del);
        // Root-selecting delete generated: fall through to an insert.
      }
      Tree x(symbols);
      x.CreateRoot(gen_options.alphabet[rng.NextBounded(3)]);
      return UpdateOp::MakeInsert(store, store->Intern(update),
                                  std::make_shared<const Tree>(CopyTree(x)));
    }();
    ExpectMatchesOracle(*store, read_ref, op, options,
                        Detect(*store, read_ref, op, options),
                        "iter " + std::to_string(iter));
  }
}

TEST(DetectHotCacheTest, ConcurrentSharedStoreDeterminism) {
  auto symbols = NewSymbols();
  const std::vector<const char*> read_specs = {
      "a//b",       "a/b",     "a//*/b", "b//a",    "a[b]//c",
      "a[q]/b//c",  "*//b",    "a/a/b",  "a//b//*", "c/b/a",
  };
  DetectorOptions options;
  options.search.max_nodes = 4;

  // Expected reports: one single-threaded pass on a reference store,
  // each report checked against the oracle.
  auto reference_store = std::make_shared<PatternStore>(symbols);
  const std::vector<UpdateOp> updates =
      BoundUpdates(reference_store, symbols);
  std::vector<ConflictReport> expected;  // in pair order
  std::vector<Pattern> reads;
  for (const char* spec : read_specs) reads.push_back(Xp(spec, symbols));
  for (const Pattern& read : reads) {
    const PatternRef ref = reference_store->Intern(read);
    for (const UpdateOp& update : updates) {
      Result<ConflictReport> r =
          Detect(*reference_store, ref, update, options);
      ExpectMatchesOracle(*reference_store, ref, update, options, r,
                          ToXPathString(reference_store->pattern(ref)));
      ASSERT_TRUE(r.ok());
      expected.push_back(std::move(r).value());
    }
  }

  for (const size_t num_threads : {size_t{1}, size_t{8}}) {
    // A fresh store per thread count, shared by all its threads: every
    // thread resolves the same refs, and the 8-thread leg interns every
    // entry under contention rather than reusing the 1-thread run's.
    auto store = std::make_shared<PatternStore>(symbols);
    const std::vector<UpdateOp> bound = BoundUpdates(store, symbols);
    std::vector<PatternRef> refs;
    for (const Pattern& read : reads) refs.push_back(store->Intern(read));

    std::vector<int> mismatches(num_threads, 0);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < num_threads; ++t) {
      threads.emplace_back([&, t] {
        for (size_t i = 0; i < refs.size(); ++i) {
          for (size_t j = 0; j < bound.size(); ++j) {
            Result<ConflictReport> r =
                Detect(*store, refs[i], bound[j], options);
            const ConflictReport& want = expected[i * bound.size() + j];
            if (!r.ok() || r->verdict != want.verdict ||
                r->method != want.method || r->detail != want.detail ||
                r->trees_checked != want.trees_checked ||
                r->witness.has_value() != want.witness.has_value()) {
              ++mismatches[t];
            }
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    for (size_t t = 0; t < num_threads; ++t) {
      EXPECT_EQ(mismatches[t], 0)
          << num_threads << " threads, thread " << t;
    }
  }
}

TEST(DetectHotCacheTest, DetectorAccountingInvariantIncludesErrors) {
  auto symbols = NewSymbols();
  auto store = std::make_shared<PatternStore>(symbols);
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  auto counter = [&](const char* name) {
    return reg.GetCounter(name).value();
  };
  const uint64_t calls0 = counter("detector.calls");
  const uint64_t conflict0 = counter("detector.verdict.conflict");
  const uint64_t no_conflict0 = counter("detector.verdict.no_conflict");
  const uint64_t unknown0 = counter("detector.verdict.unknown");
  const uint64_t errors0 = counter("detector.errors");

  auto content = std::make_shared<const Tree>(Xml("<b/>", symbols));
  DetectorOptions options;
  options.search.max_nodes = 1;  // starve the NP path toward kUnknown

  // A conflict and a no-conflict on linear reads.
  UpdateOp bound = UpdateOp::MakeInsert(
      store, store->Intern(Xp("a", symbols)), content);
  const UpdateOp unrelated = UpdateOp::MakeInsert(
      store, store->Intern(Xp("q", symbols)), content);
  ASSERT_TRUE(Detect(*store, store->Intern(Xp("a//b", symbols)), bound).ok());
  ASSERT_TRUE(
      Detect(*store, store->Intern(Xp("x/y", symbols)), unrelated).ok());
  // Branching read on a starved budget (may be unknown — any verdict keeps
  // the invariant; the point is it lands in exactly one bucket).
  ASSERT_TRUE(
      Detect(*store, store->Intern(Xp("a[q][r]//b", symbols)), bound, options)
          .ok());
  // Error paths are counted (one call, one error), not dropped from the
  // books: an invalid ref (checked before the update, so an unbound op
  // beside it is one error, not two), an unbound update, and an update
  // bound to another store.
  Result<ConflictReport> invalid = Detect(*store, PatternRef(), bound);
  ASSERT_FALSE(invalid.ok());
  EXPECT_EQ(invalid.status().code(), StatusCode::kInvalidArgument);
  const UpdateOp unbound = UpdateOp::MakeInsert(Xp("a", symbols), content);
  Result<ConflictReport> invalid2 = Detect(*store, PatternRef(), unbound);
  ASSERT_FALSE(invalid2.ok());
  const PatternRef read = store->Intern(Xp("a//b", symbols));
  Result<ConflictReport> not_bound = Detect(*store, read, unbound);
  ASSERT_FALSE(not_bound.ok());
  EXPECT_EQ(not_bound.status().code(), StatusCode::kInvalidArgument);
  auto other_store = std::make_shared<PatternStore>(symbols);
  Result<ConflictReport> foreign =
      Detect(*store, read, unbound.Bind(other_store));
  ASSERT_FALSE(foreign.ok());
  EXPECT_EQ(foreign.status().code(), StatusCode::kInvalidArgument);

  const uint64_t calls = counter("detector.calls") - calls0;
  const uint64_t outcomes = (counter("detector.verdict.conflict") - conflict0) +
                            (counter("detector.verdict.no_conflict") -
                             no_conflict0) +
                            (counter("detector.verdict.unknown") - unknown0) +
                            (counter("detector.errors") - errors0);
  EXPECT_EQ(calls, outcomes);
  EXPECT_EQ(counter("detector.errors") - errors0, 4u);
  EXPECT_EQ(calls, 7u);
}

TEST(DetectHotCacheTest, RootDeleteGuardIsCentralized) {
  auto symbols = NewSymbols();
  auto store = std::make_shared<PatternStore>(symbols);
  const Pattern root_only = Xp("a", symbols);       // O(p) == ROOT(p)
  const Pattern read = Xp("a//b", symbols);
  const PatternRef root_ref = store->Intern(root_only);

  // The shared validator itself.
  EXPECT_FALSE(ValidateDeletePattern(root_only).ok());
  EXPECT_TRUE(ValidateDeletePattern(Xp("a/b", symbols)).ok());

  // Both factories.
  EXPECT_FALSE(UpdateOp::MakeDelete(root_only).ok());
  EXPECT_FALSE(UpdateOp::MakeDelete(store, root_ref).ok());

  // The value linear detector.
  Result<ConflictReport> by_value =
      DetectLinearReadDeleteConflict(read, root_only);
  ASSERT_FALSE(by_value.ok());
  EXPECT_EQ(by_value.status().code(), StatusCode::kInvalidArgument);

  // The mainline core (what Detect runs for the batch engine's SolvePair).
  Result<ConflictReport> mainline_core =
      DetectMainlineReadDeleteConflict(read, root_only, root_only);
  ASSERT_FALSE(mainline_core.ok());
  EXPECT_EQ(mainline_core.status().code(), StatusCode::kInvalidArgument);
}

TEST(DetectHotCacheTest, BatchEngineMatchesSinglePairDetect) {
  auto symbols = NewSymbols();
  // The batch engine routes SolvePair through the Detect pipeline; cell
  // by cell its reports must equal a single-pair Detect on the
  // canonicalized pair, itself checked against the oracle.
  BatchDetectorOptions batch_options;
  batch_options.num_threads = 4;
  BatchConflictDetector engine(batch_options);
  const std::shared_ptr<PatternStore>& store = engine.pattern_store();

  std::vector<Pattern> reads;
  for (const char* spec :
       {"a//b", "a/b", "a[b]//c", "b//a", "a//*/b", "a/a/b"}) {
    reads.push_back(Xp(spec, symbols));
  }
  const std::vector<UpdateOp> updates = [&] {
    auto content = std::make_shared<const Tree>(Xml("<a><b/></a>", symbols));
    std::vector<UpdateOp> out;
    out.push_back(UpdateOp::MakeInsert(Xp("a/b", symbols), content));
    out.push_back(UpdateOp::MakeInsert(Xp("b", symbols), content));
    Result<UpdateOp> del = UpdateOp::MakeDelete(Xp("a//b", symbols));
    EXPECT_TRUE(del.ok());
    out.push_back(*std::move(del));
    return out;
  }();

  std::vector<PatternRef> read_refs;
  for (const Pattern& read : reads) read_refs.push_back(store->Intern(read));
  const std::vector<SharedConflictResult> cells =
      engine.DetectMatrix(read_refs, updates);
  ASSERT_EQ(cells.size(), reads.size() * updates.size());
  for (size_t i = 0; i < reads.size(); ++i) {
    for (size_t j = 0; j < updates.size(); ++j) {
      const PatternRef read_ref = read_refs[i];
      const UpdateOp bound = updates[j].Bind(store);
      const std::string label =
          "cell " + std::to_string(i) + "," + std::to_string(j);
      Result<ConflictReport> expected = Detect(*store, read_ref, bound);
      ExpectMatchesOracle(*store, read_ref, bound, {}, expected, label);
      ExpectSameReport(expected, *cells[i * updates.size() + j], label);
    }
  }
}

TEST(DetectHotCacheTest, BuildWitnessOffPreservesVerdicts) {
  auto symbols = NewSymbols();
  auto store = std::make_shared<PatternStore>(symbols);
  const std::vector<UpdateOp> updates = BoundUpdates(store, symbols);
  DetectorOptions with_witness;
  DetectorOptions without_witness;
  without_witness.build_witness = false;
  for (const char* spec : {"a//b", "a/b/c", "b//*", "a/a", "a[b]//c"}) {
    const PatternRef ref = store->Intern(Xp(spec, symbols));
    for (const UpdateOp& update : updates) {
      Result<ConflictReport> full = Detect(*store, ref, update, with_witness);
      Result<ConflictReport> lean =
          Detect(*store, ref, update, without_witness);
      ASSERT_EQ(full.ok(), lean.ok());
      if (!full.ok()) continue;
      EXPECT_EQ(full->verdict, lean->verdict) << spec;
      EXPECT_EQ(full->method, lean->method) << spec;
      EXPECT_EQ(full->detail, lean->detail) << spec;
      // Linear-path conflicts drop only the witness when disabled.
      if (lean->conflict() &&
          lean->method == DetectorMethod::kLinearPtime) {
        EXPECT_FALSE(lean->witness.has_value()) << spec;
        EXPECT_TRUE(full->witness.has_value()) << spec;
      }
    }
  }
}

}  // namespace
}  // namespace xmlup
