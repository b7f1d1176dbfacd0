#include "engine/engine.h"

#include <memory>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "conflict/detector.h"
#include "conflict/witness_check.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace xmlup {
namespace {

using testing_util::Xml;
using testing_util::Xp;

class EngineTest : public ::testing::Test {
 protected:
  Engine engine_;

  Pattern P(std::string_view xpath) { return Xp(xpath, engine_.symbols()); }
  std::shared_ptr<const Tree> Content(std::string_view xml) {
    return std::make_shared<const Tree>(Xml(xml, engine_.symbols()));
  }
};

TEST_F(EngineTest, InternDeduplicatesEquivalentPatterns) {
  const PatternRef a = engine_.Intern(P("a/b"));
  const PatternRef b = engine_.Intern(P("a/b"));
  EXPECT_EQ(a, b);
  EXPECT_NE(a, engine_.Intern(P("a/c")));
  EXPECT_EQ(engine_.pattern(a).size(), 2u);
}

TEST_F(EngineTest, InternXPathParsesAgainstEngineSymbols) {
  Result<PatternRef> ref = engine_.InternXPath("book[.//quantity]");
  ASSERT_TRUE(ref.ok()) << ref.status();
  EXPECT_EQ(*ref, engine_.Intern(P("book[.//quantity]")));
  EXPECT_FALSE(engine_.InternXPath("a[").ok());
}

TEST_F(EngineTest, DetectMatchesFreeDetectorOnBothOverloads) {
  const Pattern read = P("a/b");
  const UpdateOp update = *UpdateOp::MakeDelete(P("a/b"));

  Result<ConflictReport> via_free = Detect(
      *engine_.store(), engine_.Intern(read), engine_.Bind(update));
  Result<ConflictReport> via_pattern = engine_.Detect(read, update);
  Result<ConflictReport> via_ref =
      engine_.Detect(engine_.Intern(read), engine_.Bind(update));
  ASSERT_TRUE(via_free.ok());
  ASSERT_TRUE(via_pattern.ok());
  ASSERT_TRUE(via_ref.ok());
  EXPECT_EQ(via_pattern->verdict, via_free->verdict);
  EXPECT_EQ(via_ref->verdict, via_free->verdict);
  EXPECT_EQ(via_ref->verdict, ConflictVerdict::kConflict);

  // A non-overlapping pair is a no-conflict on every path.
  const UpdateOp other = *UpdateOp::MakeDelete(P("c/d"));
  EXPECT_EQ(engine_.Detect(engine_.Intern(read), engine_.Bind(other))->verdict,
            ConflictVerdict::kNoConflict);
}

TEST_F(EngineTest, DetectBindsUnboundAndForeignOps) {
  // The free Detect rejects ops not bound to its store; Engine::Detect
  // binds them first, so unbound, foreign-store and pre-bound ops give the
  // same report.
  Engine other_engine(engine_.symbols());
  const std::vector<const char*> reads = {"a/b", "a//c", "a[q]//b"};
  std::vector<UpdateOp> updates = {
      UpdateOp::MakeInsert(P("a"), Content("<b/>")),
      UpdateOp::MakeInsert(P("a/b"), Content("<c/>")),
      *UpdateOp::MakeDelete(P("a/b")), *UpdateOp::MakeDelete(P("x/y"))};
  for (const char* spec : reads) {
    const PatternRef read = engine_.Intern(P(spec));
    for (const UpdateOp& update : updates) {
      Result<ConflictReport> bound = engine_.Detect(read, engine_.Bind(update));
      Result<ConflictReport> unbound = engine_.Detect(read, update);
      Result<ConflictReport> foreign =
          engine_.Detect(read, other_engine.Bind(update));
      ASSERT_TRUE(bound.ok() && unbound.ok() && foreign.ok()) << spec;
      for (const Result<ConflictReport>* r : {&unbound, &foreign}) {
        EXPECT_EQ((*r)->verdict, bound->verdict) << spec;
        EXPECT_EQ((*r)->method, bound->method) << spec;
        EXPECT_EQ((*r)->detail, bound->detail) << spec;
        EXPECT_EQ((*r)->trees_checked, bound->trees_checked) << spec;
      }
      EXPECT_EQ(Detect(*engine_.store(), read, update).status().code(),
                StatusCode::kInvalidArgument);
    }
  }
}

TEST_F(EngineTest, DetectMatrixMatchesSingletonDetects) {
  const std::vector<Pattern> reads = {P("a/b"), P("a//c")};
  const std::vector<UpdateOp> updates = {
      UpdateOp::MakeInsert(P("a"), Content("<b/>")),
      *UpdateOp::MakeDelete(P("a/b"))};
  const std::vector<SharedConflictResult> matrix =
      engine_.DetectMatrix(reads, updates);
  ASSERT_EQ(matrix.size(), 4u);
  for (size_t i = 0; i < reads.size(); ++i) {
    for (size_t j = 0; j < updates.size(); ++j) {
      const SharedConflictResult& cell = matrix[i * updates.size() + j];
      ASSERT_TRUE(cell->ok());
      Result<ConflictReport> singleton = engine_.Detect(reads[i], updates[j]);
      ASSERT_TRUE(singleton.ok());
      EXPECT_EQ((*cell)->verdict, singleton->verdict) << i << "," << j;
    }
  }
}

TEST_F(EngineTest, DetectMatrixPatternAndRefOverloadsAgree) {
  // The Pattern overload interns through the engine's store and takes the
  // ref path: identical canonical pairs resolve to the very same shared
  // result, whichever overload asked first.
  const std::vector<Pattern> reads = {P("a//b"), P("a/b/c"), P("a[b]/c"),
                                      P("a//b")};
  const std::vector<UpdateOp> updates = {
      UpdateOp::MakeInsert(P("a/b"), Content("<c/>")),
      *UpdateOp::MakeDelete(P("a//c"))};
  std::vector<PatternRef> read_refs;
  for (const Pattern& read : reads) read_refs.push_back(engine_.Intern(read));
  std::vector<UpdateOp> bound;
  for (const UpdateOp& update : updates) bound.push_back(engine_.Bind(update));

  const std::vector<SharedConflictResult> by_value =
      engine_.DetectMatrix(reads, updates);
  const std::vector<SharedConflictResult> by_ref =
      engine_.DetectMatrix(read_refs, bound);
  ASSERT_EQ(by_value.size(), by_ref.size());
  for (size_t k = 0; k < by_value.size(); ++k) {
    EXPECT_EQ(by_value[k], by_ref[k]) << "cell " << k;
  }
}

TEST_F(EngineTest, AnalyzeDependencesRunsOnTheEngineMatrix) {
  // One matrix engine: the analysis's read/update pairs are requests to
  // the engine's own batch detector, and they hit the memo DetectMatrix
  // filled.
  Program program;
  program.AddRead("y", "x", P("a/b"));
  program.AddDelete("x", P("a/b"));
  program.AddRead("z", "x", P("a//c"));
  engine_.DetectMatrix({P("a/b"), P("a//c")},
                       std::vector<UpdateOp>{*UpdateOp::MakeDelete(P("a/b"))});
  const BatchStats before = engine_.batch_stats();
  const DependenceAnalysisResult result = engine_.AnalyzeDependences(program);
  EXPECT_EQ(result.read_update_pairs, 2u);
  EXPECT_EQ(engine_.batch_stats().pairs_total - before.pairs_total, 2u);
  EXPECT_EQ(engine_.batch_stats().cache_misses, before.cache_misses);
  EXPECT_EQ(result.batch_stats.pairs_total, engine_.batch_stats().pairs_total);
}

TEST_F(EngineTest, LintCallsTheDetectorNoMoreThanAnalysis) {
  // Lint's redundant-read, shadowed-update, race, truncation and partition
  // passes all read one dependence analysis, so a cold lint makes no more
  // detector calls than a cold AnalyzeDependences of the same program.
  const std::shared_ptr<const Tree> content = Content("<d/>");
  Program program;
  program.AddRead("r", "x", P("a/b"));
  program.AddRead("s", "x", P("a//d"));
  program.AddRead("t", "x", P("a/b"));
  program.AddInsert("x", P("a/c"), content);
  program.AddInsert("x", P("a/e"), content);
  program.AddDelete("x", P("a/b"));
  EngineOptions tree_semantics;
  tree_semantics.batch.detector.semantics = ConflictSemantics::kTree;
  tree_semantics.batch.detector.build_witness = false;
  obs::Counter& calls =
      obs::MetricsRegistry::Default().GetCounter("detector.calls");

  Engine analyzing(engine_.symbols(), tree_semantics);
  uint64_t before = calls.value();
  analyzing.AnalyzeDependences(program);
  const uint64_t analysis_calls = calls.value() - before;

  Engine linting(engine_.symbols(), tree_semantics);
  before = calls.value();
  const LintResult lint = linting.Lint(program);
  EXPECT_EQ(lint.stats.pairs_checked, 9u);
  EXPECT_GT(analysis_calls, 0u);
  EXPECT_LE(calls.value() - before, analysis_calls);
}

TEST_F(EngineTest, CertifyCommuteAgreesWithFreeFunction) {
  const UpdateOp a = UpdateOp::MakeInsert(P("a"), Content("<x/>"));
  const UpdateOp b = *UpdateOp::MakeDelete(P("b/c"));
  Result<IndependenceReport> via_engine = engine_.CertifyCommute(a, b);
  Result<IndependenceReport> via_free =
      CertifyUpdatesCommute(engine_.Bind(a), engine_.Bind(b));
  ASSERT_TRUE(via_engine.ok());
  ASSERT_TRUE(via_free.ok());
  EXPECT_EQ(via_engine->certificate, via_free->certificate);
}

TEST_F(EngineTest, CertifyCommuteBindsUnboundOps) {
  const std::vector<UpdateOp> ops = {
      UpdateOp::MakeInsert(P("a"), Content("<x/>")),
      UpdateOp::MakeInsert(P("a/b"), Content("<c/>")),
      *UpdateOp::MakeDelete(P("b/c")), *UpdateOp::MakeDelete(P("a/x")),
      *UpdateOp::MakeDelete(P("a[q]/b"))};
  for (size_t i = 0; i < ops.size(); ++i) {
    for (size_t j = 0; j < ops.size(); ++j) {
      Result<IndependenceReport> unbound =
          engine_.CertifyCommute(ops[i], ops[j]);
      Result<IndependenceReport> bound =
          engine_.CertifyCommute(engine_.Bind(ops[i]), engine_.Bind(ops[j]));
      Result<IndependenceReport> mixed =
          engine_.CertifyCommute(engine_.Bind(ops[i]), ops[j]);
      ASSERT_TRUE(unbound.ok() && bound.ok() && mixed.ok()) << i << "," << j;
      EXPECT_EQ(unbound->certificate, bound->certificate) << i << "," << j;
      EXPECT_EQ(unbound->detail, bound->detail) << i << "," << j;
      EXPECT_EQ(mixed->certificate, bound->certificate) << i << "," << j;
    }
  }
}

TEST_F(EngineTest, SessionsShareTheEngineStore) {
  std::unique_ptr<Engine::Session> session = engine_.MakeSession();
  EXPECT_EQ(session->matrix().engine().pattern_store(), engine_.store());

  session->matrix().Assign({P("a/b")}, {*UpdateOp::MakeDelete(P("a/b"))});
  EXPECT_EQ(session->matrix().cell(0, 0)->value().verdict,
            ConflictVerdict::kConflict);
  // An edit recomputes one slice, visible through row().
  session->matrix().ReplaceRead(0, P("x/y"));
  EXPECT_EQ(session->matrix().row(0)[0]->value().verdict,
            ConflictVerdict::kNoConflict);
}

TEST_F(EngineTest, DistinctSessionsAreIndependentWriters) {
  std::unique_ptr<Engine::Session> s1 = engine_.MakeSession();
  std::unique_ptr<Engine::Session> s2 = engine_.MakeSession();
  s1->matrix().Assign({P("a/b")}, {*UpdateOp::MakeDelete(P("a/b"))});
  s2->matrix().Assign({P("a/b"), P("c")}, {*UpdateOp::MakeDelete(P("c/d"))});
  EXPECT_EQ(s1->matrix().num_reads(), 1u);
  EXPECT_EQ(s2->matrix().num_reads(), 2u);
  s1->matrix().RemoveRead(0);
  EXPECT_EQ(s1->matrix().num_reads(), 0u);
  EXPECT_EQ(s2->matrix().num_reads(), 2u);
}

TEST_F(EngineTest, LintRunsUnderEngineConfiguration) {
  Program program;
  program.AddRead("y", "x", P("a/b"));
  program.AddRead("y", "x", P("a/b"));  // dead read
  const LintResult result = engine_.Lint(program);
  bool saw_dead_read = false;
  for (const auto& diagnostic : result.diagnostics) {
    saw_dead_read =
        saw_dead_read || diagnostic.rule == LintRule::kDeadRead;
  }
  EXPECT_TRUE(saw_dead_read);

  Engine::LintRunOptions no_partition;
  no_partition.partition = false;
  const LintResult unpartitioned = engine_.Lint(program, no_partition);
  for (const auto& diagnostic : unpartitioned.diagnostics) {
    EXPECT_NE(diagnostic.rule, LintRule::kParallelPartition);
  }
}

TEST_F(EngineTest, AnalyzeDependencesFindsConflictingPair) {
  Program program;
  program.AddRead("y", "x", P("a/b"));
  program.AddDelete("x", P("a/b"));
  const DependenceAnalysisResult result = engine_.AnalyzeDependences(program);
  EXPECT_EQ(result.pairs_total, 1u);
  ASSERT_EQ(result.dependences.size(), 1u);
}

TEST_F(EngineTest, SharedSymbolTableAcrossEngines) {
  auto symbols = std::make_shared<SymbolTable>();
  EngineOptions tree_semantics;
  tree_semantics.batch.detector.semantics = ConflictSemantics::kTree;
  Engine a(symbols, tree_semantics);
  Engine b(symbols, EngineOptions{});
  EXPECT_EQ(a.symbols(), b.symbols());
  // Distinct engines, distinct stores: each owns its configuration.
  EXPECT_NE(a.store(), b.store());
  const Pattern p = Xp("a/b", symbols);
  EXPECT_EQ(a.pattern(a.Intern(p)).size(), b.pattern(b.Intern(p)).size());
}

TEST_F(EngineTest, ConcurrentDetectCallsAreSafe) {
  // The facade's documented hot path: many threads calling Detect against
  // the shared store concurrently (each worker also interns).
  const PatternRef read = engine_.Intern(P("a/b"));
  const UpdateOp del = engine_.Bind(*UpdateOp::MakeDelete(P("a/b")));
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 50;
  std::vector<int> conflicts(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        Result<ConflictReport> r = engine_.Detect(read, del);
        if (r.ok() && r->verdict == ConflictVerdict::kConflict) {
          ++conflicts[t];
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(conflicts[t], kOpsPerThread);
}

TEST_F(EngineTest, ConcurrentLintCallsMatchSerialLint) {
  // Lint is not serialized: each call builds its own Linter over the
  // shared store. Concurrent calls must still report exactly what a lone
  // call does.
  Program program;
  program.AddRead("r0", "x", P("a/b"));
  program.AddInsert("x", P("a"), Content("<b/>"));
  program.AddRead("r1", "x", P("a//c"));
  program.AddDelete("x", P("a/d"));
  program.AddRead("r2", "x", P("a/b"));
  program.AddDelete("x", P("a/b/e"));
  const LintResult serial = engine_.Lint(program);
  ASSERT_FALSE(serial.diagnostics.empty());

  constexpr int kThreads = 4;
  constexpr int kLintsPerThread = 10;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kLintsPerThread; ++i) {
        const LintResult got = engine_.Lint(program);
        bool same = got.diagnostics.size() == serial.diagnostics.size() &&
                    got.partition.batches == serial.partition.batches;
        for (size_t d = 0; same && d < got.diagnostics.size(); ++d) {
          same = got.diagnostics[d].rule == serial.diagnostics[d].rule &&
                 got.diagnostics[d].statements ==
                     serial.diagnostics[d].statements &&
                 got.diagnostics[d].message == serial.diagnostics[d].message;
        }
        if (!same) ++mismatches[t];
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0);
}

TEST_F(EngineTest, RepeatedWitnessesDoNotGrowTheSymbolTable) {
  // Witness fillers come from the table's reserved labels, so building the
  // same kind of witness again adds no symbols.
  const PatternRef read = engine_.Intern(P("a//c"));
  const UpdateOp del = engine_.Bind(*UpdateOp::MakeDelete(P("a/d")));
  const UpdateOp ins =
      engine_.Bind(UpdateOp::MakeInsert(P("a/*"), Content("<c/>")));
  for (const UpdateOp* op : {&del, &ins}) {
    Result<ConflictReport> first = engine_.Detect(read, *op);
    ASSERT_TRUE(first.ok());
    ASSERT_EQ(first->verdict, ConflictVerdict::kConflict);
    ASSERT_TRUE(first->witness.has_value());
  }
  const size_t symbols = engine_.symbols()->size();
  for (int i = 0; i < 100; ++i) {
    for (const UpdateOp* op : {&del, &ins}) {
      Result<ConflictReport> again = engine_.Detect(read, *op);
      ASSERT_TRUE(again.ok());
      EXPECT_TRUE(again->witness.has_value());
    }
  }
  EXPECT_EQ(engine_.symbols()->size(), symbols);
}

TEST_F(EngineTest, RepeatedSearchesDoNotGrowTheSymbolTable) {
  // A branching read falls through to the bounded search, whose extra
  // alphabet label is the table's reserved one: after the first call
  // interned it, further searches add no symbols.
  const PatternRef read = engine_.Intern(P("a[b]/c"));
  const UpdateOp del = engine_.Bind(*UpdateOp::MakeDelete(P("a/d")));
  Result<ConflictReport> first = engine_.Detect(read, del);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->method, DetectorMethod::kBoundedSearch);
  const size_t symbols = engine_.symbols()->size();
  for (int i = 0; i < 1000; ++i) {
    Result<ConflictReport> again = engine_.Detect(read, del);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->verdict, first->verdict);
  }
  EXPECT_EQ(engine_.symbols()->size(), symbols);
}

TEST_F(EngineTest, RepeatedValueWitnessesDoNotGrowTheSymbolTable) {
  // Under value semantics the node-conflict witness of read a//b against
  // insert a[b]/c with content <b/> is not yet a value conflict (the new b
  // has an isomorphic partner from the grafted branch model), so every
  // call takes the Lemma 2 upgrade, whose uniquifying label is the table's
  // reserved one.
  EngineOptions options;
  options.batch.detector.semantics = ConflictSemantics::kValue;
  Engine engine(options);
  const Pattern read = Xp("a//b", engine.symbols());
  const Pattern where = Xp("a[b]/c", engine.symbols());
  auto content = std::make_shared<const Tree>(Xml("<b/>", engine.symbols()));
  const PatternRef ref = engine.Intern(read);
  const UpdateOp ins = engine.Bind(UpdateOp::MakeInsert(where, content));
  Result<ConflictReport> first = engine.Detect(ref, ins);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_EQ(first->verdict, ConflictVerdict::kConflict);
  ASSERT_TRUE(first->witness.has_value());
  EXPECT_TRUE(IsReadInsertWitness(read, where, *content, *first->witness,
                                  ConflictSemantics::kValue));
  const size_t symbols = engine.symbols()->size();
  for (int i = 0; i < 1000; ++i) {
    Result<ConflictReport> again = engine.Detect(ref, ins);
    ASSERT_TRUE(again.ok());
    EXPECT_TRUE(again->witness.has_value());
  }
  EXPECT_EQ(engine.symbols()->size(), symbols);
}

TEST_F(EngineTest, WitnessAvoidsAReservedLabelTheContentUses) {
  // Content carrying the reserved filler label (copied out of an earlier
  // witness, say) forces a fresh filler; the witness still verifies.
  const Pattern read = P("a//c");
  const Pattern where = P("a/*");
  auto content = std::make_shared<Tree>(engine_.symbols());
  const NodeId root =
      content->CreateRoot(engine_.symbols()->Reserved("wfill"));
  content->AddChild(root, engine_.symbols()->Intern("c"));
  const UpdateOp ins = engine_.Bind(UpdateOp::MakeInsert(where, content));
  const size_t symbols = engine_.symbols()->size();
  Result<ConflictReport> report = engine_.Detect(read, ins);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->verdict, ConflictVerdict::kConflict);
  ASSERT_TRUE(report->witness.has_value());
  EXPECT_TRUE(IsReadInsertWitness(read, where, *content, *report->witness,
                                  engine_.detector_options().semantics));
  EXPECT_GT(engine_.symbols()->size(), symbols);  // the fresh fallback
}

TEST_F(EngineTest, BatchStatsAndMetricsAreReachable) {
  engine_.DetectMatrix({P("a/b")}, std::vector<UpdateOp>{
                                       *UpdateOp::MakeDelete(P("a/b"))});
  EXPECT_GE(engine_.batch_stats().pairs_total, 1u);
  const obs::MetricsSnapshot snapshot = engine_.MetricsSnapshot();
  EXPECT_FALSE(snapshot.counters.empty());
}

using EngineDeathTest = EngineTest;

TEST_F(EngineDeathTest, SerializedEntryPointsRejectPoolWorkerReentrancy) {
  // Calling a serialized entry point from inside a ThreadPool worker can
  // deadlock the pool (the call blocks the worker on work only workers
  // can drain), so the facade CHECK-fails instead of hanging. The death
  // test pins the crash-with-message behavior; "threadsafe" style because
  // the statement spawns threads.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const std::vector<Pattern> reads = {P("a/b")};
  const std::vector<UpdateOp> updates = {*UpdateOp::MakeDelete(P("a/b"))};
  EXPECT_DEATH(
      {
        ThreadPool pool(2);  // >= 2: inline mode has no workers
        pool.Submit([&] { engine_.DetectMatrix(reads, updates); });
        pool.Wait();
      },
      "called from inside a ThreadPool worker");
  // The same call from a non-worker thread (this one) stays legal.
  EXPECT_EQ(engine_.DetectMatrix(reads, updates).size(), 1u);
}

}  // namespace
}  // namespace xmlup
