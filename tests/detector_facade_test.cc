// The Detect() pipeline against the reference of detect_oracle.h, on
// hand-picked inserts and deletes and a randomized sweep. The store hands
// the pipeline the *minimized* read, so this doubles as an end-to-end check
// that minimization is conflict-preserving: linear reads are minimization
// fixpoints and must match the value linear detectors on the original
// pattern, and branching reads must meet the oracle on the stored form.
// Also covers metric side effects: a Detect call bumps the dispatch and
// verdict counters in the default registry.

#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "conflict/detector.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "pattern/pattern_store.h"
#include "tests/detect_oracle.h"
#include "tests/test_util.h"
#include "workload/pattern_generator.h"
#include "xml/tree_algos.h"

namespace xmlup {
namespace {

using testing_util::ExpectMatchesOracle;
using testing_util::NewSymbols;
using testing_util::Xml;
using testing_util::Xp;

TEST(DetectorFacadeTest, InsertsMatchOracle) {
  auto symbols = NewSymbols();
  auto store = std::make_shared<PatternStore>(symbols);
  const Tree x = Xml("<C/>", symbols);
  struct Case {
    const char* read;
    const char* insert;
  };
  for (const Case& c : {Case{"x//C", "x/B"}, Case{"x//D", "x/B"},
                        Case{"a[q]//C", "a/B"}, Case{"a/*/C", "a/B"}}) {
    const Pattern read = Xp(c.read, symbols);
    const Pattern ins = Xp(c.insert, symbols);
    auto content = std::make_shared<const Tree>(CopyTree(x));
    const PatternRef read_ref = store->Intern(read);
    const UpdateOp op =
        UpdateOp::MakeInsert(store, store->Intern(ins), content);
    ExpectMatchesOracle(*store, read_ref, op, {},
                        Detect(*store, read_ref, op),
                        std::string(c.read) + " vs insert " + c.insert);
  }
}

TEST(DetectorFacadeTest, DeletesMatchOracle) {
  auto symbols = NewSymbols();
  auto store = std::make_shared<PatternStore>(symbols);
  struct Case {
    const char* read;
    const char* del;
  };
  for (const Case& c : {Case{"a//b", "a//c"}, Case{"a/b", "a/c"},
                        Case{"a[q]//b", "a//c"}, Case{"a/b", "a"}}) {
    const Pattern read = Xp(c.read, symbols);
    const Pattern del = Xp(c.del, symbols);
    Result<UpdateOp> by_value_op = UpdateOp::MakeDelete(del);
    Result<UpdateOp> by_ref_op =
        UpdateOp::MakeDelete(store, store->Intern(del));
    // Root-selecting delete: both factories must reject it (the root check
    // is stable under minimization — a minimized root output is still the
    // root).
    ASSERT_EQ(by_value_op.ok(), by_ref_op.ok()) << c.del;
    if (!by_value_op.ok()) continue;
    const PatternRef read_ref = store->Intern(read);
    ExpectMatchesOracle(*store, read_ref, *by_ref_op, {},
                        Detect(*store, read_ref, *by_ref_op),
                        std::string(c.read) + " vs delete " + c.del);
  }
}

TEST(DetectorFacadeTest, RandomizedSweepMatchesOracle) {
  auto symbols = NewSymbols();
  auto store = std::make_shared<PatternStore>(symbols);
  Rng rng(424242);
  PatternGenOptions options;
  options.size = 3;
  options.branch_prob = 0.4;
  options.alphabet = {symbols->Intern("a"), symbols->Intern("b"),
                      symbols->Intern("c")};
  RandomPatternGenerator gen(symbols, options);
  DetectorOptions detector_options;
  detector_options.search.max_nodes = 4;

  for (int iter = 0; iter < 30; ++iter) {
    const bool linear_read = iter % 2 == 0;
    const Pattern read =
        linear_read ? gen.GenerateLinear(&rng) : gen.GenerateBranching(&rng);
    const Pattern update = gen.GenerateLinear(&rng);
    Tree x(symbols);
    x.CreateRoot(options.alphabet[rng.NextBounded(3)]);
    auto content = std::make_shared<const Tree>(CopyTree(x));
    const UpdateOp op = UpdateOp::MakeInsert(update, content).Bind(store);
    const PatternRef read_ref = store->Intern(read);
    const std::string label = "iter " + std::to_string(iter);
    const Result<ConflictReport> got =
        Detect(*store, read_ref, op, detector_options);
    ExpectMatchesOracle(*store, read_ref, op, detector_options, got, label);
    if (linear_read) {
      // Linear patterns are fixpoints of minimization (their only leaf is
      // the output), so the original read gives the identical report.
      testing_util::ExpectSameReport(
          testing_util::ValueLinearDetect(read, op, detector_options,
                                          detector_options.build_witness),
          got, label);
    }
  }
}

TEST(DetectorFacadeTest, BindPreservesOpSemantics) {
  auto symbols = NewSymbols();
  auto store = std::make_shared<PatternStore>(symbols);
  UpdateOp op = UpdateOp::MakeInsert(
      Xp("a//b", symbols),
      std::make_shared<const Tree>(Xml("<c/>", symbols)));
  UpdateOp bound = op.Bind(store);
  EXPECT_TRUE(bound.pattern_ref().valid());
  EXPECT_EQ(bound.pattern_store(), store.get());
  EXPECT_EQ(bound.kind(), UpdateOp::Kind::kInsert);
  EXPECT_EQ(bound.shared_content().get(), op.shared_content().get());
  // Binding again onto the same store reuses the ref.
  EXPECT_EQ(bound.Bind(store).pattern_ref(), bound.pattern_ref());
  // Unbound ops report no store and an invalid ref.
  EXPECT_EQ(op.pattern_store(), nullptr);
  EXPECT_FALSE(op.pattern_ref().valid());
}

TEST(DetectorFacadeTest, DetectReportsVerdictAndMethodCounters) {
  auto symbols = NewSymbols();
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  const uint64_t calls_before = reg.GetCounter("detector.calls").value();
  const uint64_t linear_before =
      reg.GetCounter("detector.dispatch.linear").value();
  const uint64_t conflict_before =
      reg.GetCounter("detector.verdict.conflict").value();
  const uint64_t latency_before =
      reg.GetHistogram("detector.latency_us").count();

  auto store = std::make_shared<PatternStore>(symbols);
  Result<ConflictReport> r = Detect(
      *store, store->Intern(Xp("x//C", symbols)),
      UpdateOp::MakeInsert(Xp("x/B", symbols),
                           std::make_shared<const Tree>(Xml("<C/>", symbols)))
          .Bind(store));
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->verdict, ConflictVerdict::kConflict);

  EXPECT_EQ(reg.GetCounter("detector.calls").value(), calls_before + 1);
  EXPECT_EQ(reg.GetCounter("detector.dispatch.linear").value(),
            linear_before + 1);
  EXPECT_EQ(reg.GetCounter("detector.verdict.conflict").value(),
            conflict_before + 1);
  EXPECT_EQ(reg.GetHistogram("detector.latency_us").count(),
            latency_before + 1);
}

}  // namespace
}  // namespace xmlup
