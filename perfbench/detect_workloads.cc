// branching_detect and linear_detect: closed-loop Engine::Detect streams.
// Both share one shape: a pool of interned reads and bound updates made in
// set-up, a deterministic op -> (read, update) stream, and output checks
// after the timed loop.

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/random.h"
#include "conflict/witness_check.h"
#include "engine/engine.h"
#include "harness.h"
#include "workload/generator_spec.h"

namespace perfbench {
namespace {

using xmlup::ConflictReport;
using xmlup::ConflictVerdict;
using xmlup::Engine;
using xmlup::Pattern;
using xmlup::PatternRef;
using xmlup::Result;
using xmlup::Rng;
using xmlup::Tree;
using xmlup::UpdateOp;

struct DetectShape {
  size_t alphabet_size;
  /// Inserted content and falsification trees.
  size_t tree_size;
  size_t tree_depth;
  size_t pattern_size;
  double wildcard_prob;
  double descendant_prob;
  bool branching;
  /// Branching: `pool` distinct (read i, update i) pairs, visited in order.
  /// Linear: `pool` reads x `pool` updates, pairs drawn with repetition.
  size_t pool;
};

// Shaped like workloads/reference.json: the paper's NP side.
constexpr DetectShape kBranching{3, 8, 5, 4, 0.2, 0.4, true, 8192};
// The PTIME side over a larger alphabet; 256 x 256 pairs, so the stream
// meets first-seen pairs all run long while most ops hit warm caches.
constexpr DetectShape kLinear{6, 4, 3, 4, 0.2, 0.4, false, 256};

/// kNoConflict verdicts the checks try to falsify, and trees per verdict.
constexpr size_t kFalsifyPairs = 256;
constexpr size_t kFalsifyTrees = 16;

xmlup::workload::GeneratorSpec SpecFor(const DetectShape& shape) {
  xmlup::workload::GeneratorSpec spec;
  spec.alphabet_size = shape.alphabet_size;
  spec.tree.target_size = shape.tree_size;
  spec.tree.max_depth = shape.tree_depth;
  spec.pattern.size = shape.pattern_size;
  spec.pattern.wildcard_prob = shape.wildcard_prob;
  spec.pattern.descendant_prob = shape.descendant_prob;
  return spec;
}

struct DetectPlan {
  std::unique_ptr<Engine> engine;
  std::vector<PatternRef> reads;
  std::vector<UpdateOp> updates;
  double intern_us = 0;

  size_t num_pairs(const DetectShape& shape) const {
    return shape.branching ? reads.size() : reads.size() * updates.size();
  }
};

/// Engine construction, input generation and Intern/Bind of the pool. When
/// `before` is set, the counter window opens right after construction.
DetectPlan SetUp(const DetectShape& shape, uint64_t seed, SpanRecorder* spans,
                 xmlup::obs::MetricsSnapshot* before) {
  ScopedSpan setup_span(spans, SpanName::kSetup, 0);
  DetectPlan plan;
  xmlup::EngineOptions engine_options;
  // Detect never uses the engine pool; keep it inline so every thread is
  // a client.
  engine_options.batch.num_threads = 1;
  plan.engine = std::make_unique<Engine>(engine_options);
  if (before != nullptr) *before = plan.engine->MetricsSnapshot();
  const auto& symbols = plan.engine->symbols();
  const xmlup::workload::GeneratorSpec spec = SpecFor(shape);
  const xmlup::RandomPatternGenerator patterns(symbols,
                                               spec.BindPattern(symbols));
  const xmlup::RandomTreeGenerator trees(symbols, spec.BindTree(symbols));

  Rng rng(seed);
  std::vector<Pattern> reads;
  std::vector<UpdateOp> updates;
  {
    ScopedSpan span(spans, SpanName::kGenerate, 0);
    for (size_t i = 0; i < shape.pool; ++i) {
      reads.push_back(shape.branching ? patterns.GenerateBranching(&rng)
                                      : patterns.GenerateLinear(&rng));
      // Inserts and deletes alternate: an exact 50/50 mix on every seed.
      if (i % 2 == 0) {
        Pattern where = shape.branching ? patterns.GenerateBranching(&rng)
                                        : patterns.GenerateLinear(&rng);
        updates.push_back(UpdateOp::MakeInsert(
            std::move(where),
            std::make_shared<const Tree>(trees.Generate(&rng))));
      } else {
        // A linear pattern of size >= 2 outputs its leaf, never the root.
        Result<UpdateOp> del = UpdateOp::MakeDelete(
            shape.branching ? patterns.GenerateBranchingNonRootOutput(&rng)
                            : patterns.GenerateLinear(&rng));
        XMLUP_CHECK(del.ok());
        updates.push_back(*std::move(del));
      }
    }
  }
  ScopedSpan span(spans, SpanName::kIntern, 0);
  const uint64_t start = NowNs();
  for (const Pattern& read : reads) {
    plan.reads.push_back(plan.engine->Intern(read));
  }
  for (const UpdateOp& update : updates) {
    plan.updates.push_back(plan.engine->Bind(update));
  }
  plan.intern_us = static_cast<double>(NowNs() - start) / 1000.0;
  return plan;
}

/// The first report seen for a pair; later ops on the same pair must agree
/// with it. state: 0 empty, 1 being written, 2 published.
struct PairSlot {
  std::atomic<uint8_t> state{0};
  uint64_t first_op = 0;
  std::optional<ConflictReport> report;
};

bool IsWitness(const Pattern& read, const UpdateOp& update, const Tree& t,
               xmlup::ConflictSemantics semantics) {
  return update.kind() == UpdateOp::Kind::kInsert
             ? xmlup::IsReadInsertWitness(read, update.pattern(),
                                          update.content(), t, semantics)
             : xmlup::IsReadDeleteWitness(read, update.pattern(), t,
                                          semantics);
}

/// Lemma 1 re-check of every kConflict witness, and a seeded attempt to
/// falsify kNoConflict verdicts on generated trees.
void CheckOutputs(const DetectShape& shape, const DetectPlan& plan,
                  const PairSlot* slots, uint64_t seed, WorkloadRun* run) {
  const Engine& engine = *plan.engine;
  const xmlup::ConflictSemantics semantics =
      engine.detector_options().semantics;
  const size_t num_pairs = plan.num_pairs(shape);
  auto read_of = [&](size_t pair) {
    return shape.branching ? pair : pair / plan.updates.size();
  };
  auto update_of = [&](size_t pair) {
    return shape.branching ? pair : pair % plan.updates.size();
  };
  std::vector<size_t> no_conflict;
  for (size_t pair = 0; pair < num_pairs; ++pair) {
    const PairSlot& slot = slots[pair];
    if (slot.state.load(std::memory_order_acquire) != 2) continue;
    const ConflictReport& report = *slot.report;
    if (report.verdict == ConflictVerdict::kNoConflict) {
      no_conflict.push_back(pair);
      continue;
    }
    if (report.verdict != ConflictVerdict::kConflict) continue;
    const Pattern& read = engine.pattern(plan.reads[read_of(pair)]);
    const UpdateOp& update = plan.updates[update_of(pair)];
    if (!report.witness.has_value()) {
      run->CheckFail("op " + std::to_string(slot.first_op) +
                     ": kConflict without a witness");
    } else if (!IsWitness(read, update, *report.witness, semantics)) {
      run->CheckFail("op " + std::to_string(slot.first_op) +
                     ": witness fails the Lemma 1 checker");
    }
  }

  Rng rng(Mix64(seed ^ 0x5eedf00dULL));
  const xmlup::workload::GeneratorSpec spec = SpecFor(shape);
  const xmlup::RandomTreeGenerator trees(engine.symbols(),
                                         spec.BindTree(engine.symbols()));
  for (size_t k = 0; k < kFalsifyPairs && !no_conflict.empty(); ++k) {
    const size_t at = rng.NextBounded(no_conflict.size());
    const size_t pair = no_conflict[at];
    no_conflict[at] = no_conflict.back();
    no_conflict.pop_back();
    const Pattern& read = engine.pattern(plan.reads[read_of(pair)]);
    const UpdateOp& update = plan.updates[update_of(pair)];
    for (size_t t = 0; t < kFalsifyTrees; ++t) {
      if (IsWitness(read, update, trees.Generate(&rng), semantics)) {
        run->CheckFail("op " + std::to_string(slots[pair].first_op) +
                       ": kNoConflict falsified by a generated tree");
        break;
      }
    }
  }
}

WorkloadRun RunDetect(const DetectShape& shape, const RunOptions& options) {
  WorkloadRun run;
  xmlup::obs::MetricsSnapshot before;
  const DetectPlan plan = RepeatSetUp<DetectPlan>(
      options.loop.clients, options.loop.trace,
      [&](SpanRecorder* spans, xmlup::obs::MetricsSnapshot* window) {
        return SetUp(shape, options.seed, spans, window);
      },
      &before, &run);

  const Engine& engine = *plan.engine;
  const size_t num_pairs = plan.num_pairs(shape);
  const size_t num_updates = plan.updates.size();
  std::unique_ptr<PairSlot[]> slots(new PairSlot[num_pairs]);
  const uint64_t seed = options.seed;

  auto unit = [&](uint64_t op, ClientState* state) {
    const size_t pair = shape.branching ? op % num_pairs
                                        : Mix64(seed ^ Mix64(op)) % num_pairs;
    const size_t r = shape.branching ? pair : pair / num_updates;
    const size_t u = shape.branching ? pair : pair % num_updates;
    ScopedSpan op_span(&state->spans, SpanName::kOp, op);
    const uint64_t start = NowNs();
    Result<ConflictReport> report = [&] {
      ScopedSpan span(&state->spans, SpanName::kDetect, op);
      return engine.Detect(plan.reads[r], plan.updates[u]);
    }();
    state->Record(OpKind::kDetect, start, NowNs());
    if (!report.ok()) {
      state->Fail("op " + std::to_string(op) + ": Detect returned " +
                  report.status().ToString());
      return;
    }
    state->tally.Add(op, report->verdict, report->method);
    PairSlot& slot = slots[pair];
    uint8_t expected = 0;
    if (slot.state.compare_exchange_strong(expected, 1,
                                           std::memory_order_acquire)) {
      slot.first_op = op;
      slot.report = std::move(report).value();
      slot.state.store(2, std::memory_order_release);
    } else if (expected == 2 && (slot.report->verdict != report->verdict ||
                                 slot.report->method != report->method)) {
      state->Fail("op " + std::to_string(op) + ": verdict differs from op " +
                  std::to_string(slot.first_op) + " on the same pair");
    }
  };

  run.symbols_before = engine.symbols()->size();
  run.elapsed_s = RunClosedLoop(options.loop, unit, &run.clients);
  run.symbols_after = engine.symbols()->size();
  run.counters = engine.MetricsSnapshot().DiffSince(before);
  for (const ClientState& client : run.clients) run.units += client.units;
  CheckOutputs(shape, plan, slots.get(), options.seed, &run);
  return run;
}

}  // namespace

WorkloadRun RunBranchingDetect(const RunOptions& options) {
  return RunDetect(kBranching, options);
}

WorkloadRun RunLinearDetect(const RunOptions& options) {
  return RunDetect(kLinear, options);
}

}  // namespace perfbench
