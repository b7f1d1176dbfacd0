// program_edit: typed linear update programs edited, linted and merged.
// Each work unit is one program's cycle on a client: assign it to an
// Engine::Session, apply an edit stream to the session matrix, lint the
// edited program, and merge its updates split into concurrent sessions.

#include <atomic>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/program.h"
#include "common/check.h"
#include "common/random.h"
#include "dtd/dtd.h"
#include "dtd/type_summary.h"
#include "engine/engine.h"
#include "harness.h"
#include "merge/merge_executor.h"
#include "workload/generator_spec.h"
#include "xml/isomorphism.h"
#include "xml/tree_algos.h"

namespace perfbench {
namespace {

using xmlup::Engine;
using xmlup::Label;
using xmlup::Pattern;
using xmlup::PatternRef;
using xmlup::Program;
using xmlup::Result;
using xmlup::Rng;
using xmlup::Statement;
using xmlup::Tree;
using xmlup::UpdateOp;

// Two sealed subsystems under a sealed root, as in
// workloads/typed_reference.json: a1-chains and a2-chains share only the
// a3 leaf, so cross-subsystem pairs type-prune.
constexpr char kSchema[] =
    "root a0\n"
    "allow a0 : a1 a2\n"
    "allow a1 : a1 a3\n"
    "allow a2 : a2 a3\n"
    "seal a3\n";

/// Programs generated in set-up; a run longer than the plan wraps around.
constexpr size_t kPrograms = 2048;
constexpr size_t kStatements = 12;
constexpr size_t kEditsPerProgram = 10;
constexpr size_t kMergeSessions = 2;
/// Ops per unit: the Assign, the edits, one lint and one merge.
constexpr uint64_t kOpsPerUnit = kEditsPerProgram + 3;

xmlup::workload::GeneratorSpec Spec() {
  xmlup::workload::GeneratorSpec spec;
  spec.alphabet_size = 4;
  spec.tree.target_size = 8;
  spec.tree.max_depth = 5;
  spec.pattern.size = 4;
  spec.pattern.wildcard_prob = 0.2;
  spec.pattern.descendant_prob = 0.4;
  spec.program.num_statements = kStatements;
  spec.program.num_variables = 1;
  spec.program.read_fraction = 0.5;
  spec.program.insert_fraction = 0.25;
  return spec;
}

/// A random document conforming to `dtd`: the workload/ tree generator
/// draws labels uniformly, which a sealed schema almost never accepts.
Tree GenerateConformant(const xmlup::Dtd& dtd,
                        const xmlup::TreeGenOptions& options, Rng* rng) {
  Tree tree(dtd.symbols());
  struct Pending {
    xmlup::NodeId node;
    size_t depth;
  };
  std::vector<Pending> frontier = {{tree.CreateRoot(*dtd.root_label()), 1}};
  for (size_t i = 0; i < frontier.size() && tree.size() < options.target_size;
       ++i) {
    const Pending at = frontier[i];
    const std::set<Label>& allowed = dtd.AllowedChildren(tree.label(at.node));
    if (allowed.empty() || at.depth >= options.max_depth) continue;
    const std::vector<Label> labels(allowed.begin(), allowed.end());
    const size_t children = 1 + rng->NextBounded(options.max_children);
    for (size_t c = 0; c < children && tree.size() < options.target_size;
         ++c) {
      const Label label = labels[rng->NextBounded(labels.size())];
      frontier.push_back({tree.AddChild(at.node, label), at.depth + 1});
    }
  }
  return tree;
}

struct Edit {
  enum class Kind {
    kAddRead,
    kAddUpdate,
    kReplaceRead,
    kReplaceUpdate,
    kRemoveRead,
    kRemoveUpdate
  };
  Kind kind = Kind::kAddRead;
  size_t index = 0;
  std::optional<Pattern> read;
  std::optional<UpdateOp> update;
};

struct ProgramUnit {
  std::vector<Pattern> reads;
  std::vector<UpdateOp> updates;
  std::vector<Edit> edits;
  /// The program after the edit stream: what Lint sees.
  Program edited;
  std::vector<std::vector<UpdateOp>> merge_sessions;
  Tree seed_tree;
};

struct ProgramPlan {
  std::shared_ptr<const xmlup::Dtd> dtd;
  std::unique_ptr<Engine> engine;
  std::vector<ProgramUnit> units;
  double intern_us = 0;
};

bool IsRead(const Statement& s) { return s.kind == Statement::Kind::kRead; }

/// A linear pattern that matches some document of the schema. The
/// generator draws root labels uniformly, so most raw draws are dead under
/// the sealed root; an editor's programs are written against their schema,
/// and dead patterns would leave Stage 0 nothing but trivial pairs.
Pattern LivePattern(const xmlup::RandomPatternGenerator& patterns,
                    const xmlup::Dtd& dtd, Rng* rng) {
  for (int attempt = 0; attempt < 10000; ++attempt) {
    Pattern pattern = patterns.GenerateLinear(rng);
    if (!xmlup::ComputeTypeSummary(pattern, dtd).dead) return pattern;
  }
  XMLUP_CHECK_STREAM(false) << "no live pattern under the schema";
  return patterns.GenerateLinear(rng);
}

/// Position in `statements` of the index-th read (or update) statement:
/// session row/column order is statement order.
size_t Position(const std::vector<Statement>& statements, bool read,
                size_t index) {
  for (size_t i = 0; i < statements.size(); ++i) {
    if (IsRead(statements[i]) == read && index-- == 0) return i;
  }
  XMLUP_CHECK(false);
  return 0;
}

UpdateOp OpOf(const Statement& s) {
  if (s.kind == Statement::Kind::kInsert) {
    return UpdateOp::MakeInsert(s.pattern, s.content);
  }
  Result<UpdateOp> del = UpdateOp::MakeDelete(s.pattern);
  XMLUP_CHECK(del.ok());  // generated delete patterns never select the root
  return *std::move(del);
}

/// One update statement: an insert of a small generated tree or a delete
/// (a linear pattern of size >= 2 outputs its leaf, never the root).
Statement DrawUpdate(const xmlup::RandomPatternGenerator& patterns,
                     const xmlup::RandomTreeGenerator& content,
                     const xmlup::Dtd& dtd, Rng* rng) {
  if (rng->NextBool(0.5)) {
    Pattern where = LivePattern(patterns, dtd, rng);
    return Statement(Statement::Kind::kInsert, "v0", "", std::move(where),
                     std::make_shared<const Tree>(content.Generate(rng)));
  }
  return Statement(Statement::Kind::kDelete, "v0", "",
                   LivePattern(patterns, dtd, rng), nullptr);
}

/// Draws one edit against `program` and applies it there too, so the
/// program and the session matrix stay in step. Weights follow the
/// workload driver: replaces dominate, adds and removes keep the
/// dimensions drifting, and neither side empties.
Edit DrawEdit(const xmlup::RandomPatternGenerator& patterns,
              const xmlup::RandomTreeGenerator& content, const xmlup::Dtd& dtd,
              size_t* next_result, Program* program, Rng* rng) {
  std::vector<Statement>& statements = program->mutable_statements();
  size_t reads = 0;
  for (const Statement& s : statements) reads += IsRead(s) ? 1 : 0;
  const size_t updates = statements.size() - reads;
  std::vector<double> weights = {1, 1, 2, 2, 1, 1};
  if (reads == 0) weights[2] = 0;
  if (updates == 0) weights[3] = 0;
  if (reads < 2) weights[4] = 0;
  if (updates < 2) weights[5] = 0;
  Edit edit;
  edit.kind = static_cast<Edit::Kind>(rng->NextWeighted(weights));
  switch (edit.kind) {
    case Edit::Kind::kAddRead:
    case Edit::Kind::kReplaceRead: {
      const bool add = edit.kind == Edit::Kind::kAddRead;
      edit.index = add ? reads : rng->NextBounded(reads);
      Statement read(Statement::Kind::kRead, "v0",
                     "r" + std::to_string((*next_result)++),
                     LivePattern(patterns, dtd, rng), nullptr);
      edit.read = read.pattern;
      if (add) {
        statements.push_back(std::move(read));
      } else {
        statements[Position(statements, true, edit.index)] = std::move(read);
      }
      break;
    }
    case Edit::Kind::kAddUpdate:
    case Edit::Kind::kReplaceUpdate: {
      const bool add = edit.kind == Edit::Kind::kAddUpdate;
      edit.index = add ? updates : rng->NextBounded(updates);
      Statement update = DrawUpdate(patterns, content, dtd, rng);
      edit.update = OpOf(update);
      if (add) {
        statements.push_back(std::move(update));
      } else {
        statements[Position(statements, false, edit.index)] = std::move(update);
      }
      break;
    }
    case Edit::Kind::kRemoveRead:
    case Edit::Kind::kRemoveUpdate: {
      const bool read = edit.kind == Edit::Kind::kRemoveRead;
      edit.index = rng->NextBounded(read ? reads : updates);
      statements.erase(statements.begin() +
                       Position(statements, read, edit.index));
      break;
    }
  }
  return edit;
}

void ApplyEdit(const Edit& edit, xmlup::MaintainedConflictMatrix* matrix) {
  switch (edit.kind) {
    case Edit::Kind::kAddRead:
      matrix->AddRead(*edit.read);
      break;
    case Edit::Kind::kAddUpdate:
      matrix->AddUpdate(*edit.update);
      break;
    case Edit::Kind::kReplaceRead:
      matrix->ReplaceRead(edit.index, *edit.read);
      break;
    case Edit::Kind::kReplaceUpdate:
      matrix->ReplaceUpdate(edit.index, *edit.update);
      break;
    case Edit::Kind::kRemoveRead:
      matrix->RemoveRead(edit.index);
      break;
    case Edit::Kind::kRemoveUpdate:
      matrix->RemoveUpdate(edit.index);
      break;
  }
}

ProgramPlan SetUp(uint64_t seed, SpanRecorder* spans,
                  xmlup::obs::MetricsSnapshot* before) {
  ScopedSpan setup_span(spans, SpanName::kSetup, 0);
  ProgramPlan plan;
  auto symbols = std::make_shared<xmlup::SymbolTable>();
  Result<xmlup::Dtd> dtd = xmlup::Dtd::Parse(kSchema, symbols);
  XMLUP_CHECK(dtd.ok());
  plan.dtd = std::make_shared<const xmlup::Dtd>(*std::move(dtd));
  xmlup::EngineOptions engine_options;
  // Lint runs on the engine pool and merges on the executor pool; both run
  // inline on the calling client so that clients take every core.
  engine_options.batch.num_threads = 1;
  engine_options.dtd = plan.dtd;
  plan.engine = std::make_unique<Engine>(symbols, engine_options);
  if (before != nullptr) *before = plan.engine->MetricsSnapshot();

  const xmlup::workload::GeneratorSpec spec = Spec();
  const xmlup::RandomProgramGenerator programs(symbols,
                                               spec.BindProgram(symbols));
  const xmlup::RandomPatternGenerator patterns(symbols,
                                               spec.BindPattern(symbols));
  xmlup::TreeGenOptions content_options = spec.BindTree(symbols);
  content_options.target_size = 2;
  content_options.max_depth = 2;
  const xmlup::RandomTreeGenerator content(symbols, content_options);
  const xmlup::TreeGenOptions seed_options = spec.BindTree(symbols);

  Rng rng(seed);
  {
    ScopedSpan span(spans, SpanName::kGenerate, 0);
    plan.units.reserve(kPrograms);
    for (size_t i = 0; i < kPrograms; ++i) {
      ProgramUnit unit{{}, {}, {}, programs.Generate(&rng), {},
                       GenerateConformant(*plan.dtd, seed_options, &rng)};
      size_t next_result = 0;
      for (Statement& s : unit.edited.mutable_statements()) {
        if (xmlup::ComputeTypeSummary(s.pattern, *plan.dtd).dead) {
          s.pattern = LivePattern(patterns, *plan.dtd, &rng);
        }
      }
      for (const Statement& s : unit.edited.statements()) {
        if (IsRead(s)) {
          unit.reads.push_back(s.pattern);
          ++next_result;
        } else {
          unit.updates.push_back(OpOf(s));
        }
      }
      for (size_t e = 0; e < kEditsPerProgram; ++e) {
        unit.edits.push_back(
            DrawEdit(patterns, content, *plan.dtd, &next_result, &unit.edited,
                     &rng));
      }
      unit.merge_sessions.resize(kMergeSessions);
      size_t k = 0;
      for (const Statement& s : unit.edited.statements()) {
        if (!IsRead(s)) {
          unit.merge_sessions[k++ % kMergeSessions].push_back(OpOf(s));
        }
      }
      plan.units.push_back(std::move(unit));
    }
  }
  ScopedSpan span(spans, SpanName::kIntern, 0);
  Engine& engine = *plan.engine;
  const uint64_t start = NowNs();
  for (ProgramUnit& unit : plan.units) {
    for (const Pattern& read : unit.reads) engine.Intern(read);
    for (UpdateOp& update : unit.updates) update = engine.Bind(update);
    for (Edit& edit : unit.edits) {
      if (edit.read) engine.Intern(*edit.read);
      if (edit.update) edit.update = engine.Bind(*edit.update);
    }
    for (auto& session : unit.merge_sessions) {
      for (UpdateOp& update : session) update = engine.Bind(update);
    }
  }
  plan.intern_us = static_cast<double>(NowNs() - start) / 1000.0;
  return plan;
}

/// The outputs of the first run of a program, checked after the loop;
/// later runs of the same program (a wrapped plan) must match them.
struct ProgramRecord {
  std::atomic<uint8_t> state{0};  // 0 empty, 1 being written, 2 published
  uint64_t first_unit = 0;
  std::vector<PatternRef> read_refs;
  std::vector<UpdateOp> updates;
  /// Verdict * 8 + method per cell, row-major; -1 for an error cell.
  std::vector<int> cells;
  std::optional<Tree> merged;
  xmlup::MergeReport report;
};

int CellCode(const xmlup::SharedConflictResult& cell) {
  if (!cell->ok()) return -1;
  return static_cast<int>((*cell)->verdict) * 8 +
         static_cast<int>((*cell)->method);
}

/// Every session's final matrix against a from-scratch DetectMatrix, and
/// every merged tree against the serial reference by canonical code.
void CheckOutputs(ProgramPlan* plan, const ProgramRecord* records,
                  WorkloadRun* run) {
  for (size_t i = 0; i < plan->units.size(); ++i) {
    const ProgramRecord& record = records[i];
    if (record.state.load(std::memory_order_acquire) != 2) continue;
    const std::string where = "unit " + std::to_string(record.first_unit);
    const std::vector<xmlup::SharedConflictResult> fresh =
        plan->engine->DetectMatrix(record.read_refs, record.updates);
    bool same = fresh.size() == record.cells.size();
    for (size_t c = 0; same && c < fresh.size(); ++c) {
      same = CellCode(fresh[c]) == record.cells[c];
    }
    if (!same) {
      run->CheckFail(where + ": session matrix differs from DetectMatrix");
    }
    if (!record.merged) continue;
    Tree reference = xmlup::CopyTree(plan->units[i].seed_tree);
    xmlup::ApplySerialReference(&reference, plan->units[i].merge_sessions,
                                record.report);
    if (xmlup::CanonicalCode(reference) !=
        xmlup::CanonicalCode(*record.merged)) {
      run->CheckFail(where + ": merged tree differs from the serial reference");
    }
  }
}

}  // namespace

WorkloadRun RunProgramEdit(const RunOptions& options) {
  WorkloadRun run;
  xmlup::obs::MetricsSnapshot before;
  ProgramPlan plan = RepeatSetUp<ProgramPlan>(
      options.loop.clients, options.loop.trace,
      [&](SpanRecorder* spans, xmlup::obs::MetricsSnapshot* window) {
        return SetUp(options.seed, spans, window);
      },
      &before, &run);

  Engine& engine = *plan.engine;
  std::unique_ptr<ProgramRecord[]> records(
      new ProgramRecord[plan.units.size()]);
  xmlup::MergeOptions merge_options;
  merge_options.num_threads = 1;

  auto unit = [&](uint64_t index, ClientState* state) {
    const size_t slot = index % plan.units.size();
    const ProgramUnit& program = plan.units[slot];
    uint64_t op = index * kOpsPerUnit;
    auto timed = [&](OpKind kind, SpanName name, auto&& call) {
      ScopedSpan op_span(&state->spans, SpanName::kOp, op);
      const uint64_t start = NowNs();
      {
        ScopedSpan span(&state->spans, name, op);
        call();
      }
      state->Record(kind, start, NowNs());
      ++op;
    };

    std::unique_ptr<Engine::Session> session;
    timed(OpKind::kEdit, SpanName::kSessionEdit, [&] {
      session = engine.MakeSession();
      session->matrix().Assign(program.reads, program.updates);
    });
    xmlup::MaintainedConflictMatrix& matrix = session->matrix();
    for (const Edit& edit : program.edits) {
      timed(OpKind::kEdit, SpanName::kSessionEdit,
            [&] { ApplyEdit(edit, &matrix); });
    }
    xmlup::LintResult lint;
    timed(OpKind::kLint, SpanName::kLint,
          [&] { lint = engine.Lint(program.edited); });
    const xmlup::MergeExecutor executor(&engine, merge_options);
    Tree merged = xmlup::CopyTree(program.seed_tree);
    std::optional<Result<xmlup::MergeReport>> report;
    timed(OpKind::kMerge, SpanName::kMerge, [&] {
      report = executor.Merge(&merged, program.merge_sessions);
    });

    // Outputs: the final matrix cells, the lint verdict count, the merge.
    std::vector<int> cells;
    const std::vector<xmlup::SharedConflictResult> row_major =
        matrix.RowMajor();
    for (size_t c = 0; c < row_major.size(); ++c) {
      cells.push_back(CellCode(row_major[c]));
      const uint64_t key = Mix64(index) ^ c;
      if (!row_major[c]->ok()) {
        state->Fail("unit " + std::to_string(index) + ": matrix cell " +
                    std::to_string(c) + " is " +
                    row_major[c]->status().ToString());
        continue;
      }
      state->tally.Add(key, (*row_major[c])->verdict, (*row_major[c])->method);
    }
    state->tally.AddValue(Mix64(index) ^ 0x11a7, lint.diagnostics.size());
    if (!report->ok()) {
      state->Fail("unit " + std::to_string(index) + ": Merge returned " +
                  report->status().ToString());
    } else {
      state->tally.AddValue(Mix64(index) ^ 0x3e26,
                            (*report)->accepted * 1000003 + (*report)->levels);
    }

    ProgramRecord& record = records[slot];
    uint8_t expected = 0;
    if (record.state.compare_exchange_strong(expected, 1,
                                             std::memory_order_acquire)) {
      record.first_unit = index;
      for (size_t r = 0; r < matrix.num_reads(); ++r) {
        record.read_refs.push_back(matrix.read_ref(r));
      }
      for (size_t u = 0; u < matrix.num_updates(); ++u) {
        record.updates.push_back(matrix.update(u));
      }
      record.cells = std::move(cells);
      if (report->ok()) {
        record.merged = std::move(merged);
        record.report = **report;
      }
      record.state.store(2, std::memory_order_release);
    } else if (expected == 2 && record.cells != cells) {
      state->Fail("unit " + std::to_string(index) +
                  ": matrix differs from unit " +
                  std::to_string(record.first_unit) + " on the same program");
    }
  };

  run.symbols_before = engine.symbols()->size();
  run.elapsed_s = RunClosedLoop(options.loop, unit, &run.clients);
  run.symbols_after = engine.symbols()->size();
  run.counters = engine.MetricsSnapshot().DiffSince(before);
  for (const ClientState& client : run.clients) run.units += client.units;
  CheckOutputs(&plan, records.get(), &run);
  return run;
}

}  // namespace perfbench
