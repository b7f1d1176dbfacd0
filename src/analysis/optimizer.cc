#include "analysis/optimizer.h"

#include <algorithm>

#include "pattern/pattern_ops.h"

namespace xmlup {

Optimizer::Optimizer(DetectorOptions options) : analyzer_(options) {}

OptimizeResult Optimizer::EliminateCommonReads(const Program& program) const {
  OptimizeResult result;
  result.program = program;
  result.analysis = analyzer_.Analyze(program);
  result.reads_aliased = AliasCommonReads(result.analysis, &result.program);
  return result;
}

size_t Optimizer::AliasCommonReads(const DependenceAnalysisResult& analysis,
                                   Program* program) {
  size_t reads_aliased = 0;
  auto& statements = program->mutable_statements();
  for (size_t j = 0; j < statements.size(); ++j) {
    Statement& later = statements[j];
    if (later.kind != Statement::Kind::kRead || later.alias_of.has_value()) {
      continue;
    }
    for (size_t i = 0; i < j; ++i) {
      const Statement& earlier = statements[i];
      if (earlier.kind != Statement::Kind::kRead) continue;
      if (earlier.alias_of.has_value()) continue;
      if (earlier.target_var != later.target_var) continue;
      if (!PatternsIdentical(earlier.pattern, later.pattern)) continue;
      // Safe iff no update between i and j conflicts with this read; the
      // dependence edges (i..j, j) capture exactly that.
      bool blocked = false;
      for (size_t k = i + 1; k < j && !blocked; ++k) {
        if (statements[k].kind == Statement::Kind::kRead) continue;
        blocked = analysis.Depends(k, j);
      }
      if (blocked) continue;
      later.alias_of = i;
      ++reads_aliased;
      break;
    }
  }
  return reads_aliased;
}

std::vector<size_t> Optimizer::HoistReadsSchedule(
    const Program& program) const {
  const DependenceAnalysisResult analysis = analyzer_.Analyze(program);
  const size_t n = program.size();
  std::vector<std::vector<size_t>> successors(n);
  std::vector<size_t> in_degree(n, 0);
  for (const Dependence& d : analysis.dependences) {
    successors[d.from].push_back(d.to);
    ++in_degree[d.to];
  }
  // Kahn's algorithm with a priority: ready reads first (hoisting), then
  // original order as a tiebreak for determinism.
  std::vector<size_t> schedule;
  std::vector<bool> done(n, false);
  while (schedule.size() < n) {
    size_t pick = SIZE_MAX;
    bool pick_is_read = false;
    for (size_t i = 0; i < n; ++i) {
      if (done[i] || in_degree[i] != 0) continue;
      const bool is_read =
          program.statements()[i].kind == Statement::Kind::kRead;
      if (pick == SIZE_MAX || (is_read && !pick_is_read)) {
        pick = i;
        pick_is_read = is_read;
      }
    }
    XMLUP_CHECK(pick != SIZE_MAX);
    done[pick] = true;
    schedule.push_back(pick);
    for (size_t succ : successors[pick]) --in_degree[succ];
  }
  return schedule;
}

Program Optimizer::Reorder(const Program& program,
                           const std::vector<size_t>& schedule) {
  XMLUP_CHECK(schedule.size() == program.size());
  Program reordered;
  for (size_t index : schedule) {
    const Statement& s = program.statements()[index];
    XMLUP_CHECK_STREAM(!s.alias_of.has_value())
        << "reorder CSE-annotated programs before aliasing, not after";
    switch (s.kind) {
      case Statement::Kind::kRead:
        reordered.AddRead(s.result_var, s.target_var, s.pattern);
        break;
      case Statement::Kind::kInsert:
        reordered.AddInsert(s.target_var, s.pattern, s.content);
        break;
      case Statement::Kind::kDelete:
        reordered.AddDelete(s.target_var, s.pattern);
        break;
    }
  }
  return reordered;
}

}  // namespace xmlup
