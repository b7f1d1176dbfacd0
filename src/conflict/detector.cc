#include "conflict/detector.h"

#include "common/check.h"
#include "conflict/read_delete.h"
#include "conflict/read_insert.h"
#include "conflict/witness_build.h"
#include "dtd/type_summary.h"
#include "obs/metrics.h"
#include "obs/scoped_timer.h"
#include "obs/trace.h"
#include "pattern/pattern_ops.h"
#include "xml/tree_algos.h"

namespace xmlup {
namespace {

/// Detector-level observability: per-verdict and per-method counters, the
/// linear-vs-bounded dispatch split, and an end-to-end latency histogram.
/// References are resolved once; the steady-state cost per Detect() call
/// is a handful of relaxed atomic adds.
struct DetectorMetrics {
  obs::Counter& calls;
  obs::Counter& errors;
  obs::Counter& dispatch_linear;
  obs::Counter& dispatch_branching;
  obs::Counter& verdict_conflict;
  obs::Counter& verdict_no_conflict;
  obs::Counter& verdict_unknown;
  obs::Counter& method_linear;
  obs::Counter& method_mainline;
  obs::Counter& method_bounded;
  obs::Counter& method_type_pruned;
  obs::Histogram& latency_us;

  static const DetectorMetrics& Get() {
    static const DetectorMetrics* const metrics = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
      return new DetectorMetrics{
          reg.GetCounter("detector.calls"),
          reg.GetCounter("detector.errors"),
          reg.GetCounter("detector.dispatch.linear"),
          reg.GetCounter("detector.dispatch.branching"),
          reg.GetCounter("detector.verdict.conflict"),
          reg.GetCounter("detector.verdict.no_conflict"),
          reg.GetCounter("detector.verdict.unknown"),
          reg.GetCounter("detector.method.linear_ptime"),
          reg.GetCounter("detector.method.mainline_heuristic"),
          reg.GetCounter("detector.method.bounded_search"),
          reg.GetCounter("detector.method.type_pruned"),
          reg.GetHistogram("detector.latency_us"),
      };
    }();
    return *metrics;
  }
};

/// Every Detect() call lands in exactly one of the four outcome counters:
/// calls == conflict + no_conflict + unknown + errors. Tested by the
/// accounting-invariant test in detect_hot_cache_test.cc.
void CountOutcome(const DetectorMetrics& metrics,
                  const Result<ConflictReport>& result);

void CountReport(const DetectorMetrics& metrics, const ConflictReport& report) {
  switch (report.verdict) {
    case ConflictVerdict::kConflict:
      metrics.verdict_conflict.Increment();
      break;
    case ConflictVerdict::kNoConflict:
      metrics.verdict_no_conflict.Increment();
      break;
    case ConflictVerdict::kUnknown:
      metrics.verdict_unknown.Increment();
      break;
  }
  switch (report.method) {
    case DetectorMethod::kLinearPtime:
      metrics.method_linear.Increment();
      break;
    case DetectorMethod::kMainlineHeuristic:
      metrics.method_mainline.Increment();
      break;
    case DetectorMethod::kBoundedSearch:
      metrics.method_bounded.Increment();
      break;
    case DetectorMethod::kTypePruned:
      metrics.method_type_pruned.Increment();
      break;
  }
}

void CountOutcome(const DetectorMetrics& metrics,
                  const Result<ConflictReport>& result) {
  if (result.ok()) {
    CountReport(metrics, *result);
  } else {
    metrics.errors.Increment();
  }
}

/// The only per-kind code in the pipeline: the mainline linear core
/// (Lemma 3 for deletes, Lemmas 5-7 for inserts), the Lemma 1 witness
/// checker and the bounded search. `content` is null for deletes.
struct UpdateKindOps {
  const Pattern& update;
  const Pattern& update_mainline;
  const Tree* content;
  const DetectorOptions& options;

  Result<ConflictReport> Linear(const Pattern& read_mainline,
                                bool build_witness) const {
    if (content != nullptr) {
      return DetectMainlineReadInsertConflict(
          read_mainline, update_mainline, update, *content, options.semantics,
          build_witness);
    }
    return DetectMainlineReadDeleteConflict(read_mainline, update_mainline,
                                            update, options.semantics,
                                            build_witness);
  }

  bool IsWitness(const Pattern& read, const Tree& t) const {
    return content != nullptr
               ? IsReadInsertWitness(read, update, *content, t,
                                     options.semantics)
               : IsReadDeleteWitness(read, update, t, options.semantics);
  }

  BruteForceResult Search(const Pattern& read) const {
    return content != nullptr
               ? BruteForceReadInsertSearch(read, update, *content,
                                            options.semantics, options.search)
               : BruteForceReadDeleteSearch(read, update, options.semantics,
                                            options.search);
  }
};

/// Heuristic fast path for branching reads: run the complete linear
/// algorithm on the read's mainline; if that conflicts, extend its witness
/// with models of the read's branch subtrees (so the predicates hold) and
/// check the result against the definitional checker. Sound — anything
/// accepted is a verified witness — but incomplete; failures fall through
/// to the bounded search.
std::optional<Tree> TryMainlineWitness(const Pattern& read,
                                       const ConflictReport& linear,
                                       const UpdateKindOps& ops) {
  if (!linear.conflict() || !linear.witness.has_value()) return std::nullopt;
  Tree candidate = CopyTree(*linear.witness);
  GraftBranchModelsEverywhere(&candidate, read);
  if (ops.IsWitness(read, candidate)) return candidate;
  return std::nullopt;
}

ConflictReport MainlineHeuristicReport(Tree witness) {
  ConflictReport report;
  report.verdict = ConflictVerdict::kConflict;
  report.witness = std::move(witness);
  report.method = DetectorMethod::kMainlineHeuristic;
  report.detail = "mainline witness extended with branch models";
  return report;
}

ConflictReport FromSearch(BruteForceResult search, size_t paper_bound,
                          size_t searched_bound) {
  ConflictReport report;
  report.method = DetectorMethod::kBoundedSearch;
  report.trees_checked = search.trees_checked;
  switch (search.outcome) {
    case SearchOutcome::kWitnessFound:
      report.verdict = ConflictVerdict::kConflict;
      report.witness = std::move(search.witness);
      break;
    case SearchOutcome::kExhaustedNoWitness:
      // Complete only if the searched size covers the paper's witness
      // bound (Lemma 11 / Theorem 5) AND the enumeration really covered
      // the whole space — a truncated search must stay kUnknown no matter
      // what its outcome field claims (defense in depth; RunSearch already
      // downgrades truncated searches to kBudgetExceeded).
      report.verdict = (searched_bound >= paper_bound && !search.truncated)
                           ? ConflictVerdict::kNoConflict
                           : ConflictVerdict::kUnknown;
      break;
    case SearchOutcome::kBudgetExceeded:
      report.verdict = ConflictVerdict::kUnknown;
      break;
  }
  return report;
}

/// Stages 0-2 for one pair, shared by both update kinds. The linear path
/// and the branching heuristic's mainline probe run the one mainline core
/// on the read's mainline; only the heuristic extension and the bounded
/// search touch the full stored read.
Result<ConflictReport> RunPipeline(const PatternStore& store, PatternRef read,
                                   const UpdateOp& update,
                                   const DetectorOptions& options) {
  const Tree* content = update.kind() == UpdateOp::Kind::kInsert
                            ? &update.content()
                            : nullptr;
  if (content == nullptr) {
    XMLUP_RETURN_NOT_OK(ValidateDeletePattern(update.pattern()));
  }
  if (std::optional<ConflictReport> pruned =
          TypePruneStage(store, read, update.kind(), update.pattern_ref(),
                         content, options)) {
    return std::move(*pruned);
  }
  // Corollaries 1-2: only the update's mainline matters. A linear stored
  // pattern is its own mainline, so the linear hot path copies nothing.
  std::optional<Pattern> update_mainline;
  if (!store.linear(update.pattern_ref())) {
    update_mainline.emplace(Mainline(update.pattern()));
  }
  const UpdateKindOps ops{
      update.pattern(),
      update_mainline.has_value() ? *update_mainline : update.pattern(),
      content, options};
  const DetectorMetrics& metrics = DetectorMetrics::Get();
  if (store.linear(read)) {
    metrics.dispatch_linear.Increment();
    return ops.Linear(store.pattern(read), options.build_witness);
  }
  metrics.dispatch_branching.Increment();
  // Heuristic: a conflict of the read's mainline often extends to the full
  // branching read once its predicates are satisfiable everywhere. The
  // mainline probe always builds its witness — TryMainlineWitness extends
  // that verified tree.
  const Pattern& full_read = store.pattern(read);
  Result<ConflictReport> mainline_report =
      ops.Linear(Mainline(full_read), /*build_witness=*/true);
  // The mainline of any read is linear, so a failure here is a real
  // InvalidArgument/Internal error, not a heuristic miss — propagate it
  // instead of masking it behind the bounded search.
  if (!mainline_report.ok()) return mainline_report;
  std::optional<Tree> candidate =
      TryMainlineWitness(full_read, *mainline_report, ops);
  if (candidate.has_value()) {
    return MainlineHeuristicReport(std::move(*candidate));
  }
  return FromSearch(ops.Search(full_read),
                    PaperWitnessBound(full_read, update.pattern()),
                    options.search.max_nodes);
}

}  // namespace

std::optional<ConflictReport> TypePruneStage(const PatternStore& store,
                                             PatternRef read,
                                             UpdateOp::Kind kind,
                                             PatternRef update_pattern,
                                             const Tree* insert_content,
                                             const DetectorOptions& options) {
  if (options.dtd == nullptr || !options.enable_type_pruning) {
    return std::nullopt;
  }
  const Dtd& dtd = *options.dtd;
  const TypeSummary& read_summary = store.type_summary(read, dtd);
  const TypeSummary& update_summary = store.type_summary(update_pattern, dtd);
  bool pruned;
  if (kind == UpdateOp::Kind::kInsert) {
    XMLUP_CHECK_STREAM(insert_content != nullptr)
        << "TypePruneStage: insert update without content tree";
    pruned = TypePrunesReadInsert(read_summary, update_summary,
                                  *insert_content, options.semantics);
  } else {
    pruned = TypePrunesReadDelete(read_summary, update_summary,
                                  options.semantics);
  }
  if (!pruned) return std::nullopt;
  return TypePrunedReport();
}

Result<ConflictReport> Detect(const PatternStore& store, PatternRef read,
                              const UpdateOp& update,
                              const DetectorOptions& options) {
  const DetectorMetrics& metrics = DetectorMetrics::Get();
  metrics.calls.Increment();
  // Malformed operands are counted errors, not crashes: callers handing out
  // refs (services, the lint driver) get a diagnosable status and the
  // accounting invariant still holds.
  if (!read.valid() || read.id() >= store.size()) {
    metrics.errors.Increment();
    return Status::InvalidArgument(
        "PatternRef is invalid or does not belong to this store");
  }
  if (update.pattern_store() != &store || !update.pattern_ref().valid()) {
    metrics.errors.Increment();
    return Status::InvalidArgument(
        "update is not bound to this store (UpdateOp::Bind / Engine::Bind)");
  }
  obs::ScopedTimer timer(&metrics.latency_us);
  obs::TraceSpan span("Detect");
  Result<ConflictReport> result = RunPipeline(store, read, update, options);
  CountOutcome(metrics, result);
  return result;
}

}  // namespace xmlup
