#include "analysis/dependence.h"

#include <algorithm>
#include <optional>
#include <unordered_map>

#include "conflict/update_independence.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pattern/pattern_store.h"

namespace xmlup {
namespace {

/// Analyzer observability: how many statement pairs were examined and how
/// many candidate ordering edges the conflict verdicts pruned away (the
/// payoff metric — pruned edges are the parallelism §6 is after).
struct DependenceMetrics {
  obs::Counter& pairs_analyzed;
  obs::Counter& edges_pruned;

  static const DependenceMetrics& Get() {
    static const DependenceMetrics* const metrics = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
      return new DependenceMetrics{
          reg.GetCounter("dependence.pairs_analyzed"),
          reg.GetCounter("dependence.edges_pruned"),
      };
    }();
    return *metrics;
  }
};

bool IsUpdate(const Statement& s) {
  return s.kind == Statement::Kind::kInsert ||
         s.kind == Statement::Kind::kDelete;
}

std::optional<UpdateOp> ToUpdateOp(const Statement& s) {
  if (s.kind == Statement::Kind::kInsert) {
    if (s.content == nullptr) return std::nullopt;
    return UpdateOp::MakeInsert(s.pattern, s.content);
  }
  Result<UpdateOp> del = UpdateOp::MakeDelete(s.pattern);
  if (!del.ok()) return std::nullopt;
  return std::move(del).value();
}

}  // namespace

std::string_view DependenceKindName(DependenceKind kind) {
  switch (kind) {
    case DependenceKind::kConflict:
      return "conflict";
    case DependenceKind::kUnknown:
      return "unknown";
    case DependenceKind::kError:
      return "error";
    case DependenceKind::kUncertifiedUpdates:
      return "uncertified-updates";
    case DependenceKind::kMalformed:
      return "malformed";
  }
  return "unknown";
}

bool DependenceAnalysisResult::Depends(size_t from, size_t to) const {
  return std::binary_search(
      dependences.begin(), dependences.end(), Dependence{from, to, {}, {}},
      [](const Dependence& a, const Dependence& b) {
        return a.from != b.from ? a.from < b.from : a.to < b.to;
      });
}

DependenceAnalyzer::DependenceAnalyzer(DetectorOptions options)
    : DependenceAnalyzer(
          BatchDetectorOptions{options, 0, true, true, nullptr, 0}) {}

DependenceAnalyzer::DependenceAnalyzer(BatchDetectorOptions options)
    : DependenceAnalyzer(std::make_shared<BatchConflictDetector>(options)) {}

DependenceAnalyzer::DependenceAnalyzer(
    std::shared_ptr<BatchConflictDetector> batch)
    : batch_(std::move(batch)) {}

DependenceAnalysisResult DependenceAnalyzer::Analyze(
    const Program& program) const {
  obs::TraceSpan span("DependenceAnalyze");
  DependenceAnalysisResult result;
  const auto& statements = program.statements();

  // Pass 1: bind every well-formed update once (malformed ones stay
  // unbound and are reported), then collect every read/update pair on a
  // shared variable for the batch engine; each statement enters the
  // read/update pools once, and its pattern is interned into the engine's
  // store here — the batch call below then runs entirely on refs, with no
  // per-pair canonicalization.
  const std::shared_ptr<PatternStore>& store = batch_->pattern_store();
  std::vector<std::optional<UpdateOp>> ops(statements.size());
  for (size_t s = 0; s < statements.size(); ++s) {
    if (!IsUpdate(statements[s])) continue;
    std::optional<UpdateOp> op = ToUpdateOp(statements[s]);
    if (op.has_value()) {
      ops[s] = op->Bind(store);
    } else {
      result.malformed.push_back(s);
    }
  }
  std::vector<PatternRef> reads;
  std::vector<UpdateOp> updates;
  std::unordered_map<size_t, size_t> read_slot;    // statement → reads idx
  std::unordered_map<size_t, size_t> update_slot;  // statement → updates idx
  std::vector<ReadUpdatePair> pairs;
  auto read_index_of = [&](size_t s) {
    auto [it, inserted] = read_slot.emplace(s, reads.size());
    if (inserted) reads.push_back(store->Intern(statements[s].pattern));
    return it->second;
  };
  auto update_index_of = [&](size_t s) {
    auto [it, inserted] = update_slot.emplace(s, updates.size());
    if (inserted) updates.push_back(*ops[s]);
    return it->second;
  };
  for (size_t i = 0; i < statements.size(); ++i) {
    for (size_t j = i + 1; j < statements.size(); ++j) {
      const Statement& a = statements[i];
      const Statement& b = statements[j];
      if (a.target_var != b.target_var) continue;
      if (IsUpdate(a) == IsUpdate(b)) continue;  // read/read, update/update
      const size_t read_stmt = IsUpdate(a) ? j : i;
      const size_t update_stmt = IsUpdate(a) ? i : j;
      if (!ops[update_stmt].has_value()) continue;
      pairs.push_back({read_index_of(read_stmt), update_index_of(update_stmt)});
    }
  }
  result.read_update_pairs = pairs.size();
  const std::vector<SharedConflictResult> verdicts =
      batch_->DetectPairs(reads, updates, pairs);

  // Pass 2: classify every pair in (from, to) order, consuming batch
  // verdicts in the order pass 1 enqueued them.
  const DetectorOptions& detector = batch_->options().detector;
  size_t next_verdict = 0;
  for (size_t i = 0; i < statements.size(); ++i) {
    for (size_t j = i + 1; j < statements.size(); ++j) {
      ++result.pairs_total;
      const Statement& a = statements[i];
      const Statement& b = statements[j];
      if (a.target_var != b.target_var || (!IsUpdate(a) && !IsUpdate(b))) {
        ++result.pairs_independent;
        continue;
      }
      Dependence dependence{i, j, DependenceKind::kMalformed, {}};
      if (IsUpdate(a) && IsUpdate(b)) {
        // §6: update-update conflicts are NP-hard in general, but the
        // sound commutativity certificate of update_independence.h proves
        // many pairs reorderable; anything uncertified stays ordered.
        if (ops[i].has_value() && ops[j].has_value()) {
          ++result.update_pairs;
          const Result<IndependenceReport> cert =
              CertifyUpdatesCommute(*ops[i], *ops[j], detector);
          if (cert.ok() &&
              cert->certificate == CommutativityCertificate::kCertified) {
            ++result.pairs_independent;
            continue;
          }
          dependence.kind = DependenceKind::kUncertifiedUpdates;
          dependence.detail =
              cert.ok() ? cert->detail : cert.status().ToString();
        }
      } else if (ops[IsUpdate(a) ? i : j].has_value()) {
        const Result<ConflictReport>& report = *verdicts[next_verdict++];
        if (!report.ok()) {
          dependence.kind = DependenceKind::kError;
          dependence.detail = report.status().ToString();
        } else if (report->verdict == ConflictVerdict::kNoConflict) {
          ++result.pairs_independent;
          continue;
        } else {
          // The soundness invariant: truncation is a dependence.
          dependence.kind = report->verdict == ConflictVerdict::kConflict
                                ? DependenceKind::kConflict
                                : DependenceKind::kUnknown;
        }
      }
      result.dependences.push_back(std::move(dependence));
    }
  }
  const DependenceMetrics& metrics = DependenceMetrics::Get();
  metrics.pairs_analyzed.Increment(result.pairs_total);
  metrics.edges_pruned.Increment(result.pairs_independent);
  result.batch_stats = batch_->stats();
  return result;
}

}  // namespace xmlup
