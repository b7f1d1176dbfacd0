#ifndef XMLUP_ANALYSIS_DEPENDENCE_H_
#define XMLUP_ANALYSIS_DEPENDENCE_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/program.h"
#include "conflict/batch_detector.h"
#include "conflict/detector.h"

namespace xmlup {

/// Data-dependence analysis over a straight-line update program — the
/// compiler use case that motivates the paper (§1): knowing that a read
/// does not conflict with an update enables code motion and common
/// subexpression elimination.
///
/// Pairwise classification:
///  - statements on different tree variables are independent;
///  - read/read pairs are independent;
///  - read/update pairs use the unified conflict detector (complete for
///    linear reads, Theorems 1-2); an Unknown verdict or a detector error
///    is treated as a dependence (conservative);
///  - update/update pairs on the same variable stay dependent unless the
///    §6 commutativity certificate (conflict/update_independence.h)
///    proves them reorderable;
///  - an update the detectors cannot model (a delete selecting the root,
///    an insert without content) depends on every statement on its
///    variable.
///
/// Analyze() is the one place a program's updates are bound, its
/// read/update pairs solved and its update pairs certified: the
/// Optimizer and the Linter read its result instead of re-solving. All
/// read/update pairs go through one call of the batch conflict-matrix
/// engine (conflict/batch_detector.h): solved on a thread pool with
/// memoization on canonical pattern pairs, so programs with repeated
/// patterns — the common case for generated programs — pay for each
/// distinct pair once. The memo cache persists across Analyze() calls on
/// the same engine.

/// Why two statements must stay ordered.
enum class DependenceKind {
  kConflict,            // the detector proved a read/update conflict
  kUnknown,             // truncated bounded search: possibly conflicting
  kError,               // the detector failed on the pair
  kUncertifiedUpdates,  // update pair without a commutativity certificate
  kMalformed,           // an update the detectors cannot model
};

std::string_view DependenceKindName(DependenceKind kind);

struct Dependence {
  size_t from;  // earlier statement index
  size_t to;    // later statement index
  DependenceKind kind;
  /// kUncertifiedUpdates: the certifier's detail (or its error status);
  /// kError: the detector's status. Empty otherwise.
  std::string detail;
};

struct DependenceAnalysisResult {
  /// Every ordered pair, sorted by (from, to).
  std::vector<Dependence> dependences;
  /// Update statements the detectors cannot model, in index order.
  std::vector<size_t> malformed;
  /// Pairs examined and pairs proven independent (benchmark E8 reports the
  /// independent fraction).
  size_t pairs_total = 0;
  size_t pairs_independent = 0;
  /// Read/update pairs sent to the batch engine, and update/update pairs
  /// sent to the commutativity certifier.
  size_t read_update_pairs = 0;
  size_t update_pairs = 0;
  /// Snapshot of the batch engine's cumulative cache/solve counters after
  /// this analysis.
  BatchStats batch_stats;

  /// Whether statement `to` must stay after statement `from` (from < to);
  /// a binary search over `dependences`.
  bool Depends(size_t from, size_t to) const;
};

class DependenceAnalyzer {
 public:
  explicit DependenceAnalyzer(DetectorOptions options = {});
  /// Full control over threading and memoization of the batch engine.
  explicit DependenceAnalyzer(BatchDetectorOptions options);
  /// Runs on an existing matrix engine (the Engine's own), sharing its
  /// memo cache and pool; the engine's single-caller contract applies.
  explicit DependenceAnalyzer(std::shared_ptr<BatchConflictDetector> batch);

  DependenceAnalysisResult Analyze(const Program& program) const;

 private:
  /// The memo cache warms across Analyze() calls; the analysis result
  /// itself is deterministic either way.
  std::shared_ptr<BatchConflictDetector> batch_;
};

}  // namespace xmlup

#endif  // XMLUP_ANALYSIS_DEPENDENCE_H_
