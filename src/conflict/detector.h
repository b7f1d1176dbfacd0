#ifndef XMLUP_CONFLICT_DETECTOR_H_
#define XMLUP_CONFLICT_DETECTOR_H_

#include <optional>

#include "common/result.h"
#include "conflict/bounded_search.h"
#include "conflict/report.h"
#include "conflict/update_op.h"
#include "conflict/witness_check.h"
#include "match/matching.h"
#include "pattern/pattern.h"
#include "pattern/pattern_store.h"
#include "xml/tree.h"

namespace xmlup {

class Dtd;

struct DetectorOptions {
  ConflictSemantics semantics = ConflictSemantics::kNode;
  /// Budget for the NP path (branching reads).
  BoundedSearchOptions search;
  /// Construct (and re-verify) a witness tree on kConflict verdicts.
  /// Verdict-only callers (the batch matrix, lint, the §6 commutativity
  /// certificates) can turn this off: the witness construction mints fresh
  /// labels and re-runs the Lemma 1 checker per conflict, which dominates
  /// the cached hot path. Verdict, method and detail are unaffected. The
  /// branching-read heuristic internally still builds the mainline witness
  /// it extends (its soundness proof needs the verified tree).
  bool build_witness = true;
  /// Schema for the Stage 0 type-pruning filter (dtd/type_summary.h).
  /// When set, detection is *conservative under the schema*: Stage 0 may
  /// answer kNoConflict (method kTypePruned) for pairs that cannot
  /// conflict on any DTD-conformant document, while Stages 1-2 keep the
  /// unrestricted-document semantics of the paper. Setting a schema can
  /// only refine kConflict/kUnknown answers into schema-sound kNoConflict
  /// ones — it never flips a no-conflict verdict. Must share the caller's
  /// SymbolTable and outlive every Detect call (the PatternStore caches
  /// summaries keyed by its address). Null disables Stage 0 entirely.
  const Dtd* dtd = nullptr;
  /// Ablation toggle for Stage 0; meaningful only with `dtd` set. With
  /// pruning off (or no schema) the pipeline is byte-identical to the
  /// pre-Stage-0 detector.
  bool enable_type_pruning = true;
};

/// Stage 0 of the staged verdict pipeline, exposed for batch callers that
/// want to prune a pair *before* spending a memo-cache slot on it: when a
/// schema is configured and the pair's type footprints are disjoint,
/// returns the (fixed-field) kTypePruned / kNoConflict report; otherwise
/// nullopt, and the pair belongs in Stages 1-2 (a full Detect call).
/// Summaries are served from the store's per-entry cache
/// (PatternStore::type_summary). `insert_content` is required for insert
/// updates and ignored for deletes. Does not touch the detector.* counters
/// — Detect's own Stage 0 does its accounting inside the pipeline.
std::optional<ConflictReport> TypePruneStage(const PatternStore& store,
                                             PatternRef read,
                                             UpdateOp::Kind kind,
                                             PatternRef update_pattern,
                                             const Tree* insert_content,
                                             const DetectorOptions& options);

/// Read-update conflict detection — the one detector pipeline. The read
/// is an interned pattern and `update` must be bound to the same `store`
/// (the ref factories, UpdateOp::Bind or Engine::Bind); Engine::Detect
/// binds on the caller's behalf. Detection runs on the store's
/// pre-minimized patterns: the linear stages match mainlines by the §4.1
/// dynamic program (MatchDp) — a linear stored pattern is its own
/// mainline, a branching one's is extracted per call. A staged
/// verdict pipeline where each stage either returns a final report or
/// hands the pair down:
///   - Stage 0 (only with options.dtd set): the schema-type disjointness
///     filter — method kTypePruned, always kNoConflict, no matching work;
///   - Stage 1: dispatch on the read's shape — linear read: the complete
///     polynomial algorithms (Theorems 1-2, Corollaries 1-2), method
///     kLinearPtime, definitive verdict; branching read: the sound
///     mainline heuristic (method kMainlineHeuristic on success);
///   - Stage 2: bounded witness search (method kBoundedSearch), which may
///     answer kUnknown when the budget does not cover the paper's witness
///     bound.
/// Minimization is equivalence-preserving, so verdicts hold for the
/// original (un-minimized) patterns too.
///
/// An invalid read ref (or one minted by another store, when detectable)
/// and an update that is unbound or bound to another store return
/// InvalidArgument and count under detector.errors. Per-call
/// verdict/method counters and a latency histogram are reported into
/// obs::MetricsRegistry::Default(); a "Detect" span is recorded when
/// obs::TraceRecorder::Default() is enabled.
Result<ConflictReport> Detect(const PatternStore& store, PatternRef read,
                              const UpdateOp& update,
                              const DetectorOptions& options = {});

}  // namespace xmlup

#endif  // XMLUP_CONFLICT_DETECTOR_H_
