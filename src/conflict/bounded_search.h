#ifndef XMLUP_CONFLICT_BOUNDED_SEARCH_H_
#define XMLUP_CONFLICT_BOUNDED_SEARCH_H_

#include <functional>
#include <initializer_list>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <vector>

#include "conflict/witness_check.h"
#include "pattern/pattern.h"
#include "xml/tree.h"

namespace xmlup {

/// The canonical shape table: every unordered labeled tree with
/// 1..max_nodes nodes over an alphabet of `alphabet_size` labels, each
/// isomorphism class exactly once (children in a canonical non-increasing
/// id order). Labels are stored as alphabet indices, so one table serves
/// every alphabet of that size. A child always has a smaller id than its
/// parent: ascending id order is a bottom-up order. Immutable once built.
class ShapeTable {
 public:
  /// Bounds of the process-wide cache behind Get(): at most
  /// kMaxCachedTables tables holding kMaxCachedShapes shapes in total
  /// (about 20 bytes a shape), least recently used evicted first. A table
  /// larger than kMaxCachedShapes is built per call and never retained.
  static constexpr uint64_t kMaxCachedShapes = uint64_t{1} << 18;
  static constexpr size_t kMaxCachedTables = 32;

  /// Generates the table; stops (truncated()) once `max_shapes` shapes
  /// exist and another one is due.
  ShapeTable(size_t alphabet_size, size_t max_nodes, uint64_t max_shapes);

  /// The table for this key, shared through the bounded cache. Equal to
  /// a fresh ShapeTable(alphabet_size, max_nodes, max_shapes) in every
  /// shape, label and in truncated().
  static std::shared_ptr<const ShapeTable> Get(size_t alphabet_size,
                                               size_t max_nodes,
                                               uint64_t max_shapes);

  uint32_t size() const { return static_cast<uint32_t>(labels_.size()); }
  /// True if the cap stopped generation before all shapes were produced.
  bool truncated() const { return truncated_; }
  /// Alphabet index of the root label of shape `s`.
  uint32_t label(uint32_t s) const { return labels_[s]; }
  /// Child shape ids of `s`, non-increasing.
  std::span<const uint32_t> children(uint32_t s) const {
    return std::span<const uint32_t>(children_).subspan(
        child_offsets_[s], child_offsets_[s + 1] - child_offsets_[s]);
  }

  /// Builds shape `s` as a tree, binding index i to `alphabet[i]`.
  Tree Materialize(uint32_t s, std::shared_ptr<SymbolTable> symbols,
                   std::span<const Label> alphabet) const;

 private:
  void EmitWithChildren(uint32_t label, uint32_t size_budget,
                        std::vector<uint32_t>* children, uint32_t total_size,
                        std::vector<uint32_t>* sizes,
                        const std::vector<uint32_t>& ends);
  void Materialize(uint32_t s, std::span<const Label> alphabet, Tree* tree,
                   NodeId parent) const;

  uint64_t max_shapes_;
  bool truncated_ = false;
  std::vector<uint32_t> labels_;
  /// Children of shape s are children_[child_offsets_[s], child_offsets_[s+1]).
  std::vector<uint32_t> child_offsets_{0};
  std::vector<uint32_t> children_;
};

/// Bottom-up match masks of `pattern` over `table` for the alphabet that
/// binds its indices: bit q of mask[s] is set iff the sub-pattern rooted
/// at pattern node q embeds into shape s with q mapped to the root of s.
/// This is the SatKernel recurrence (eval/sat_kernel), each shape's mask
/// computed once from its children's. `pattern` has at most 64 nodes.
std::vector<uint64_t> ShapeMatchMasks(const ShapeTable& table,
                                      std::span<const Label> alphabet,
                                      const Pattern& pattern);

/// Entry s is 1 iff every pattern in `patterns` embeds into shape s with
/// its root mapped to the root of s. The patterns are packed into one
/// SatKernel layout of any total size, so this is a single bottom-up pass
/// over the table however many patterns there are. All 1 for no patterns.
std::vector<char> ShapesEmbeddingAll(const ShapeTable& table,
                                     std::span<const Label> alphabet,
                                     std::span<const Pattern* const> patterns);

/// Enumerates all *canonical* unordered labeled trees with 1..max_nodes
/// nodes over a fixed finite alphabet: every isomorphism class is produced
/// exactly once. This realizes the "guess a tree of size polynomial in the
/// inputs" step of the paper's NP-membership proofs (Theorems 3 and 5) as
/// an exhaustive search, and doubles as the ground-truth oracle for the
/// property tests of the polynomial detectors. The shapes come from the
/// shared ShapeTable; trees are materialized on the caller's labels.
class TreeEnumerator {
 public:
  /// `max_shapes` caps the internal table; generation stops (truncated())
  /// when exceeded.
  TreeEnumerator(std::shared_ptr<SymbolTable> symbols,
                 std::vector<Label> alphabet, size_t max_nodes,
                 uint64_t max_shapes = 4'000'000);

  /// Number of distinct trees generated (≤ cap).
  uint64_t count() const { return table_->size(); }

  /// True if the cap stopped generation before all trees were produced.
  bool truncated() const { return table_->truncated(); }

  /// Visits every generated tree; `visit` returns false to stop early.
  /// Returns true iff the visit ran over all generated trees.
  bool Enumerate(const std::function<bool(const Tree&)>& visit) const;

 private:
  std::shared_ptr<SymbolTable> symbols_;
  std::vector<Label> alphabet_;
  std::shared_ptr<const ShapeTable> table_;
};

/// Options for exhaustive conflict search.
struct BoundedSearchOptions {
  /// Maximum witness size to try (paper bound: |R|·|I|·(k+1); default small
  /// because the space grows super-exponentially).
  size_t max_nodes = 5;
  /// Extra labels beyond those appearing in the patterns; the paper's
  /// proofs need one fresh symbol α.
  size_t extra_labels = 1;
  /// Generation cap (isomorphism classes).
  uint64_t max_trees = 2'000'000;
};

enum class SearchOutcome {
  /// A witness was found; `witness` is set.
  kWitnessFound,
  /// The whole space up to max_nodes was enumerated without a witness.
  kExhaustedNoWitness,
  /// The cap stopped the enumeration first; absence is inconclusive.
  kBudgetExceeded,
};

struct BruteForceResult {
  SearchOutcome outcome = SearchOutcome::kBudgetExceeded;
  std::optional<Tree> witness;
  uint64_t trees_checked = 0;
  /// True when the enumerator's shape cap stopped generation before the
  /// space up to max_nodes was covered. Soundness invariant, relied on by
  /// the detector's verdict mapping: a truncated search that found no
  /// witness must never be reported as kExhaustedNoWitness — absence of a
  /// witness in a partial enumeration proves nothing.
  bool truncated = false;
};

/// Σ of `patterns` (wildcards excluded) and the labels of `trees`.
std::set<Label> LabelsOf(std::initializer_list<const Pattern*> patterns,
                         std::initializer_list<const Tree*> trees = {});

/// The search alphabet: `labels` in ascending order, then `extra_labels`
/// pairwise distinct labels that no input uses (at least one if `labels`
/// is empty). `inputs` holds every label of the inputs and contains
/// `labels`. Extra label i is the table's reserved `alpha$` (i = 0) or
/// `alpha<i>$` label unless `inputs` contains it, else a fresh one, so
/// repeated searches do not grow the SymbolTable.
std::vector<Label> SearchAlphabet(SymbolTable& symbols,
                                  const std::set<Label>& labels,
                                  const std::set<Label>& inputs,
                                  size_t extra_labels);

/// The one bounded-search loop, shared by the read-update searches below,
/// the DTD-restricted searches and the §6 commutativity search. Walks the
/// shared shape table for `alphabet` up to options.max_nodes in canonical
/// order. A shape is materialized and handed to `is_witness` only if every
/// pattern in `must_embed` embeds at its root (one ShapesEmbeddingAll
/// pass): the caller passes patterns that embed into every witness, so
/// skipped shapes cannot be witnesses. `is_witness` owns the candidate
/// and may use it up (the in-place Lemma 1 checkers do); the reported
/// witness is the hit's shape materialized again.
/// Every enumerated shape counts in trees_checked, and a truncated table
/// never yields kExhaustedNoWitness.
BruteForceResult SearchShapes(
    const std::shared_ptr<SymbolTable>& symbols,
    const std::vector<Label>& alphabet, const BoundedSearchOptions& options,
    std::span<const Pattern* const> must_embed,
    const std::function<bool(Tree&&)>& is_witness);

/// Exhaustively searches for a read-insert conflict witness of size
/// ≤ options.max_nodes, with labels drawn from Σ_read ∪ Σ_insert plus
/// `extra_labels` labels used by neither pattern nor `inserted`. Only
/// trees the insert pattern embeds into reach the Lemma 1 checker.
BruteForceResult BruteForceReadInsertSearch(const Pattern& read,
                                            const Pattern& insert_pattern,
                                            const Tree& inserted,
                                            ConflictSemantics semantics,
                                            const BoundedSearchOptions& options);

/// Read-delete analogue. Only trees both patterns embed into reach the
/// Lemma 1 checker.
BruteForceResult BruteForceReadDeleteSearch(const Pattern& read,
                                            const Pattern& delete_pattern,
                                            ConflictSemantics semantics,
                                            const BoundedSearchOptions& options);

/// The paper's witness-size bound |R|·|I|·(k+1), k = STAR-LENGTH(read)
/// (Lemma 11). Searching up to this bound is a complete decision
/// procedure — usually astronomically expensive, which is the point of
/// benchmark E5.
size_t PaperWitnessBound(const Pattern& read, const Pattern& update);

}  // namespace xmlup

#endif  // XMLUP_CONFLICT_BOUNDED_SEARCH_H_
