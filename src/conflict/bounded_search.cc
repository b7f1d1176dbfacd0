#include "conflict/bounded_search.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "eval/sat_kernel.h"
#include "obs/metrics.h"
#include "obs/scoped_timer.h"
#include "obs/trace.h"
#include "pattern/pattern_ops.h"

namespace xmlup {
namespace {

/// NP-path accounting: how many searches ran, how many trees they
/// enumerated and how many of those reached the witness checker, and how
/// often the budget (shape cap / max_nodes) stopped them before the space
/// was covered. Counters are bumped once per search (bulk adds), never
/// inside the per-tree loop.
struct SearchMetrics {
  obs::Counter& searches;
  obs::Counter& trees_checked;
  obs::Counter& trees_materialized;
  obs::Counter& shape_table_builds;
  obs::Counter& witnesses_found;
  obs::Counter& truncations;
  obs::Counter& budget_exhausted;
  obs::Histogram& latency_us;

  static const SearchMetrics& Get() {
    static const SearchMetrics* const metrics = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
      return new SearchMetrics{
          reg.GetCounter("bounded_search.searches"),
          reg.GetCounter("bounded_search.trees_checked"),
          reg.GetCounter("bounded_search.trees_materialized"),
          reg.GetCounter("bounded_search.shape_table_builds"),
          reg.GetCounter("bounded_search.witnesses_found"),
          reg.GetCounter("bounded_search.truncations"),
          reg.GetCounter("bounded_search.budget_exhausted"),
          reg.GetHistogram("bounded_search.latency_us"),
      };
    }();
    return *metrics;
  }
};

/// The process-wide table cache behind ShapeTable::Get. Tables are built
/// outside the lock, so a large build never stalls searches on other keys;
/// two threads missing on one key may both build it, and the later insert
/// adopts the table already cached.
class ShapeTableCache {
 public:
  static ShapeTableCache& Default() {
    static ShapeTableCache* const cache = new ShapeTableCache();
    return *cache;
  }

  std::shared_ptr<const ShapeTable> Get(size_t alphabet_size,
                                        size_t max_nodes, uint64_t max_shapes)
      XMLUP_EXCLUDES(mu_) {
    const Key key{alphabet_size, max_nodes, max_shapes};
    {
      MutexLock lock(mu_);
      if (std::shared_ptr<const ShapeTable> hit = Find(key)) return hit;
    }
    auto table = std::make_shared<const ShapeTable>(alphabet_size, max_nodes,
                                                    max_shapes);
    if (table->size() > ShapeTable::kMaxCachedShapes) return table;
    MutexLock lock(mu_);
    if (std::shared_ptr<const ShapeTable> raced = Find(key)) return raced;
    while (!entries_.empty() &&
           (entries_.size() >= ShapeTable::kMaxCachedTables ||
            cached_shapes_ + table->size() > ShapeTable::kMaxCachedShapes)) {
      auto lru = std::min_element(entries_.begin(), entries_.end(),
                                  [](const Entry& a, const Entry& b) {
                                    return a.last_use < b.last_use;
                                  });
      cached_shapes_ -= lru->table->size();
      entries_.erase(lru);
    }
    entries_.push_back({key, table, ++clock_});
    cached_shapes_ += table->size();
    return table;
  }

 private:
  struct Key {
    size_t alphabet_size;
    size_t max_nodes;
    uint64_t max_shapes;
    bool operator==(const Key&) const = default;
  };
  struct Entry {
    Key key;
    std::shared_ptr<const ShapeTable> table;
    uint64_t last_use;
  };

  std::shared_ptr<const ShapeTable> Find(const Key& key)
      XMLUP_REQUIRES(mu_) {
    for (Entry& entry : entries_) {
      if (entry.key == key) {
        entry.last_use = ++clock_;
        return entry.table;
      }
    }
    return nullptr;
  }

  /// Leaf lock: table builds and evicted tables' destruction happen
  /// outside it or touch nothing else.
  Mutex mu_;
  std::vector<Entry> entries_ XMLUP_GUARDED_BY(mu_);
  uint64_t cached_shapes_ XMLUP_GUARDED_BY(mu_) = 0;
  uint64_t clock_ XMLUP_GUARDED_BY(mu_) = 0;
};

}  // namespace

ShapeTable::ShapeTable(size_t alphabet_size, size_t max_nodes,
                       uint64_t max_shapes)
    : max_shapes_(max_shapes) {
  XMLUP_CHECK(alphabet_size > 0);
  SearchMetrics::Get().shape_table_builds.Increment();
  // Build state: node count per shape, and ends[z] = number of shapes with
  // at most z nodes (shapes are generated in size order).
  std::vector<uint32_t> sizes;
  std::vector<uint32_t> ends = {0};
  for (uint32_t size = 1; size <= max_nodes && !truncated_; ++size) {
    // Only shapes strictly smaller than `size` exist at this point; all of
    // them are candidates for children.
    for (uint32_t label = 0; label < alphabet_size && !truncated_; ++label) {
      std::vector<uint32_t> children;
      EmitWithChildren(label, size - 1, &children, size, &sizes, ends);
    }
    ends.push_back(this->size());
  }
  labels_.shrink_to_fit();
  child_offsets_.shrink_to_fit();
  children_.shrink_to_fit();
}

std::shared_ptr<const ShapeTable> ShapeTable::Get(size_t alphabet_size,
                                                  size_t max_nodes,
                                                  uint64_t max_shapes) {
  return ShapeTableCache::Default().Get(alphabet_size, max_nodes, max_shapes);
}

/// Emits every shape with the given root label and a canonical multiset of
/// children whose sizes sum to `size_budget`, drawn from the shapes
/// smaller than `total_size`, in non-increasing id order.
void ShapeTable::EmitWithChildren(uint32_t label, uint32_t size_budget,
                                  std::vector<uint32_t>* children,
                                  uint32_t total_size,
                                  std::vector<uint32_t>* sizes,
                                  const std::vector<uint32_t>& ends) {
  if (truncated_) return;
  if (size_budget == 0) {
    if (size() >= max_shapes_) {
      truncated_ = true;
      return;
    }
    labels_.push_back(label);
    children_.insert(children_.end(), children->begin(), children->end());
    child_offsets_.push_back(static_cast<uint32_t>(children_.size()));
    sizes->push_back(total_size);
    return;
  }
  // Ids below ends[size_budget] are exactly the shapes that still fit.
  uint32_t start = ends[size_budget];
  if (!children->empty()) start = std::min(start, children->back() + 1);
  for (uint32_t id = start; id-- > 0;) {
    children->push_back(id);
    EmitWithChildren(label, size_budget - (*sizes)[id], children, total_size,
                     sizes, ends);
    children->pop_back();
    if (truncated_) return;
  }
}

Tree ShapeTable::Materialize(uint32_t s, std::shared_ptr<SymbolTable> symbols,
                             std::span<const Label> alphabet) const {
  Tree tree(std::move(symbols));
  Materialize(s, alphabet, &tree, kNullNode);
  return tree;
}

void ShapeTable::Materialize(uint32_t s, std::span<const Label> alphabet,
                             Tree* tree, NodeId parent) const {
  const Label label = alphabet[labels_[s]];
  const NodeId node = parent == kNullNode ? tree->CreateRoot(label)
                                          : tree->AddChild(parent, label);
  for (uint32_t child : children(s)) Materialize(child, alphabet, tree, node);
}

namespace {

/// One bottom-up pass of `kernel` over `table`; calls on_shape(s, sat row
/// of s, words) for every shape in id order, children before parents,
/// with `words` the Dispatch constant.
template <typename OnShape>
void ShapePass(const SatKernel& kernel, const ShapeTable& table,
               std::span<const Label> alphabet, OnShape on_shape) {
  std::vector<const uint64_t*> label_rows;
  for (Label label : alphabet) label_rows.push_back(kernel.LabelRow(label));
  kernel.Dispatch([&](auto words) {
    const size_t w = words() != 0 ? words() : kernel.words();
    const auto rows =
        std::make_unique_for_overwrite<uint64_t[]>((table.size() + 1) * 2 * w);
    uint64_t* scratch = rows.get() + table.size() * 2 * w;
    for (uint32_t s = 0; s < table.size(); ++s) {
      kernel.Step<words()>(
          label_rows[table.label(s)],
          [&](auto&& visit) {
            for (uint32_t c : table.children(s)) visit(c);
          },
          rows.get(), s, scratch);
      on_shape(s, rows.get() + s * 2 * w, words);
    }
  });
}

}  // namespace

std::vector<uint64_t> ShapeMatchMasks(const ShapeTable& table,
                                      std::span<const Label> alphabet,
                                      const Pattern& pattern) {
  XMLUP_CHECK(pattern.size() <= 64);
  std::vector<uint64_t> masks(table.size());
  const Pattern* const patterns[] = {&pattern};
  ShapePass(SatKernel(patterns), table, alphabet,
            [&](uint32_t s, const uint64_t* sat, auto) { masks[s] = sat[0]; });
  return masks;
}

std::vector<char> ShapesEmbeddingAll(const ShapeTable& table,
                                     std::span<const Label> alphabet,
                                     std::span<const Pattern* const> patterns) {
  std::vector<char> possible(table.size(), 1);
  if (patterns.empty()) return possible;
  const SatKernel kernel(patterns);
  const uint64_t* roots = kernel.roots();
  ShapePass(kernel, table, alphabet,
            [&](uint32_t s, const uint64_t* sat, auto words) {
              possible[s] = SatKernel::CoveredIn(
                  roots, sat, words() != 0 ? words() : kernel.words());
            });
  return possible;
}

TreeEnumerator::TreeEnumerator(std::shared_ptr<SymbolTable> symbols,
                               std::vector<Label> alphabet, size_t max_nodes,
                               uint64_t max_shapes)
    : symbols_(std::move(symbols)), alphabet_(std::move(alphabet)) {
  XMLUP_CHECK(!alphabet_.empty());
  table_ = ShapeTable::Get(alphabet_.size(), max_nodes, max_shapes);
}

bool TreeEnumerator::Enumerate(
    const std::function<bool(const Tree&)>& visit) const {
  for (uint32_t s = 0; s < table_->size(); ++s) {
    if (!visit(table_->Materialize(s, symbols_, alphabet_))) return false;
  }
  return true;
}

std::set<Label> LabelsOf(std::initializer_list<const Pattern*> patterns,
                         std::initializer_list<const Tree*> trees) {
  std::set<Label> labels;
  for (const Pattern* p : patterns) {
    for (Label l : p->DistinctLabels()) labels.insert(l);
  }
  for (const Tree* t : trees) {
    for (NodeId n : t->PreOrder()) labels.insert(t->label(n));
  }
  return labels;
}

std::vector<Label> SearchAlphabet(SymbolTable& symbols,
                                  const std::set<Label>& labels,
                                  const std::set<Label>& inputs,
                                  size_t extra_labels) {
  std::vector<Label> alphabet(labels.begin(), labels.end());
  const size_t extra =
      labels.empty() ? std::max<size_t>(extra_labels, 1) : extra_labels;
  for (size_t i = 0; i < extra; ++i) {
    // Distinct prefixes give distinct reserved names, and Fresh() mints a
    // name nothing has interned: the extra labels are pairwise distinct
    // and, by the `inputs` check, unused by the inputs.
    const std::string prefix = i == 0 ? "alpha" : "alpha" + std::to_string(i);
    const Label reserved = symbols.Reserved(prefix);
    alphabet.push_back(inputs.count(reserved) != 0 ? symbols.Fresh(prefix)
                                                   : reserved);
  }
  return alphabet;
}

BruteForceResult SearchShapes(
    const std::shared_ptr<SymbolTable>& symbols,
    const std::vector<Label>& alphabet, const BoundedSearchOptions& options,
    std::span<const Pattern* const> must_embed,
    const std::function<bool(Tree&&)>& is_witness) {
  const SearchMetrics& metrics = SearchMetrics::Get();
  metrics.searches.Increment();
  obs::ScopedTimer timer(&metrics.latency_us);
  obs::TraceSpan span("BruteForceSearch");
  const std::shared_ptr<const ShapeTable> table =
      ShapeTable::Get(alphabet.size(), options.max_nodes, options.max_trees);
  const std::vector<char> possible =
      ShapesEmbeddingAll(*table, alphabet, must_embed);
  BruteForceResult result;
  result.truncated = table->truncated();
  result.trees_checked = table->size();
  uint64_t materialized = 0;
  for (uint32_t s = 0; s < table->size(); ++s) {
    if (!possible[s]) continue;
    ++materialized;
    if (is_witness(table->Materialize(s, symbols, alphabet))) {
      result.outcome = SearchOutcome::kWitnessFound;
      result.witness = table->Materialize(s, symbols, alphabet);
      result.trees_checked = s + 1;
      break;
    }
  }
  metrics.trees_checked.Increment(result.trees_checked);
  metrics.trees_materialized.Increment(materialized);
  if (result.truncated) metrics.truncations.Increment();
  if (result.outcome == SearchOutcome::kWitnessFound) {
    metrics.witnesses_found.Increment();
    return result;
  }
  // A truncated table covers only part of the space: no witness there
  // proves nothing.
  if (result.truncated) {
    result.outcome = SearchOutcome::kBudgetExceeded;
    metrics.budget_exhausted.Increment();
  } else {
    result.outcome = SearchOutcome::kExhaustedNoWitness;
  }
  return result;
}

BruteForceResult BruteForceReadInsertSearch(
    const Pattern& read, const Pattern& insert_pattern, const Tree& inserted,
    ConflictSemantics semantics, const BoundedSearchOptions& options) {
  // I(t) = t unless the insert pattern embeds into t.
  const Pattern* must_embed[] = {&insert_pattern};
  const std::set<Label> labels = LabelsOf({&read, &insert_pattern});
  return SearchShapes(
      read.symbols(),
      SearchAlphabet(*read.symbols(), labels,
                     LabelsOf({&read, &insert_pattern}, {&inserted}),
                     options.extra_labels),
      options, must_embed, [&](Tree&& candidate) {
        return IsReadInsertWitness(read, insert_pattern, inserted,
                                   std::move(candidate), semantics);
      });
}

BruteForceResult BruteForceReadDeleteSearch(
    const Pattern& read, const Pattern& delete_pattern,
    ConflictSemantics semantics, const BoundedSearchOptions& options) {
  // D(t) = t unless the delete pattern embeds, and deletion creates no
  // embeddings: R(D(t)) ⊆ R(t), so an empty R(t) stays empty.
  const Pattern* must_embed[] = {&delete_pattern, &read};
  const std::set<Label> labels = LabelsOf({&read, &delete_pattern});
  return SearchShapes(
      read.symbols(),
      SearchAlphabet(*read.symbols(), labels, labels, options.extra_labels),
      options, must_embed, [&](Tree&& candidate) {
        return IsReadDeleteWitness(read, delete_pattern, std::move(candidate),
                                   semantics);
      });
}

size_t PaperWitnessBound(const Pattern& read, const Pattern& update) {
  return read.size() * update.size() * (StarLength(read) + 1);
}

}  // namespace xmlup
