#include "pattern/pattern_store.h"

#include <bit>
#include <new>
#include <utility>

#include "common/check.h"
// The interner canonicalizes through the conflict layer's minimizer; this is
// the one place the pattern module reaches upward, so every layer above gets
// pre-minimized forms for free.
#include "conflict/minimize.h"
// Type summaries (the Stage 0 footprints) are cached per entry; like the
// minimizer include above, this is the pattern module reaching upward so
// every consumer of the store shares one summary per (pattern, schema).
#include "dtd/type_summary.h"
#include "obs/metrics.h"
#include "pattern/pattern_ops.h"
#include "xml/isomorphism.h"

namespace xmlup {
namespace {

/// Store observability, aggregated across every store in the process (the
/// same convention as the batch.* counters).
struct StoreMetrics {
  obs::Counter& hits;
  obs::Counter& misses;
  obs::Counter& bytes;

  static const StoreMetrics& Get() {
    static const StoreMetrics* const metrics = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
      return new StoreMetrics{
          reg.GetCounter("pattern_store.hits"),
          reg.GetCounter("pattern_store.misses"),
          reg.GetCounter("pattern_store.bytes"),
      };
    }();
    return *metrics;
  }
};

/// Type-summary cache observability (the Stage 0 footprints), aggregated
/// across stores like StoreMetrics. misses counts summaries built (at most
/// one per (entry, dtd)); hits counts requests served by a retained
/// summary.
struct TypesMetrics {
  obs::Counter& hits;
  obs::Counter& misses;
  obs::Counter& bytes;

  static const TypesMetrics& Get() {
    static const TypesMetrics* const metrics = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
      return new TypesMetrics{
          reg.GetCounter("store.types.hits"),
          reg.GetCounter("store.types.misses"),
          reg.GetCounter("store.types.bytes"),
      };
    }();
    return *metrics;
  }
};

/// Retained-storage estimate for the bytes counter: the pattern's node
/// array plus the canonical code and map-key strings.
uint64_t EntryBytes(const Pattern& stored, const std::string& code) {
  return stored.size() * 24  /* Pattern::Node */ + 2 * code.size() +
         sizeof(std::string);
}

}  // namespace

/// Latch + lazily-built type summary. Held behind a unique_ptr so Entry
/// stays movable (std::once_flag is not) and so call_once's non-const
/// access works through the const Entry& that entry() hands out. The entry
/// latches the first Dtd it is asked about (the one-engine-one-schema
/// steady state); other Dtds go to the store-level secondary map.
struct PatternStore::TypesSlot {
  std::once_flag once;
  const Dtd* dtd = nullptr;
  std::unique_ptr<const TypeSummary> value;
};

/// Chunk index for the geometric layout: chunk c starts at entry id
/// kFirstChunkSize * (2^c - 1), so id + kFirstChunkSize lands in
/// [kFirstChunkSize << c, kFirstChunkSize << (c + 1)).
static constexpr size_t ChunkOf(size_t adjusted, size_t first_chunk_size) {
  return static_cast<size_t>(std::bit_width(adjusted)) -
         static_cast<size_t>(std::bit_width(first_chunk_size));
}

PatternStore::EntryTable::~EntryTable() {
  // ordering: relaxed — destruction is single-threaded by contract (no
  // reader or writer may overlap the store's destructor).
  const size_t n = size_.load(std::memory_order_relaxed);
  for (size_t id = 0; id < n; ++id) at(id).~Entry();
  for (std::atomic<Entry*>& slot : chunks_) {
    // ordering: relaxed — same single-threaded destructor context.
    Entry* chunk = slot.load(std::memory_order_relaxed);
    if (chunk != nullptr) ::operator delete(static_cast<void*>(chunk));
  }
}

PatternStore::Entry& PatternStore::EntryTable::at(size_t id) const {
  const size_t adjusted = id + kFirstChunkSize;
  const size_t c = ChunkOf(adjusted, kFirstChunkSize);
  // ordering: relaxed — the publication edge is size_, not the chunk
  // pointer. The caller observed a size() covering `id`; that acquire
  // synchronizes with the writer's release store of size_, which is
  // sequenced after both the chunk-pointer store and the entry's
  // placement-construction (writers are serialized by the store mutex, so
  // the edge holds across writer threads too). This load therefore cannot
  // observe a null or stale chunk for a published id. Audited for the
  // concurrency layer — see DESIGN "Concurrency model".
  Entry* chunk = chunks_[c].load(std::memory_order_relaxed);
  return chunk[adjusted - (kFirstChunkSize << c)];
}

PatternStore::Entry& PatternStore::EntryTable::Append(Entry entry) {
  // ordering: relaxed — writers are serialized by the store mutex, so the
  // previous Append's size_ store happens-before this load via the mutex.
  const size_t id = size_.load(std::memory_order_relaxed);
  const size_t adjusted = id + kFirstChunkSize;
  const size_t c = ChunkOf(adjusted, kFirstChunkSize);
  XMLUP_CHECK_STREAM(c < kNumChunks) << "PatternStore entry table is full";
  // ordering: relaxed — same mutex-serialized writer context as above.
  Entry* chunk = chunks_[c].load(std::memory_order_relaxed);
  if (chunk == nullptr) {
    chunk = static_cast<Entry*>(
        ::operator new((kFirstChunkSize << c) * sizeof(Entry)));
    // Release is redundant with the release on size_ below (the real
    // publication edge) but kept so the chunk pointer is independently
    // safe to audit.
    chunks_[c].store(chunk, std::memory_order_release);
  }
  Entry* slot =
      new (&chunk[adjusted - (kFirstChunkSize << c)]) Entry(std::move(entry));
  // The publication point: release makes the chunk pointer and the fully
  // constructed entry visible to every reader that acquire-loads a size
  // covering `id` (EntryTable::size()).
  size_.store(id + 1, std::memory_order_release);
  return *slot;
}

PatternStore::PatternStore(std::shared_ptr<SymbolTable> symbols,
                           PatternStoreOptions options)
    : options_(options), symbols_(std::move(symbols)) {}

PatternStore::~PatternStore() = default;

PatternRef PatternStore::Intern(const Pattern& p) {
  XMLUP_CHECK_STREAM(p.has_root()) << "PatternStore::Intern: empty pattern";
  {
    MutexLock lock(mu_);
    if (symbols_ == nullptr) {
      symbols_ = p.symbols();
    } else {
      XMLUP_CHECK_STREAM(SameSymbolTable(symbols_, p.symbols()))
          << "PatternStore::Intern: pattern was built against a different "
             "SymbolTable than this store's. Labels are only comparable "
             "within one table; all patterns sharing a store (or a batch "
             "engine) must share one SymbolTable.";
    }
  }
  const StoreMetrics& metrics = StoreMetrics::Get();
  std::string code = CanonicalPatternCode(p);
  {
    MutexLock lock(mu_);
    auto it = by_code_.find(code);
    if (it != by_code_.end()) {
      metrics.hits.Increment();
      return PatternRef(it->second);
    }
  }
  // Miss: canonicalize outside the lock so distinct patterns minimize in
  // parallel, then re-check (another thread may have won the race).
  Pattern stored = options_.minimize ? MinimizePattern(p) : p;
  std::string stored_code =
      options_.minimize ? CanonicalPatternCode(stored) : code;
  MutexLock lock(mu_);
  if (auto it = by_code_.find(code); it != by_code_.end()) {
    metrics.hits.Increment();
    return PatternRef(it->second);
  }
  metrics.misses.Increment();
  uint32_t id;
  if (auto it = by_code_.find(stored_code); it != by_code_.end()) {
    // A different spelling of an already-stored canonical form.
    id = it->second;
  } else {
    id = static_cast<uint32_t>(entries_.size());
    const bool is_linear = stored.IsLinear();
    metrics.bytes.Increment(EntryBytes(stored, stored_code));
    entries_.Append(Entry{std::move(stored), stored_code, is_linear,
                          std::make_unique<TypesSlot>()});
    by_code_.emplace(std::move(stored_code), id);
  }
  if (code != entries_.at(id).code) by_code_.emplace(std::move(code), id);
  return PatternRef(id);
}

const PatternStore::Entry& PatternStore::entry(PatternRef ref) const {
  // Lock-free: the table's acquire-published size covers every resolvable
  // ref, and entry addresses never move.
  XMLUP_CHECK_STREAM(ref.valid() && ref.id() < entries_.size())
      << "PatternRef does not belong to this store";
  return entries_.at(ref.id());
}

const Pattern& PatternStore::pattern(PatternRef ref) const {
  return entry(ref).stored;
}

const std::string& PatternStore::canonical_code(PatternRef ref) const {
  return entry(ref).code;
}

bool PatternStore::linear(PatternRef ref) const {
  return entry(ref).is_linear;
}

const TypeSummary& PatternStore::type_summary(PatternRef ref,
                                              const Dtd& dtd) const {
  const Entry& e = entry(ref);
  TypesSlot& slot = *e.types_slot;
  const TypesMetrics& metrics = TypesMetrics::Get();
  bool built = false;
  std::call_once(slot.once, [&] {
    // Latch the first schema this entry is summarized under; construction
    // runs outside the store mutex, so distinct entries summarize in
    // parallel and an expensive build never blocks Intern.
    slot.dtd = &dtd;
    slot.value =
        std::make_unique<const TypeSummary>(ComputeTypeSummary(e.stored, dtd));
    metrics.bytes.Increment(slot.value->bytes());
    built = true;
  });
  // call_once synchronizes-with the winning build, so slot.dtd is safe to
  // read here even when another thread latched it.
  if (slot.dtd == &dtd) {
    (built ? metrics.misses : metrics.hits).Increment();
    return *slot.value;
  }
  // A schema other than the latched one (several Dtds over one store —
  // rare): serve from the mutex-guarded secondary map. Building under mu_
  // is acceptable off the designed one-schema path.
  MutexLock lock(mu_);
  const auto key = std::make_pair(ref.id(), &dtd);
  auto it = extra_type_summaries_.find(key);
  if (it == extra_type_summaries_.end()) {
    auto summary =
        std::make_unique<const TypeSummary>(ComputeTypeSummary(e.stored, dtd));
    metrics.misses.Increment();
    metrics.bytes.Increment(summary->bytes());
    it = extra_type_summaries_.emplace(key, std::move(summary)).first;
  } else {
    metrics.hits.Increment();
  }
  return *it->second;
}

uint32_t PatternStore::InternContentCode(const Tree& content) {
  const StoreMetrics& metrics = StoreMetrics::Get();
  std::string code = CanonicalCode(content);
  MutexLock lock(mu_);
  auto [it, inserted] =
      content_ids_.emplace(std::move(code),
                           static_cast<uint32_t>(content_ids_.size()));
  if (inserted) {
    metrics.misses.Increment();
    metrics.bytes.Increment(it->first.size() + sizeof(std::string));
  } else {
    metrics.hits.Increment();
  }
  return it->second;
}

size_t PatternStore::size() const { return entries_.size(); }

std::shared_ptr<SymbolTable> PatternStore::symbols() const {
  MutexLock lock(mu_);
  return symbols_;
}

PatternStore& PatternStore::Default() {
  // Intentionally leaked: refs may be resolved from atexit paths.
  static PatternStore* const store = new PatternStore();
  return *store;
}

}  // namespace xmlup
