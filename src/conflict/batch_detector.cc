#include "conflict/batch_detector.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/scoped_timer.h"
#include "obs/trace.h"

namespace xmlup {
namespace {

/// Batch-engine observability: cache traffic, job counts, and per-job
/// solve timings (the per-worker task histogram the pool itself cannot
/// attribute to the batch workload).
struct BatchMetrics {
  obs::Counter& pairs_total;
  obs::Counter& cache_hits;
  obs::Counter& cache_misses;
  obs::Counter& cache_evictions;
  obs::Counter& type_pruned;
  obs::Histogram& solve_pair_us;

  static const BatchMetrics& Get() {
    static const BatchMetrics* const metrics = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
      return new BatchMetrics{
          reg.GetCounter("batch.pairs_total"),
          reg.GetCounter("batch.cache_hits"),
          reg.GetCounter("batch.cache_misses"),
          reg.GetCounter("batch.cache_evictions"),
          reg.GetCounter("batch.type_pruned"),
          reg.GetHistogram("batch.solve_pair_us"),
      };
    }();
    return *metrics;
  }
};

/// Total order on keys for deterministic LRU tie-breaking within one
/// generation (key ids are intern-order-dense, so this order is stable
/// across runs of the same workload).
bool KeyLess(const BatchPairKey& a, const BatchPairKey& b) {
  if (a.read_id != b.read_id) return a.read_id < b.read_id;
  if (a.update_id != b.update_id) return a.update_id < b.update_id;
  if (a.content_id != b.content_id) return a.content_id < b.content_id;
  return a.kind < b.kind;
}

/// One job = one ref-facade call on the canonicalized pair. The op is
/// re-bound to the engine's store so Detect runs on the stored,
/// pre-minimized patterns by ref and the matrix pays no per-pair
/// canonicalization. The root-delete guard is re-checked by the
/// factory and by the facade (centralized in ValidateDeletePattern), so a
/// root-selecting delete cannot reach the detectors through this engine.
Result<ConflictReport> SolvePair(
    const std::shared_ptr<const PatternStore>& store, PatternRef read,
    const UpdateOp& update, PatternRef update_ref,
    const DetectorOptions& options) {
  if (update.kind() == UpdateOp::Kind::kInsert) {
    return Detect(*store, read,
                  UpdateOp::MakeInsert(store, update_ref,
                                       update.shared_content()),
                  options);
  }
  XMLUP_ASSIGN_OR_RETURN(UpdateOp canonical,
                         UpdateOp::MakeDelete(store, update_ref));
  return Detect(*store, read, canonical, options);
}

}  // namespace

BatchConflictDetector::BatchConflictDetector(BatchDetectorOptions options)
    : options_(std::move(options)) {
  store_ = options_.store != nullptr
               ? options_.store
               : std::make_shared<PatternStore>(
                     nullptr,
                     PatternStoreOptions{options_.minimize_patterns});
  const size_t threads = options_.num_threads == 0
                             ? ThreadPool::DefaultThreadCount()
                             : options_.num_threads;
  pool_ = std::make_unique<ThreadPool>(threads);
}

void BatchConflictDetector::ClearCache() { cache_.clear(); }

PatternRef BatchConflictDetector::UpdateRef(const UpdateOp& update) {
  if (update.pattern_store() == store_.get() && update.pattern_ref().valid()) {
    return update.pattern_ref();
  }
  return store_->Intern(update.pattern());
}

BatchPairKey BatchConflictDetector::CacheKey(const Pattern& read,
                                             const UpdateOp& update) {
  BatchPairKey key;
  key.read_id = store_->Intern(read).id();
  key.update_id = UpdateRef(update).id();
  key.kind = static_cast<uint8_t>(update.kind());
  if (update.kind() == UpdateOp::Kind::kInsert) {
    key.content_id = store_->InternContentCode(update.content());
  }
  return key;
}

std::vector<SharedConflictResult> BatchConflictDetector::DetectMatrix(
    const std::vector<PatternRef>& reads,
    const std::vector<UpdateOp>& updates) {
  std::vector<ReadUpdatePair> pairs;
  pairs.reserve(reads.size() * updates.size());
  for (size_t i = 0; i < reads.size(); ++i) {
    for (size_t j = 0; j < updates.size(); ++j) {
      pairs.push_back({i, j});
    }
  }
  return DetectPairs(reads, updates, pairs);
}

std::vector<SharedConflictResult> BatchConflictDetector::DetectPairs(
    const std::vector<PatternRef>& reads, const std::vector<UpdateOp>& updates,
    const std::vector<ReadUpdatePair>& pairs) {
  // Single-caller tripwire (see active_calls_ in the header). RAII so the
  // count unwinds on every exit path.
  struct CallScope {
    explicit CallScope(std::atomic<int>& count) : count_(count) {
      // ordering: relaxed — a diagnostic counter, not synchronization; the
      // DCHECK turns a silent cross-thread overlap into a crash with a
      // message, and a racy interleaving it happens to miss was still a
      // contract violation TSan reports on cache_ itself.
      XMLUP_DCHECK(count_.fetch_add(1, std::memory_order_relaxed) == 0)
          << "BatchConflictDetector is single-caller: two threads are "
             "inside DetectPairs/DetectMatrix at once. Route concurrent "
             "batch work through Engine (which serializes on batch_mu_) "
             "or give each thread its own engine.";
    }
    // ordering: relaxed — see above.
    ~CallScope() { count_.fetch_sub(1, std::memory_order_relaxed); }
    std::atomic<int>& count_;
  } call_scope(active_calls_);
  const BatchMetrics& metrics = BatchMetrics::Get();
  obs::TraceRecorder& recorder = obs::TraceRecorder::Default();
  obs::TraceSpan batch_span(recorder, "BatchDetectPairs");
  ++generation_;
  stats_.pairs_total += pairs.size();
  metrics.pairs_total.Increment(pairs.size());

  // Phase 1 — intern every update once, in parallel (reads arrive as refs;
  // ops bound to this engine's store skip interning entirely). The store
  // memoizes minimization and canonical codes across calls, so this phase
  // does real work only for patterns the engine has never seen.
  const size_t n_reads = reads.size();
  const size_t n_updates = updates.size();
  std::vector<PatternRef> update_refs(n_updates);
  std::vector<uint32_t> content_ids(n_updates, 0);
  {
    obs::TraceSpan phase_span(recorder, "batch.canonicalize");
    ParallelFor(pool_.get(), n_updates, [&](size_t j) {
      update_refs[j] = UpdateRef(updates[j]);
      if (updates[j].kind() == UpdateOp::Kind::kInsert) {
        content_ids[j] = store_->InternContentCode(updates[j].content());
      }
    });
  }

  // Phase 2 — resolve each pair against the cache (sequential, in pair
  // order, so job creation order is deterministic). Keys are integer
  // tuples of store ids: building one is four register writes, probing the
  // map one integer hash. With the cache disabled every pair becomes its
  // own job: no dedup, honest baseline.
  struct Job {
    BatchPairKey key;
    size_t read_index;
    size_t update_index;
    SharedConflictResult result;
  };
  std::vector<Job> jobs;
  std::unordered_map<BatchPairKey, size_t, BatchPairKeyHash> job_by_key;
  std::vector<SharedConflictResult> out(pairs.size());
  // pending[k] is the job that will fill out[k] (kNone if already filled).
  constexpr size_t kNone = static_cast<size_t>(-1);
  std::vector<size_t> pending(pairs.size(), kNone);
  uint64_t hits_this_call = 0;
  uint64_t pruned_this_call = 0;
  // Stage 0 (type pruning) sits in front of the cache: a pruned pair never
  // becomes a job, so it can never have been published to the cache either
  // — probing first would always miss. All pruned pairs of a call share
  // one lazily-minted report object (the report's fields are fixed).
  const bool type_pruning = options_.detector.dtd != nullptr &&
                            options_.detector.enable_type_pruning;
  SharedConflictResult pruned_shared;
  for (size_t k = 0; k < pairs.size(); ++k) {
    const size_t i = pairs[k].read_index;
    const size_t j = pairs[k].update_index;
    XMLUP_CHECK(i < n_reads && j < n_updates);
    if (type_pruning) {
      const UpdateOp& update = updates[j];
      const Tree* content = update.kind() == UpdateOp::Kind::kInsert
                                ? &update.content()
                                : nullptr;
      if (std::optional<ConflictReport> pruned =
              TypePruneStage(*store_, reads[i], update.kind(), update_refs[j],
                             content, options_.detector)) {
        if (pruned_shared == nullptr) {
          pruned_shared = std::make_shared<const Result<ConflictReport>>(
              std::move(*pruned));
        }
        out[k] = pruned_shared;
        ++pruned_this_call;
        continue;
      }
    }
    const BatchPairKey key{reads[i].id(), update_refs[j].id(), content_ids[j],
                           static_cast<uint8_t>(updates[j].kind())};
    if (options_.enable_cache) {
      auto cached = cache_.find(key);
      if (cached != cache_.end()) {
        cached->second.generation = generation_;  // LRU recency stamp
        out[k] = cached->second.result;
        ++hits_this_call;
        continue;
      }
      auto [it, inserted] = job_by_key.emplace(key, jobs.size());
      if (!inserted) {
        pending[k] = it->second;
        ++hits_this_call;
        continue;
      }
      jobs.push_back({key, i, j, nullptr});
    } else {
      jobs.push_back({key, i, j, nullptr});
    }
    pending[k] = jobs.size() - 1;
  }
  stats_.cache_hits += hits_this_call;
  stats_.cache_misses += jobs.size();
  stats_.unique_pairs_solved += jobs.size();
  stats_.type_pruned += pruned_this_call;
  metrics.cache_hits.Increment(hits_this_call);
  metrics.cache_misses.Increment(jobs.size());
  metrics.type_pruned.Increment(pruned_this_call);
  // Accounting invariant: every requested pair was answered by Stage 0,
  // served by the cache (or deduped onto an in-flight job), or became a
  // job of its own.
  XMLUP_CHECK(hits_this_call + pruned_this_call + jobs.size() ==
              pairs.size());
  XMLUP_CHECK(stats_.cache_hits + stats_.cache_misses + stats_.type_pruned ==
              stats_.pairs_total);

  // Phase 3 — solve every job on the pool against the store's
  // pre-minimized forms. Each job writes only its own slot, so the result
  // layout is independent of scheduling. Trace spans are buffered per job
  // and merged once after the pool drains — except in inline mode
  // (num_threads <= 1, no workers), where everything already runs on the
  // calling thread in order, so per-worker span merging is skipped and
  // events are recorded directly.
  const bool inline_mode = pool_->num_workers() == 0;
  const bool tracing = recorder.enabled();
  std::vector<obs::TraceEvent> job_events(
      tracing && !inline_mode ? jobs.size() : 0);
  {
    obs::TraceSpan phase_span(recorder, "batch.solve");
    ParallelFor(pool_.get(), jobs.size(), [&](size_t index) {
      Job& job = jobs[index];
      const uint64_t start_us = tracing ? recorder.NowMicros() : 0;
      obs::ScopedTimer job_timer(&metrics.solve_pair_us);
      job.result = std::make_shared<const Result<ConflictReport>>(
          SolvePair(store_, reads[job.read_index], updates[job.update_index],
                    update_refs[job.update_index], options_.detector));
      if (!tracing) return;
      obs::TraceEvent event;
      event.name = "batch.solve_pair";
      event.start_us = start_us;
      event.dur_us = recorder.NowMicros() - start_us;
      event.tid = obs::CurrentThreadId();
      if (inline_mode) {
        recorder.Record(event);
      } else {
        job_events[index] = event;
      }
    });
  }
  if (tracing && !inline_mode) {
    recorder.MergeThreadEvents(std::move(job_events));
  }

  // Phase 4 — publish to the cache (deterministic job order), scatter
  // shared results to every requesting pair, then enforce the size bound.
  if (options_.enable_cache) {
    for (const Job& job : jobs) {
      cache_.emplace(job.key, CacheEntry{job.result, generation_});
    }
    EvictIfOverBound();
  }
  for (size_t k = 0; k < pairs.size(); ++k) {
    if (pending[k] != kNone) out[k] = jobs[pending[k]].result;
  }
  return out;
}

void BatchConflictDetector::EvictIfOverBound() {
  const size_t bound = options_.max_cache_entries;
  if (bound == 0 || cache_.size() <= bound) return;
  // Deterministic LRU: order every entry by (generation, key) and drop the
  // front of that order. Runs only on calls that grew the cache past the
  // bound, so the sort amortizes over the solves that caused it.
  std::vector<std::pair<uint64_t, BatchPairKey>> order;
  order.reserve(cache_.size());
  for (const auto& [key, entry] : cache_) {
    order.emplace_back(entry.generation, key);
  }
  std::sort(order.begin(), order.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first < b.first;
    return KeyLess(a.second, b.second);
  });
  const size_t to_drop = cache_.size() - bound;
  for (size_t i = 0; i < to_drop; ++i) cache_.erase(order[i].second);
  stats_.cache_evictions += to_drop;
  BatchMetrics::Get().cache_evictions.Increment(to_drop);
}

}  // namespace xmlup
