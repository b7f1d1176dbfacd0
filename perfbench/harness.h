// Shared pieces of the end-to-end benchmark: the closed-loop client pool,
// per-client latency samples and verdict tallies, and the benchmark's own
// in-memory span recorder. Nothing here calls into the library except
// through the public API the workloads use.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "conflict/report.h"
#include "obs/metrics.h"

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// splitmix64 finalizer: the benchmark's one hash, used for the op -> pair
/// stream and the order-independent verdict digest.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// The kinds of operation a client issues; each has its own latency
/// population. An "op" in ops_per_s is one of these calls.
enum class OpKind : uint8_t { kDetect, kEdit, kLint, kMerge };
inline constexpr size_t kNumOpKinds = 4;
const char* OpKindName(OpKind kind);

/// Span names: the benchmark's own code wraps each call into a layer's
/// public function in one of these.
enum class SpanName : uint8_t {
  kOp,           // one client operation (root of an op's spans)
  kDetect,       // Engine::Detect
  kSessionEdit,  // Session matrix Assign/Add*/Replace*/Remove*
  kLint,         // Engine::Lint
  kMerge,        // MergeExecutor::Merge
  kSetup,        // one set-up repetition (root of the set-up spans)
  kGenerate,     // workload/ generators
  kIntern,       // Engine::Intern / Engine::Bind
};
inline constexpr size_t kNumSpanNames = 8;
const char* SpanNameString(SpanName name);

/// A recorded span. `parent` indexes the same recorder's kept spans.
struct Span {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t op = 0;
  uint32_t parent = 0;
  SpanName name = SpanName::kOp;
};

/// Busy and self time per span name. Self time is the span's duration
/// minus the part its child spans cover.
struct SpanTotals {
  uint64_t count = 0;
  uint64_t busy_ns = 0;
  uint64_t self_ns = 0;
};

/// One thread's span recorder: no locking, nested spans on a stack. Spans
/// are kept in memory up to a cap (the rest only count in the totals) and
/// written out once the run ends. Disabled recorders do nothing.
class SpanRecorder {
 public:
  static constexpr uint32_t kNoParent = UINT32_MAX;

  SpanRecorder(bool enabled, size_t capacity);

  bool enabled() const { return enabled_; }
  void Begin(SpanName name, uint64_t op);
  void End();

  const std::vector<Span>& kept() const { return kept_; }
  uint64_t dropped() const { return dropped_; }
  const std::array<SpanTotals, kNumSpanNames>& totals() const {
    return totals_;
  }

 private:
  struct Open {
    SpanName name;
    uint64_t start_ns;
    uint64_t op;
    uint64_t child_ns;
    uint32_t kept_index;
  };
  bool enabled_;
  size_t capacity_;
  std::vector<Open> stack_;
  std::vector<Span> kept_;
  uint64_t dropped_ = 0;
  std::array<SpanTotals, kNumSpanNames> totals_{};
};

/// Spans kept in memory per client in a traced run; the rest only count
/// toward the totals.
inline constexpr size_t kSpansPerClient = 50000;

/// RAII span; a no-op on a disabled recorder.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, SpanName name, uint64_t op)
      : recorder_(recorder) {
    recorder_->Begin(name, op);
  }
  ~ScopedSpan() { recorder_->End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
};

/// Verdict and method counts plus an order-independent digest of every
/// (op, verdict, method) triple: identical digests at 1 and N clients mean
/// every op got the same answer regardless of scheduling.
struct Tally {
  std::array<uint64_t, 3> verdicts{};  // indexed by ConflictVerdict
  std::array<uint64_t, 4> methods{};   // indexed by DetectorMethod
  uint64_t digest = 0;
  /// Decided bounded searches (verdict other than kUnknown).
  uint64_t search_decided = 0;

  void Add(uint64_t key, xmlup::ConflictVerdict verdict,
           xmlup::DetectorMethod method);
  /// Folds a non-verdict output (a lint count, a merge outcome) into the
  /// digest only.
  void AddValue(uint64_t key, uint64_t value) {
    digest += Mix64(Mix64(key) ^ value);
  }
  void Merge(const Tally& other);
  uint64_t total() const { return verdicts[0] + verdicts[1] + verdicts[2]; }
};

/// Everything one client thread accumulates; merged after the join.
struct ClientState {
  explicit ClientState(bool trace) : spans(trace, kSpansPerClient) {}

  SpanRecorder spans;
  std::array<std::vector<float>, kNumOpKinds> latency_us;
  uint64_t units = 0;
  uint64_t ops = 0;
  /// Ops done in each full window of the timed loop (kWindowSeconds). An op
  /// counts in each window in proportion to the part of its duration that
  /// falls there, so window boundaries do not quantize the rate.
  std::vector<double> window_ops;
  uint64_t loop_start_ns = 0;
  uint64_t window_ns = 1;
  uint64_t failed = 0;
  std::vector<std::string> failures;
  Tally tally;

  void Fail(std::string what);
  void Record(OpKind kind, uint64_t start_ns, uint64_t end_ns) {
    latency_us[static_cast<size_t>(kind)].push_back(
        static_cast<float>(end_ns - start_ns) / 1000.0f);
    ++ops;
    CountInWindows(start_ns - loop_start_ns, end_ns - loop_start_ns);
  }
  void CountInWindows(uint64_t start, uint64_t end);
};

struct LoopConfig {
  size_t clients = 1;
  double seconds = 1.0;
  /// When nonzero, stop after this many work units instead of after
  /// `seconds` (the determinism check runs a fixed unit count).
  uint64_t max_units = 0;
  bool trace = false;
};

/// Throughput is counted per window of this length; the reported rate is
/// the median over the run's full windows, which keeps a burst of load from
/// elsewhere on the machine out of the figure.
inline constexpr double kWindowSeconds = 1.0;

/// Runs a closed loop: `config.clients` threads each claim the next unit
/// index and call `unit(index, state)` until the deadline (or the unit
/// cap), then stop claiming. Returns the wall time from the first claim to
/// the last join, in seconds. `states` receives one entry per client, with
/// one window counter per full window before the deadline.
double RunClosedLoop(const LoopConfig& config,
                     const std::function<void(uint64_t, ClientState*)>& unit,
                     std::vector<ClientState>* states);

/// Per-workload output that main.cc turns into metrics.
struct WorkloadRun {
  /// Wall time of each set-up repetition.
  std::vector<double> setup_s;
  /// Busy time in Engine::Intern/Bind during the measured set-up.
  double intern_us = 0;
  /// Setup spans of the measured set-up (kept only in a traced run).
  SpanRecorder setup_spans{false, 0};
  double elapsed_s = 0;
  uint64_t units = 0;
  std::vector<ClientState> clients;
  /// Output-check failures found after the timed loop.
  uint64_t check_failed = 0;
  std::vector<std::string> check_failures;
  /// Library counters over the measured set-up and run.
  xmlup::obs::MetricsSnapshot counters;
  /// SymbolTable::size() around the timed loop.
  size_t symbols_before = 0;
  size_t symbols_after = 0;

  void CheckFail(std::string what);
};

struct RunOptions {
  uint64_t seed = 1;
  LoopConfig loop;
};

/// Set-up is timed in rounds: each round runs one repetition on every
/// client thread at once, so the median over all repetitions samples every
/// core rather than whichever one the main thread happens to run on (one
/// core alone drifts between two speeds up to 1.8x apart for seconds at a
/// time). The first round warms up and is not counted. Then rounds run at
/// least kMinSetupRounds times and until they have taken kSetupSeconds;
/// setup_s is the median repetition. The plan the loop runs is set up once
/// more, alone, so that its counter window `before` and its set-up spans
/// (in a traced run) see no other repetition.
inline constexpr size_t kMinSetupRounds = 2;
inline constexpr size_t kMaxSetupRounds = 20;
inline constexpr double kSetupSeconds = 1.0;

template <typename Plan, typename SetUpFn>
Plan RepeatSetUp(size_t threads, bool trace, const SetUpFn& set_up,
                 xmlup::obs::MetricsSnapshot* before, WorkloadRun* run) {
  const uint64_t start = NowNs();
  for (size_t round = 0; round <= kMinSetupRounds ||
                         (round <= kMaxSetupRounds &&
                          static_cast<double>(NowNs() - start) / 1e9 <
                              kSetupSeconds);
       ++round) {
    std::vector<double> seconds(threads);
    std::vector<std::thread> workers;
    for (size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        SpanRecorder untraced(false, 0);
        const uint64_t rep_start = NowNs();
        set_up(&untraced, nullptr);
        seconds[t] = static_cast<double>(NowNs() - rep_start) / 1e9;
      });
    }
    for (std::thread& w : workers) w.join();
    if (round > 0) {
      run->setup_s.insert(run->setup_s.end(), seconds.begin(), seconds.end());
    }
  }
  run->setup_spans = SpanRecorder(trace, 64);
  Plan plan = set_up(&run->setup_spans, before);
  run->intern_us = plan.intern_us;
  return plan;
}

/// Median of a non-empty sample.
double Median(std::vector<double> values);

/// The workloads (see README.md for why each one exists).
WorkloadRun RunBranchingDetect(const RunOptions& options);
WorkloadRun RunLinearDetect(const RunOptions& options);
WorkloadRun RunProgramEdit(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
