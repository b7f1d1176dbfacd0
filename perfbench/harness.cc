#include "harness.h"

#include <algorithm>
#include <thread>
#include <utility>

namespace perfbench {
namespace {

/// Failures beyond this many per list are counted but not listed.
constexpr size_t kMaxListedFailures = 20;

void AddFailure(std::vector<std::string>* list, uint64_t* count,
                std::string what) {
  ++*count;
  if (list->size() < kMaxListedFailures) list->push_back(std::move(what));
}

}  // namespace

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kDetect:
      return "detect";
    case OpKind::kEdit:
      return "edit";
    case OpKind::kLint:
      return "lint";
    case OpKind::kMerge:
      return "merge";
  }
  return "?";
}

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kOp:
      return "op";
    case SpanName::kDetect:
      return "Engine::Detect";
    case SpanName::kSessionEdit:
      return "Session.matrix edit";
    case SpanName::kLint:
      return "Engine::Lint";
    case SpanName::kMerge:
      return "MergeExecutor::Merge";
    case SpanName::kSetup:
      return "setup";
    case SpanName::kGenerate:
      return "workload generators";
    case SpanName::kIntern:
      return "Engine::Intern/Bind";
  }
  return "?";
}

SpanRecorder::SpanRecorder(bool enabled, size_t capacity)
    : enabled_(enabled), capacity_(capacity) {
  if (enabled_) kept_.reserve(capacity_);
}

void SpanRecorder::Begin(SpanName name, uint64_t op) {
  if (!enabled_) return;
  uint32_t kept_index = kNoParent;
  if (kept_.size() < capacity_) {
    kept_index = static_cast<uint32_t>(kept_.size());
    Span span;
    span.name = name;
    span.op = op;
    span.parent = stack_.empty() ? kNoParent : stack_.back().kept_index;
    kept_.push_back(span);
  } else {
    ++dropped_;
  }
  stack_.push_back(Open{name, NowNs(), op, 0, kept_index});
}

void SpanRecorder::End() {
  if (!enabled_) return;
  const uint64_t end = NowNs();
  const Open open = stack_.back();
  stack_.pop_back();
  const uint64_t duration = end - open.start_ns;
  SpanTotals& totals = totals_[static_cast<size_t>(open.name)];
  ++totals.count;
  totals.busy_ns += duration;
  totals.self_ns += duration - std::min(duration, open.child_ns);
  if (!stack_.empty()) stack_.back().child_ns += duration;
  if (open.kept_index != kNoParent) {
    kept_[open.kept_index].start_ns = open.start_ns;
    kept_[open.kept_index].end_ns = end;
  }
}

void Tally::Add(uint64_t key, xmlup::ConflictVerdict verdict,
                xmlup::DetectorMethod method) {
  const size_t v = static_cast<size_t>(verdict);
  const size_t m = static_cast<size_t>(method);
  ++verdicts[v];
  ++methods[m];
  if (method == xmlup::DetectorMethod::kBoundedSearch &&
      verdict != xmlup::ConflictVerdict::kUnknown) {
    ++search_decided;
  }
  digest += Mix64(Mix64(key) ^ (v * 8 + m));
}

void Tally::Merge(const Tally& other) {
  for (size_t i = 0; i < verdicts.size(); ++i) verdicts[i] += other.verdicts[i];
  for (size_t i = 0; i < methods.size(); ++i) methods[i] += other.methods[i];
  digest += other.digest;
  search_decided += other.search_decided;
}

void ClientState::Fail(std::string what) {
  AddFailure(&failures, &failed, std::move(what));
}

void ClientState::CountInWindows(uint64_t start, uint64_t end) {
  if (end == start) {
    const uint64_t window = start / window_ns;
    if (window < window_ops.size()) window_ops[window] += 1;
    return;
  }
  const double duration = static_cast<double>(end - start);
  for (uint64_t w = start / window_ns;
       w <= end / window_ns && w < window_ops.size(); ++w) {
    const uint64_t from = std::max(start, w * window_ns);
    const uint64_t to = std::min(end, (w + 1) * window_ns);
    if (to > from) window_ops[w] += static_cast<double>(to - from) / duration;
  }
}

void WorkloadRun::CheckFail(std::string what) {
  AddFailure(&check_failures, &check_failed, std::move(what));
}

double RunClosedLoop(const LoopConfig& config,
                     const std::function<void(uint64_t, ClientState*)>& unit,
                     std::vector<ClientState>* states) {
  const size_t windows =
      config.max_units != 0
          ? 0
          : static_cast<size_t>(config.seconds / kWindowSeconds);
  const uint64_t start = NowNs();
  states->clear();
  states->reserve(config.clients);
  for (size_t i = 0; i < config.clients; ++i) {
    ClientState& state = states->emplace_back(config.trace);
    state.window_ops.assign(windows, 0);
    state.loop_start_ns = start;
    state.window_ns = static_cast<uint64_t>(kWindowSeconds * 1e9);
  }
  std::atomic<uint64_t> next_unit{0};
  const uint64_t deadline =
      start + static_cast<uint64_t>(config.seconds * 1e9);
  auto client = [&](ClientState* state) {
    for (;;) {
      if (config.max_units == 0 && NowNs() >= deadline) return;
      // ordering: relaxed — the counter only hands out distinct indices;
      // results are published to the main thread by the join.
      const uint64_t index = next_unit.fetch_add(1, std::memory_order_relaxed);
      if (config.max_units != 0 && index >= config.max_units) return;
      unit(index, state);
      ++state->units;
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(config.clients);
  for (size_t i = 0; i < config.clients; ++i) {
    threads.emplace_back(client, &(*states)[i]);
  }
  for (std::thread& t : threads) t.join();
  return static_cast<double>(NowNs() - start) / 1e9;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

}  // namespace perfbench
