// perfbench: the repository's end-to-end benchmark. A closed-loop load
// generator in one process that drives the public Engine, Engine::Session
// and MergeExecutor API with inputs generated from --seed, checks every
// output, and prints one JSON result as its last line of stdout.
//
// Usage (normally through run.py, which builds this binary first):
//   perfbench --workload branching_detect|linear_detect|program_edit
//             --seed N --seconds S --trace 0|1
//             [--clients N] [--units N] [--spans FILE]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same loop
// with the benchmark's span recorder on and prints the per-layer metrics.
// --units N stops after N work units instead of --seconds (used by the
// determinism check). The library's own TraceRecorder stays off in both.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "harness.h"
#include "obs/trace.h"

namespace perfbench {
namespace {

using xmlup::ConflictVerdict;
using xmlup::DetectorMethod;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  size_t clients = 0;
  uint64_t units = 0;
  std::string spans_path;
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "[--clients N] [--units N] [--spans FILE]\n"
               "workloads: branching_detect linear_detect program_edit\n",
               argv0);
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      continue;
    }
    if (flag == "--spans") {
      args->spans_path = value;
      continue;
    }
    if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args->seconds > 0)) return false;
      continue;
    }
    const unsigned long long n = std::strtoull(value, &end, 10);
    if (*end != '\0' || *value == '\0') return false;
    if (flag == "--seed") {
      args->seed = n;
    } else if (flag == "--trace") {
      if (n > 1) return false;
      args->trace = n == 1;
    } else if (flag == "--clients") {
      if (n == 0) return false;
      args->clients = n;
    } else if (flag == "--units") {
      args->units = n;
    } else {
      return false;
    }
  }
  return !args->workload.empty();
}

/// Peak resident set of this process (VmHWM), in MB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

struct Percentile {
  double value = 0;
  double q = 0;
  size_t n = 0;
  size_t beyond = 0;
};

/// The requested quantile, lowered to the highest one that leaves at least
/// ten samples beyond it.
Percentile TailPercentile(std::vector<float> samples, double q) {
  Percentile p;
  p.n = samples.size();
  if (p.n == 0) return p;
  size_t rank = static_cast<size_t>(q * static_cast<double>(p.n));
  rank = p.n > 10 ? std::min(rank, p.n - 11) : 0;
  std::nth_element(samples.begin(), samples.begin() + rank, samples.end());
  p.value = samples[rank];
  p.beyond = p.n - rank - 1;
  p.q = static_cast<double>(rank + 1) / static_cast<double>(p.n);
  return p;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

class MetricSink {
 public:
  void Add(const std::string& name, double value, const char* unit,
           const std::string& note = "") {
    metrics_.push_back({name, value, unit});
    std::printf("  %-40s %14.6g %-6s %s\n", name.c_str(), value, unit,
                note.c_str());
  }
  void AddPercentile(const std::string& name, const Percentile& p) {
    char note[96];
    std::snprintf(note, sizeof(note), "(q=%.4f n=%zu beyond=%zu)", p.q, p.n,
                  p.beyond);
    Add(name, p.value, "us", note);
  }
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                    metrics_[i].value, metrics_[i].unit);
      out += buf;
    }
    return out + "}";
  }

 private:
  struct Metric {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Metric> metrics_;
};

/// Chrome trace_event JSON of the kept spans: client i is thread i + 1,
/// set-up is thread 0.
void WriteSpans(const std::string& path, const WorkloadRun& run) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write spans to %s\n", path.c_str());
    return;
  }
  uint64_t origin = UINT64_MAX;
  auto scan = [&](const SpanRecorder& r) {
    for (const Span& s : r.kept()) origin = std::min(origin, s.start_ns);
  };
  scan(run.setup_spans);
  for (const ClientState& c : run.clients) scan(c.spans);
  out << "{\"traceEvents\": [";
  bool first = true;
  auto emit = [&](const SpanRecorder& r, size_t tid) {
    for (const Span& s : r.kept()) {
      out << (first ? "\n" : ",\n") << "{\"name\": \""
          << SpanNameString(s.name) << "\", \"ph\": \"X\", \"pid\": 1, "
          << "\"tid\": " << tid
          << ", \"ts\": " << static_cast<double>(s.start_ns - origin) / 1000.0
          << ", \"dur\": "
          << static_cast<double>(s.end_ns - s.start_ns) / 1000.0
          << ", \"args\": {\"op\": " << s.op << ", \"parent\": "
          << (s.parent == SpanRecorder::kNoParent
                  ? -1
                  : static_cast<int64_t>(s.parent))
          << "}}";
      first = false;
    }
  };
  emit(run.setup_spans, 0);
  for (size_t i = 0; i < run.clients.size(); ++i) {
    emit(run.clients[i].spans, i + 1);
  }
  out << "\n]}\n";
}

/// The clients' samples, tallies and span totals, merged after the join.
struct Merged {
  std::array<std::vector<float>, kNumOpKinds> latency;
  std::vector<float> all_latency;
  Tally tally;
  uint64_t ops = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;
  std::array<SpanTotals, kNumSpanNames> spans{};
  uint64_t spans_dropped = 0;
  double ops_per_s = 0;

  const std::vector<float>& Kind(OpKind kind) const {
    return latency[static_cast<size_t>(kind)];
  }
  uint64_t attempted() const { return std::max<uint64_t>(ops, 1); }
  double verdicts() const { return static_cast<double>(tally.total()); }
  double unknown() const {
    return static_cast<double>(
        tally.verdicts[static_cast<size_t>(ConflictVerdict::kUnknown)]);
  }
};

Merged MergeClients(const WorkloadRun& run) {
  Merged m;
  m.failed = run.check_failed;
  m.failures = run.check_failures;
  std::vector<double> window_rates(run.clients.front().window_ops.size(), 0);
  for (const ClientState& c : run.clients) {
    for (size_t k = 0; k < kNumOpKinds; ++k) {
      m.latency[k].insert(m.latency[k].end(), c.latency_us[k].begin(),
                          c.latency_us[k].end());
      m.all_latency.insert(m.all_latency.end(), c.latency_us[k].begin(),
                           c.latency_us[k].end());
    }
    m.tally.Merge(c.tally);
    m.ops += c.ops;
    m.failed += c.failed;
    m.failures.insert(m.failures.end(), c.failures.begin(), c.failures.end());
    for (size_t s = 0; s < kNumSpanNames; ++s) {
      m.spans[s].count += c.spans.totals()[s].count;
      m.spans[s].busy_ns += c.spans.totals()[s].busy_ns;
      m.spans[s].self_ns += c.spans.totals()[s].self_ns;
    }
    m.spans_dropped += c.spans.dropped();
    for (size_t w = 0; w < window_rates.size(); ++w) {
      window_rates[w] += c.window_ops[w] / kWindowSeconds;
    }
  }
  m.failed = std::min(m.failed, m.attempted());
  // A fixed-unit run has no windows; fall back to the whole-run rate.
  m.ops_per_s = window_rates.empty()
                    ? static_cast<double>(m.ops) / run.elapsed_s
                    : Median(window_rates);
  std::printf("  %" PRIu64 " ops in %" PRIu64 " units over %.3f s; set-up "
              "repetitions:",
              m.ops, run.units, run.elapsed_s);
  for (double s : run.setup_s) std::printf(" %.4f", s);
  std::printf(" s\n  ops/s per %.1f s window:", kWindowSeconds);
  for (double r : window_rates) std::printf(" %.6g", r);
  std::printf("\n");
  return m;
}

void AddEndToEnd(const WorkloadRun& run, const Merged& m, MetricSink* sink) {
  sink->Add("ops_per_s", m.ops_per_s, "1/s");
  sink->AddPercentile("op_p50_us", TailPercentile(m.all_latency, 0.50));
  sink->AddPercentile("op_p99_us", TailPercentile(m.all_latency, 0.99));
  sink->Add("decided_rate", Ratio(m.verdicts() - m.unknown(), m.verdicts()),
            "ratio");
  sink->Add("setup_s", Median(run.setup_s), "s");
  sink->Add("peak_rss_mb", PeakRssMb(), "MB");
}

void AddPerLayer(const WorkloadRun& run, const Merged& m, MetricSink* sink) {
  const auto& c = run.counters.counters;
  auto counter = [&](const char* name) -> double {
    const auto found = c.find(name);
    return found == c.end() ? 0.0 : static_cast<double>(found->second);
  };
  auto hist_sum = [&](const char* name) -> double {
    const auto found = run.counters.histograms.find(name);
    return found == run.counters.histograms.end()
               ? 0.0
               : static_cast<double>(found->second.sum);
  };
  auto busy_us = [&](SpanName name) {
    return static_cast<double>(m.spans[static_cast<size_t>(name)].busy_ns) /
           1000.0;
  };
  const double calls = counter("detector.calls");
  const double bounded = static_cast<double>(
      m.tally.methods[static_cast<size_t>(DetectorMethod::kBoundedSearch)]);

  for (size_t k = 0; k < kNumOpKinds; ++k) {
    const OpKind kind = static_cast<OpKind>(k);
    const std::string name = OpKindName(kind);
    sink->AddPercentile(name + "_p50_us", TailPercentile(m.Kind(kind), 0.50));
    sink->AddPercentile(name + "_p99_us", TailPercentile(m.Kind(kind), 0.99));
  }
  sink->Add("unknown_rate", Ratio(m.unknown(), m.verdicts()), "ratio",
            "(" + std::to_string(static_cast<uint64_t>(m.unknown())) +
                " of " + std::to_string(static_cast<uint64_t>(m.verdicts())) +
                " verdicts)");
  sink->Add("fail_rate",
            Ratio(static_cast<double>(m.failed),
                  static_cast<double>(m.attempted())),
            "ratio");
  sink->Add("trace.ops_per_s", m.ops_per_s, "1/s");

  sink->Add("pattern.intern_us", run.intern_us, "us");
  sink->Add("pattern.store_hit_ratio",
           Ratio(counter("pattern_store.hits"),
                 counter("pattern_store.hits") +
                     counter("pattern_store.misses")),
           "ratio");
  sink->Add("pattern.compiled_hit_ratio",
           Ratio(counter("store.nfa.hits"),
                 counter("store.nfa.hits") + counter("store.nfa.misses")),
           "ratio");
  sink->Add("pattern.compiled_bytes", counter("store.nfa.bytes"), "bytes");

  sink->Add("conflict.detect_calls", calls, "count");
  sink->Add("conflict.detect_busy_us", busy_us(SpanName::kDetect), "us");
  sink->Add("conflict.stage_share.type_pruned",
           Ratio(counter("detector.method.type_pruned"), calls), "ratio");
  sink->Add("conflict.stage_share.linear_ptime",
           Ratio(counter("detector.method.linear_ptime"), calls), "ratio");
  sink->Add("conflict.stage_share.mainline_heuristic",
           Ratio(counter("detector.method.mainline_heuristic"), calls),
           "ratio");
  sink->Add("conflict.stage_share.bounded_search",
           Ratio(counter("detector.method.bounded_search"), calls), "ratio");
  sink->Add("conflict.search_calls", counter("bounded_search.searches"),
            "count");
  sink->Add("conflict.search_busy_us", hist_sum("bounded_search.latency_us"),
            "us");
  sink->Add("conflict.search_trees_checked",
           counter("bounded_search.trees_checked"), "count");
  sink->Add("conflict.search_decided_ratio",
           Ratio(static_cast<double>(m.tally.search_decided), bounded),
           "ratio");

  sink->Add("automata.product_lookups",
           counter("detector.product_cache.lookups"), "count");
  sink->Add("automata.product_hit_ratio",
           Ratio(counter("detector.product_cache.hits"),
                 counter("detector.product_cache.lookups")),
           "ratio");

  sink->Add("xml.symbols_per_kop",
           Ratio(static_cast<double>(run.symbols_after - run.symbols_before),
                 static_cast<double>(m.ops) / 1000.0),
           "count");

  // Pairs the detector saw directly (its calls minus the batch engine's
  // solves, which are detector calls too) plus the batch engine's pairs.
  const double pairs = calls - counter("batch.cache_misses") +
                       counter("batch.pairs_total");
  sink->Add("dtd.pruned_ratio",
           Ratio(counter("detector.method.type_pruned") +
                     counter("batch.type_pruned"),
                 pairs),
           "ratio");
  sink->Add("dtd.summary_hit_ratio",
           Ratio(counter("store.types.hits"),
                 counter("store.types.hits") + counter("store.types.misses")),
           "ratio");

  sink->Add("matrix.edit_busy_us", busy_us(SpanName::kSessionEdit), "us");
  sink->Add("matrix.reuse_ratio",
           Ratio(counter("matrix.cells_reused"),
                 counter("matrix.cells_reused") +
                     counter("matrix.cells_recomputed")),
           "ratio");
  sink->Add("batch.memo_hit_ratio",
           Ratio(counter("batch.cache_hits"),
                 counter("batch.cache_hits") + counter("batch.cache_misses")),
           "ratio");
  sink->Add("batch.solve_busy_us", hist_sum("batch.solve_pair_us"), "us");
  sink->Add("lint.busy_us", busy_us(SpanName::kLint), "us");
  sink->Add("merge.busy_us", busy_us(SpanName::kMerge), "us");
  sink->Add("merge.pairs_checked", counter("merge.pairs_checked"), "count");
  sink->Add("merge.certified_ratio",
           Ratio(counter("merge.pairs_certified"),
                 counter("merge.pairs_checked")),
           "ratio");
  sink->Add("merge.levels", counter("merge.levels"), "count");
}

/// Busy and self time per span name, set-up spans included.
void PrintSpanTotals(const WorkloadRun& run, const Merged& m) {
  std::printf("  spans (benchmark code, %" PRIu64 " dropped beyond the "
              "in-memory cap):\n",
              m.spans_dropped);
  const auto& setup_totals = run.setup_spans.totals();
  for (size_t s = 0; s < kNumSpanNames; ++s) {
    const SpanTotals total = {m.spans[s].count + setup_totals[s].count,
                              m.spans[s].busy_ns + setup_totals[s].busy_ns,
                              m.spans[s].self_ns + setup_totals[s].self_ns};
    if (total.count == 0) continue;
    std::printf("    %-24s count %10" PRIu64
                "  busy %12.3f ms  self %12.3f ms\n",
                SpanNameString(static_cast<SpanName>(s)), total.count,
                static_cast<double>(total.busy_ns) / 1e6,
                static_cast<double>(total.self_ns) / 1e6);
  }
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage(argv[0]);
  using RunFn = WorkloadRun (*)(const RunOptions&);
  const std::map<std::string, RunFn> workloads = {
      {"branching_detect", &RunBranchingDetect},
      {"linear_detect", &RunLinearDetect},
      {"program_edit", &RunProgramEdit},
  };
  const auto it = workloads.find(args.workload);
  if (it == workloads.end()) return Usage(argv[0]);

  // Only the benchmark's own spans are recorded: the library recorder keeps
  // every span in an unbounded buffer.
  xmlup::obs::TraceRecorder::Default().set_enabled(false);

  RunOptions options;
  options.seed = args.seed;
  // Clients take every core; the engine and merge pools run inline on the
  // client threads, and the main thread only waits for the join.
  options.loop.clients = args.clients != 0
                             ? args.clients
                             : xmlup::ThreadPool::DefaultThreadCount();
  options.loop.seconds = args.seconds;
  options.loop.max_units = args.units;
  options.loop.trace = args.trace;

  std::printf("perfbench %s seed=%" PRIu64 " clients=%zu %s trace=%d\n",
              args.workload.c_str(), args.seed, options.loop.clients,
              args.units != 0
                  ? ("units=" + std::to_string(args.units)).c_str()
                  : ("seconds=" + std::to_string(args.seconds)).c_str(),
              args.trace ? 1 : 0);
  WorkloadRun run = it->second(options);

  const Merged m = MergeClients(run);
  MetricSink sink;
  if (!args.trace) {
    AddEndToEnd(run, m, &sink);
  } else {
    AddPerLayer(run, m, &sink);
    PrintSpanTotals(run, m);
    if (!args.spans_path.empty()) WriteSpans(args.spans_path, run);
  }

  std::printf("digest %s seed=%" PRIu64 " units=%" PRIu64
              " verdicts(conflict,no_conflict,unknown)=%" PRIu64 ",%" PRIu64
              ",%" PRIu64 " methods(linear_ptime,mainline_heuristic,"
              "bounded_search,type_pruned)=%" PRIu64 ",%" PRIu64 ",%" PRIu64
              ",%" PRIu64 " hash=%016" PRIx64 "\n",
              args.workload.c_str(), args.seed, run.units, m.tally.verdicts[0],
              m.tally.verdicts[1], m.tally.verdicts[2], m.tally.methods[0],
              m.tally.methods[1], m.tally.methods[2], m.tally.methods[3],
              m.tally.digest);
  for (const std::string& f : m.failures) {
    std::printf("failure: %s\n", f.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
              m.failed == 0 ? "true" : "false", m.attempted(), m.failed,
              sink.Json().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
