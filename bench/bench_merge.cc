// Concurrent edit-merge throughput: N per-session update streams merged
// into one document through MergeExecutor (certify cross pairs → wavefront
// levels → split-phase execution), swept over session count {2, 4, 8} and
// conflict rate. The two regimes model collaborative editing:
//   low   each session edits its own r/s<k> subtree — cross pairs certify,
//         levels stay wide, most ops are accepted;
//   high  every session edits the same r/s0 subtree — uncertified pairs
//         chain the sessions, levels stack, most ops serialize.
// Patterns are linear (anchored XPaths), so certification runs the PTIME
// detectors — the production-shaped path, not the bounded-search tail.
// Each config's merged trees are checked against the sequential reference
// (ApplySerialReference), and the harness writes "merge":{"configs":[...]}
// — ops_total, accepted/serialized/rejected, levels, per-merge
// microseconds, throughput, oracle_identical — into BENCH_merge.json; CI
// asserts throughput > 0, oracle agreement and the accounting identity
// per config.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "benchmark/benchmark.h"
#include "common/check.h"
#include "common/random.h"
#include "engine/engine.h"
#include "merge/merge_executor.h"
#include "xml/isomorphism.h"
#include "xml/tree_algos.h"
#include "xml/xml_parser.h"

namespace xmlup {
namespace {

constexpr size_t kUnitsPerConfig = 8;
constexpr size_t kOpsPerSession = 3;
constexpr size_t kMaxSessions = 8;

Engine& SharedEngine() {
  static Engine& engine = *new Engine(bench::Symbols());
  return engine;
}

/// One pre-generated merge workload: kUnitsPerConfig (seed tree, streams)
/// units, deterministic per (sessions, regime).
struct MergeWorkload {
  std::vector<Tree> seeds;
  std::vector<std::vector<std::vector<UpdateOp>>> units;
};

/// The shared seed document: one s<k> subtree per possible session, each
/// holding the same small a/b/c furniture the op templates edit.
Tree MakeSeed() {
  std::string xml = "<r>";
  for (size_t k = 0; k < kMaxSessions; ++k) {
    const std::string s = "s" + std::to_string(k);
    xml += "<" + s + "><a><b/></a><c/></" + s + ">";
  }
  xml += "</r>";
  return ParseXml(xml, bench::Symbols()).value();
}

/// Draws one op for the session anchored at `anchor` (e.g. "r/s3"). The
/// templates mix inserts and deletes over the subtree's a/b/c furniture;
/// two sessions sharing an anchor collide constantly (the insert-an-a /
/// read-under-a pair is the canonical uncertified pair), while distinct
/// anchors keep every cross pair certified.
UpdateOp DrawOp(const std::string& anchor, Rng* rng) {
  Engine& engine = SharedEngine();
  const std::shared_ptr<SymbolTable>& symbols = bench::Symbols();
  auto ins = [&](const std::string& xpath, const char* content) {
    return engine.Bind(UpdateOp::MakeInsert(
        MustParseXPath(xpath, symbols),
        std::make_shared<const Tree>(ParseXml(content, symbols).value())));
  };
  auto del = [&](const std::string& xpath) {
    return engine.Bind(
        UpdateOp::MakeDelete(MustParseXPath(xpath, symbols)).value());
  };
  switch (rng->NextBounded(5)) {
    case 0:
      return ins(anchor, "<a><b/></a>");
    case 1:
      return ins(anchor + "/a", "<b/>");
    case 2:
      return ins(anchor + "/c", "<d/>");
    case 3:
      return del(anchor + "/a/b");
    default:
      return del(anchor + "/c/d");
  }
}

MergeWorkload MakeWorkload(size_t sessions, bool disjoint, uint64_t seed) {
  Rng rng(seed);
  MergeWorkload w;
  for (size_t u = 0; u < kUnitsPerConfig; ++u) {
    w.seeds.push_back(MakeSeed());
    std::vector<std::vector<UpdateOp>> streams(sessions);
    for (size_t k = 0; k < sessions; ++k) {
      const std::string anchor =
          disjoint ? "r/s" + std::to_string(k) : "r/s0";
      for (size_t i = 0; i < kOpsPerSession; ++i) {
        streams[k].push_back(DrawOp(anchor, &rng));
      }
    }
    w.units.push_back(std::move(streams));
  }
  return w;
}

/// Merges every unit of `w` once; returns aggregate report counts and
/// leaves the merged trees in `merged` (cleared first) for oracle checks.
MergeReport MergeAll(const MergeWorkload& w, const MergeExecutor& executor,
                     std::vector<Tree>* merged) {
  MergeReport total;
  if (merged) merged->clear();
  for (size_t u = 0; u < w.seeds.size(); ++u) {
    Tree working = CopyTree(w.seeds[u]);
    const Result<MergeReport> report = executor.Merge(&working, w.units[u]);
    XMLUP_CHECK(report.ok());
    total.ops_total += report->ops_total;
    total.accepted += report->accepted;
    total.serialized += report->serialized;
    total.rejected += report->rejected;
    total.levels += report->levels;
    if (merged) merged->push_back(std::move(working));
  }
  return total;
}

void BM_Merge(benchmark::State& state) {
  const size_t sessions = static_cast<size_t>(state.range(0));
  const bool disjoint = state.range(1) == 0;
  const MergeWorkload w =
      MakeWorkload(sessions, disjoint, 40'000 + sessions);
  MergeOptions options;
  options.num_threads = 4;
  const MergeExecutor executor(&SharedEngine(), options);
  MergeAll(w, executor, nullptr);  // warm the store and the batch memo
  for (auto _ : state) {
    const MergeReport total = MergeAll(w, executor, nullptr);
    benchmark::DoNotOptimize(total.ops_total);
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<int64_t>(kUnitsPerConfig * sessions * kOpsPerSession));
  state.SetLabel(disjoint ? "low" : "high");
}
BENCHMARK(BM_Merge)
    ->Unit(benchmark::kMicrosecond)
    ->ArgsProduct({{2, 4, 8}, {0, 1}});

/// Harness-timed sweep — the acceptance numbers for BENCH_merge.json.
/// Best-of-reps per config; every config's merged trees must match the
/// sequential reference canonical-code-for-canonical-code.
std::string MeasureMerge() {
  std::string configs;
  for (const bool disjoint : {true, false}) {
    const char* regime = disjoint ? "low" : "high";
    for (const size_t sessions : {size_t{2}, size_t{4}, size_t{8}}) {
      const MergeWorkload w =
          MakeWorkload(sessions, disjoint, 50'000 + sessions);
      MergeOptions options;
      options.num_threads = 4;
      const MergeExecutor executor(&SharedEngine(), options);

      // Oracle pass: merged vs serial reference, unit by unit.
      std::vector<Tree> merged;
      const MergeReport total = MergeAll(w, executor, &merged);
      bool oracle_identical = true;
      for (size_t u = 0; u < w.seeds.size(); ++u) {
        Tree check = CopyTree(w.seeds[u]);
        const Result<MergeReport> r = executor.Merge(&check, w.units[u]);
        XMLUP_CHECK(r.ok());
        Tree reference = CopyTree(w.seeds[u]);
        ApplySerialReference(&reference, w.units[u], *r);
        oracle_identical =
            oracle_identical &&
            CanonicalCode(merged[u]) == CanonicalCode(reference);
      }

      constexpr int kReps = 5;
      double best = 1e300;
      for (int rep = 0; rep < kReps; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        MergeAll(w, executor, nullptr);
        const auto t1 = std::chrono::steady_clock::now();
        best = std::min(best,
                        std::chrono::duration<double>(t1 - t0).count());
      }
      const double merge_us =
          best * 1e6 / static_cast<double>(kUnitsPerConfig);
      const double throughput =
          static_cast<double>(total.ops_total) / best;

      char buffer[512];
      snprintf(buffer, sizeof(buffer),
               "%s{\"sessions\":%zu,\"conflict\":\"%s\","
               "\"ops_total\":%zu,\"accepted\":%zu,\"serialized\":%zu,"
               "\"rejected\":%zu,\"levels\":%zu,\"merge_us\":%.1f,"
               "\"throughput_ops_per_s\":%.0f,\"oracle_identical\":%s}",
               configs.empty() ? "" : ",", sessions, regime,
               total.ops_total, total.accepted, total.serialized,
               total.rejected, total.levels, merge_us, throughput,
               oracle_identical ? "true" : "false");
      configs += buffer;
      std::cerr << "merge sessions=" << sessions << " conflict=" << regime
                << ": " << merge_us << " us/merge, " << throughput
                << " ops/s, accepted " << total.accepted << "/"
                << total.ops_total << ", oracle "
                << (oracle_identical ? "identical" : "DIVERGED") << "\n";
    }
  }
  return "\"merge\":{\"configs\":[" + configs + "]}";
}

}  // namespace
}  // namespace xmlup

/// Custom main (instead of benchmark_main): honors XMLUP_OBS, runs the
/// session/conflict sweep with its serial-oracle check, and dumps metrics
/// + the sweep to BENCH_merge.json for the CI bench-smoke job.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  const bool obs = xmlup::bench::EnableObsFromEnv();
  std::cerr << "obs " << (obs ? "enabled" : "disabled (XMLUP_OBS=0)") << "\n";
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  const std::string merge = xmlup::MeasureMerge();
  xmlup::bench::DumpObs("merge", merge);
  return 0;
}
