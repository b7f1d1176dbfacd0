// Lint-engine benchmarks (E16): throughput of the full multi-pass
// analyzer over generated straight-line programs, plus how much the warm
// batch-engine memo cache buys when linting many programs that share
// patterns (the compiler-frontend workload: one Linter, many translation
// units). The program generator draws linear patterns only, so the
// corpus redraws its reads as branching patterns: under a small search
// budget they keep the truncated-verdict share non-zero, so the soundness
// path is part of what is measured.

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "benchmark/benchmark.h"
#include "bench/bench_util.h"
#include "analysis/lint.h"
#include "common/random.h"
#include "obs/metrics.h"
#include "pattern/pattern_writer.h"
#include "workload/pattern_generator.h"
#include "workload/program_generator.h"

namespace xmlup {
namespace {

constexpr size_t kPrograms = 24;
constexpr size_t kStatementsPer = 16;

LintOptions MakeLintOptions() {
  LintOptions options;
  // Small budget: branching reads routinely truncate, exercising the
  // Unknown-as-dependence path the soundness guard relies on.
  options.batch.detector.search.max_nodes = 4;
  options.batch.num_threads = 4;
  return options;
}

std::vector<Program> MakePrograms() {
  ProgramGenOptions options;
  options.num_statements = kStatementsPer;
  options.num_variables = 2;
  options.repeat_read_prob = 0.4;  // CSE + dead-read opportunities
  options.pattern.size = 4;
  options.pattern.branch_prob = 0.5;  // branching reads → some Unknowns
  options.pattern.alphabet = {bench::Symbols()->Intern("a"),
                              bench::Symbols()->Intern("b"),
                              bench::Symbols()->Intern("c")};
  RandomProgramGenerator gen(bench::Symbols(), options);
  const RandomPatternGenerator reads(bench::Symbols(), options.pattern);
  Rng rng(4242);
  Rng read_rng(4243);
  std::vector<Program> programs;
  for (size_t i = 0; i < kPrograms; ++i) {
    Program program = gen.Generate(&rng);
    // Redraw each read as a branching pattern; a repeated read gets the
    // same redraw, so the CSE opportunities survive.
    std::map<std::string, Pattern> redrawn;
    for (Statement& statement : program.mutable_statements()) {
      if (statement.kind != Statement::Kind::kRead) continue;
      const std::string key = ToXPathString(statement.pattern);
      auto it = redrawn.find(key);
      if (it == redrawn.end()) {
        it = redrawn.emplace(key, reads.GenerateBranching(&read_rng)).first;
      }
      statement.pattern = it->second;
    }
    programs.push_back(std::move(program));
  }
  return programs;
}

void BM_LintProgramColdEngine(benchmark::State& state) {
  const std::vector<Program> programs = MakePrograms();
  for (auto _ : state) {
    const Linter linter(MakeLintOptions());
    const LintResult result = linter.Lint(programs[0]);
    benchmark::DoNotOptimize(result.diagnostics.data());
  }
  state.counters["statements"] = static_cast<double>(kStatementsPer);
}
BENCHMARK(BM_LintProgramColdEngine)->Unit(benchmark::kMillisecond);

void BM_LintCorpusWarmEngine(benchmark::State& state) {
  const std::vector<Program> programs = MakePrograms();
  const Linter linter(MakeLintOptions());
  for (auto _ : state) {
    size_t diagnostics = 0;
    for (const Program& program : programs) {
      diagnostics += linter.Lint(program).diagnostics.size();
    }
    benchmark::DoNotOptimize(diagnostics);
  }
  state.counters["programs"] = static_cast<double>(kPrograms);
}
BENCHMARK(BM_LintCorpusWarmEngine)->Unit(benchmark::kMillisecond);

void BM_RenderSarif(benchmark::State& state) {
  const std::vector<Program> programs = MakePrograms();
  const Linter linter(MakeLintOptions());
  const LintResult result = linter.Lint(programs[0]);
  for (auto _ : state) {
    const std::string sarif = RenderLintSarif(programs[0], result);
    benchmark::DoNotOptimize(sarif.data());
  }
}
BENCHMARK(BM_RenderSarif)->Unit(benchmark::kMicrosecond);

}  // namespace

/// Harness-timed corpus lint for BENCH_lint.json: one warm Linter over the
/// whole corpus, reporting throughput and the diagnostic/Unknown mix the
/// acceptance criteria track.
std::string MeasureLintCorpus() {
  const std::vector<Program> programs = MakePrograms();
  const Linter linter(MakeLintOptions());
  size_t statements = 0;
  size_t diagnostics = 0;
  size_t unknown = 0;
  size_t pairs = 0;
  size_t fixits = 0;
  // Every pair the batch layer is asked for, by any engine: one analysis
  // per program requests exactly `pairs_checked` of them.
  const obs::Counter& requested =
      obs::MetricsRegistry::Default().GetCounter("batch.pairs_total");
  // Warm-up pass fills the memo cache; the timed pass is the steady state.
  for (const Program& program : programs) linter.Lint(program);
  const uint64_t requested_before = requested.value();
  const auto t0 = std::chrono::steady_clock::now();
  for (const Program& program : programs) {
    const LintResult result = linter.Lint(program);
    statements += result.stats.statements;
    diagnostics += result.diagnostics.size();
    unknown += result.stats.unknown_verdicts;
    pairs += result.stats.pairs_checked;
    for (const Diagnostic& d : result.diagnostics) {
      fixits += d.fixit.has_value() ? 1 : 0;
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  const uint64_t pairs_requested = requested.value() - requested_before;
  const double seconds = std::chrono::duration<double>(t1 - t0).count();
  const double unknown_share = pairs == 0 ? 0.0 : 1.0 * unknown / pairs;
  char buffer[512];
  snprintf(buffer, sizeof(buffer),
           "\"lint\":{\"programs\":%zu,\"statements\":%zu,"
           "\"diagnostics\":%zu,\"fixits\":%zu,\"pairs_checked\":%zu,"
           "\"pairs_requested\":%llu,"
           "\"unknown_share\":%.4f,\"seconds\":%.4f,"
           "\"diagnostics_per_sec\":%.1f}",
           kPrograms, statements, diagnostics, fixits, pairs,
           static_cast<unsigned long long>(pairs_requested), unknown_share,
           seconds, seconds == 0 ? 0.0 : diagnostics / seconds);
  std::cerr << "lint corpus: " << kPrograms << " programs, " << diagnostics
            << " diagnostics in " << seconds * 1e3 << " ms (unknown share "
            << unknown_share << ")\n";
  return buffer;
}

}  // namespace xmlup

/// Custom main (instead of benchmark_main): honors XMLUP_OBS, measures the
/// warm-corpus lint, and dumps metrics to BENCH_lint.json for CI.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  const bool obs = xmlup::bench::EnableObsFromEnv();
  std::cerr << "obs " << (obs ? "enabled" : "disabled (XMLUP_OBS=0)") << "\n";
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  const std::string corpus = xmlup::MeasureLintCorpus();
  xmlup::bench::DumpObs("lint", corpus);
  return 0;
}
