// Experiment E2 (§4.1 + REMARK): weak/strong matching of linear patterns
// is polynomial; ablation of the paper's NFA-intersection construction
// against the direct dynamic-programming matcher. Series: pattern length
// sweep and star-density sweep for both matchers.

#include "benchmark/benchmark.h"
#include "bench/bench_util.h"
#include "match/dp_matcher.h"
#include "match/matching.h"

namespace xmlup {
namespace {

void RunMatch(benchmark::State& state, bool dp, double wildcard_prob,
              double descendant_prob) {
  const size_t size = static_cast<size_t>(state.range(0));
  const Pattern l1 =
      bench::RandomLinear(size, 11, wildcard_prob, descendant_prob);
  const Pattern l2 =
      bench::RandomLinear(size, 13, wildcard_prob, descendant_prob);
  size_t matches = 0;
  for (auto _ : state) {
    const MatchResult m =
        dp ? MatchDp(l1, l2, /*weak=*/true) : MatchWeakly(l1, l2);
    matches += m.matches ? 1 : 0;
    benchmark::DoNotOptimize(matches);
  }
  state.SetComplexityN(state.range(0));
}

void BM_MatchNfa(benchmark::State& state) {
  RunMatch(state, /*dp=*/false, 0.2, 0.4);
}
BENCHMARK(BM_MatchNfa)
    ->RangeMultiplier(2)
    ->Range(4, 256)
    ->Complexity(benchmark::oNSquared);

void BM_MatchDp(benchmark::State& state) {
  RunMatch(state, /*dp=*/true, 0.2, 0.4);
}
BENCHMARK(BM_MatchDp)
    ->RangeMultiplier(2)
    ->Range(4, 256)
    ->Complexity(benchmark::oNSquared);

// Star-density ablation: all-wildcard descendant-heavy patterns are the
// worst case for the product construction (maximum nondeterminism).
void BM_MatchNfaStarHeavy(benchmark::State& state) {
  RunMatch(state, /*dp=*/false, 0.9, 0.8);
}
BENCHMARK(BM_MatchNfaStarHeavy)->RangeMultiplier(2)->Range(4, 128);

void BM_MatchDpStarHeavy(benchmark::State& state) {
  RunMatch(state, /*dp=*/true, 0.9, 0.8);
}
BENCHMARK(BM_MatchDpStarHeavy)->RangeMultiplier(2)->Range(4, 128);

void BM_StrongVsWeak(benchmark::State& state) {
  const size_t size = static_cast<size_t>(state.range(0));
  const Pattern l1 = bench::RandomLinear(size, 17);
  const Pattern l2 = bench::RandomLinear(size, 19);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatchStrongly(l1, l2).matches);
  }
}
BENCHMARK(BM_StrongVsWeak)->RangeMultiplier(2)->Range(4, 256);

}  // namespace
}  // namespace xmlup
