// TSan-targeted regression tests for the PatternStore's call_once latch
// behind type_summary() and its lock-free entry reads. The latch promises
// "first caller builds, everyone else waits, all callers observe the same
// object" — the races this file drives are exactly the ones the latch
// exists to close, so a latch regression shows up here as a TSan report
// (or as the accounting/identity assertions below firing).
//
// The threading pattern is deliberate: a start gate (threads spin on an
// atomic until all are created) maximizes the chance that every thread
// reaches the cold latch in the same window, on 1-core CI machines too.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dtd/dtd.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "pattern/pattern_store.h"
#include "tests/test_util.h"

namespace xmlup {
namespace {

using testing_util::NewSymbols;
using testing_util::Xp;

constexpr size_t kThreads = 8;

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Default().GetCounter(name).value();
}

/// Runs `body(t)` on kThreads threads released together through a spin
/// gate, and joins them (the join is the happens-before edge every
/// post-loop assertion relies on).
template <typename Body>
void RunRaced(Body body) {
  std::atomic<size_t> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (!go.load()) {
      }
      body(t);
    });
  }
  while (ready.load() != kThreads) {
  }
  go.store(true);
  for (std::thread& thread : threads) thread.join();
}

std::shared_ptr<const Dtd> CatalogDtd(
    const std::shared_ptr<SymbolTable>& symbols) {
  return std::make_shared<const Dtd>(
      Dtd::Parse("root catalog\n"
                 "allow catalog : book\n"
                 "allow book : title stock\n"
                 "seal title\n",
                 symbols)
          .value());
}

TEST(StoreLatchRaceTest, ColdTypeSummaryLatchBuildsOncePerEntry) {
  auto symbols = NewSymbols();
  auto store = std::make_shared<PatternStore>(symbols);
  auto dtd = CatalogDtd(symbols);

  std::vector<PatternRef> refs;
  for (int i = 0; i < 6; ++i) {
    refs.push_back(store->Intern(
        Xp("catalog/book[.//title" + std::to_string(i) + "]", symbols)));
  }

  const uint64_t misses_before = CounterValue("store.types.misses");

  std::vector<std::vector<const TypeSummary*>> seen(kThreads);
  RunRaced([&](size_t t) {
    for (const PatternRef ref : refs) {
      seen[t].push_back(&store->type_summary(ref, *dtd));
    }
  });

  for (size_t t = 1; t < kThreads; ++t) {
    for (size_t i = 0; i < refs.size(); ++i) {
      EXPECT_EQ(seen[t][i], seen[0][i])
          << "thread " << t << " saw a different TypeSummary for ref " << i;
    }
  }
  EXPECT_EQ(CounterValue("store.types.misses") - misses_before, refs.size());
}

TEST(StoreLatchRaceTest, TypeLatchRacesLockFreeReadsOnOneEntry) {
  // All threads chase the type latch of one cold entry, half of them
  // after and half before reading the entry's stored pattern through the
  // lock-free path: the latch shares the Entry with those reads and must
  // not corrupt them.
  auto symbols = NewSymbols();
  auto store = std::make_shared<PatternStore>(symbols);
  auto dtd = CatalogDtd(symbols);
  const PatternRef ref = store->Intern(Xp("catalog//stock", symbols));

  const uint64_t type_misses_before = CounterValue("store.types.misses");

  std::vector<const Pattern*> patterns(kThreads, nullptr);
  std::vector<const TypeSummary*> summaries(kThreads, nullptr);
  RunRaced([&](size_t t) {
    if (t % 2 == 0) {
      patterns[t] = &store->pattern(ref);
      summaries[t] = &store->type_summary(ref, *dtd);
    } else {
      summaries[t] = &store->type_summary(ref, *dtd);
      patterns[t] = &store->pattern(ref);
    }
    EXPECT_TRUE(store->linear(ref));
  });

  for (size_t t = 1; t < kThreads; ++t) {
    EXPECT_EQ(patterns[t], patterns[0]);
    EXPECT_EQ(summaries[t], summaries[0]);
  }
  EXPECT_EQ(CounterValue("store.types.misses") - type_misses_before, 1u);
}

TEST(StoreLatchRaceTest, RacedInternsDeduplicateAndKeepStoreSizeStable) {
  // Interning the same pattern set from every thread must yield identical
  // refs and leave size() == the number of distinct patterns: the
  // double-checked interning path and the EntryTable publish path (the
  // size_ release / acquire edge documented in pattern_store.cc) under
  // contention.
  auto symbols = NewSymbols();
  auto store = std::make_shared<PatternStore>(symbols);

  constexpr int kDistinct = 12;
  std::vector<std::vector<PatternRef>> refs(kThreads);
  RunRaced([&](size_t t) {
    for (int i = 0; i < kDistinct; ++i) {
      const std::string xpath = "a/b" + std::to_string(i) + "//c";
      refs[t].push_back(store->Intern(Xp(xpath, symbols)));
      // Immediately read back through the lock-free path: a stale chunk
      // pointer or unpublished entry is a TSan hit / crash here.
      (void)store->pattern(refs[t].back());
      (void)store->canonical_code(refs[t].back());
    }
  });

  EXPECT_EQ(store->size(), static_cast<size_t>(kDistinct));
  for (size_t t = 1; t < kThreads; ++t) {
    EXPECT_EQ(refs[t], refs[0]);
  }
}

}  // namespace
}  // namespace xmlup
