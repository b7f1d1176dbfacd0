#include "pattern/compiled_pattern.h"

#include <atomic>

// The compiler reuses the matcher's own regex construction so compiled
// automata are structurally identical to the ones the value path builds
// per call (same include direction as pattern_store.cc → conflict/minimize).
#include "match/matching.h"
#include "pattern/pattern_ops.h"

namespace xmlup {
namespace {

/// Process-wide compiled-NFA uid allocator. Starts at 1 so every uid is
/// nonzero (NfaProductCache treats 0 as "not a compiled automaton").
std::atomic<uint64_t> g_next_uid{1};

size_t NfaBytes(const Nfa& nfa) {
  size_t total = sizeof(Nfa);
  total += nfa.transitions().size() * sizeof(Nfa::Transition);
  total += nfa.epsilon_transitions().size() * sizeof(Nfa::EpsilonTransition);
  // Per-state adjacency + precomputed closures.
  return total + nfa.IndexBytes();
}

size_t PatternBytes(const Pattern& p) {
  return sizeof(Pattern) + p.size() * 24 /* Pattern::Node */;
}

}  // namespace

CompiledPattern::CompiledPattern(const Pattern& stored)
    : mainline_(Mainline(stored)) {
  // The mainline is linear: walk its single chain root→output.
  for (PatternNodeId n = mainline_.root(); n != kNullPatternNode;
       n = mainline_.first_child(n)) {
    chain_.push_back(n);
  }

  const size_t length = chain_.size();
  // ordering: relaxed — pure id minting: all that matters is that each
  // claim returns a distinct range, which fetch_add's atomicity alone
  // guarantees. The uids only reach other threads inside this object,
  // whose publication (the store's entry latch) carries the ordering.
  uid_base_ = g_next_uid.fetch_add(2 * length, std::memory_order_relaxed);

  prefixes_.reserve(length);
  suffixes_.reserve(length);
  prefix_nfas_.reserve(length);
  prefix_weak_nfas_.reserve(length);
  for (size_t k = 0; k < length; ++k) {
    prefixes_.push_back(ExtractSeq(mainline_, mainline_.root(), chain_[k]));
    suffixes_.push_back(ExtractSeq(mainline_, chain_[k], mainline_.output()));
    // Exactly MatchViaNfa's l2-side construction: R(prefix) for strong
    // matches, R(prefix)·(.)* for weak ones.
    Regex strong = LinearPatternToRegex(prefixes_[k]);
    Regex weak = Regex::Concat(LinearPatternToRegex(prefixes_[k]),
                               Regex::Star(Regex::Dot()));
    prefix_nfas_.push_back(Nfa::FromRegex(strong));
    prefix_weak_nfas_.push_back(Nfa::FromRegex(weak));

    bytes_ += PatternBytes(prefixes_[k]) + PatternBytes(suffixes_[k]);
    bytes_ += NfaBytes(prefix_nfas_[k]) + NfaBytes(prefix_weak_nfas_[k]);
  }
  bytes_ += PatternBytes(mainline_) + chain_.size() * sizeof(PatternNodeId);
}

}  // namespace xmlup
