#ifndef XMLUP_PATTERN_COMPILED_PATTERN_H_
#define XMLUP_PATTERN_COMPILED_PATTERN_H_

#include <cstddef>
#include <vector>

#include "pattern/pattern.h"

namespace xmlup {

/// The compile-once artifacts of one interned pattern: its mainline
/// (SEQ_ROOT^O(p)) and, for every node on that chain, the prefix pattern
/// SEQ_ROOT^chain[k] and the suffix pattern SEQ_chain[k]^O. These are
/// exactly the operands the linear conflict algorithms extract per edge;
/// a PatternStore entry builds them once and every later ref-based call
/// hands them to the matcher (MatchCompiled) as they are.
///
/// Immutable after construction; safe to share across threads.
class CompiledPattern {
 public:
  /// Compiles `stored` (any pattern; only its mainline chain is compiled).
  /// For a linear pattern the mainline is the pattern itself.
  explicit CompiledPattern(const Pattern& stored);

  CompiledPattern(const CompiledPattern&) = delete;
  CompiledPattern& operator=(const CompiledPattern&) = delete;

  /// Mainline(stored): the linear pattern along the root→output path.
  const Pattern& mainline_pattern() const { return mainline_; }

  /// Number of nodes on the mainline chain (>= 1).
  size_t chain_length() const { return chain_.size(); }

  /// Node id of chain position `k` *within mainline_pattern()* (k = 0 is
  /// the root, k = chain_length()-1 the output).
  PatternNodeId mainline_node(size_t k) const { return chain_[k]; }

  /// SEQ_ROOT^chain[k] of the mainline.
  const Pattern& prefix_pattern(size_t k) const { return prefixes_[k]; }

  /// SEQ_chain[k]^O of the mainline (suffix starting at chain[k]).
  const Pattern& suffix_pattern(size_t k) const { return suffixes_[k]; }

  /// Retained-storage estimate of the patterns, for the store.nfa.bytes
  /// counter.
  size_t bytes() const { return bytes_; }

 private:
  Pattern mainline_;
  std::vector<PatternNodeId> chain_;
  std::vector<Pattern> prefixes_;
  std::vector<Pattern> suffixes_;
  size_t bytes_ = 0;
};

}  // namespace xmlup

#endif  // XMLUP_PATTERN_COMPILED_PATTERN_H_
