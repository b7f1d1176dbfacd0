#include "pattern/compiled_pattern.h"

#include "pattern/pattern_ops.h"

namespace xmlup {
namespace {

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
  prefixes_.reserve(length);
  suffixes_.reserve(length);
  for (size_t k = 0; k < length; ++k) {
    prefixes_.push_back(ExtractSeq(mainline_, mainline_.root(), chain_[k]));
    suffixes_.push_back(ExtractSeq(mainline_, chain_[k], mainline_.output()));
    bytes_ += PatternBytes(prefixes_[k]) + PatternBytes(suffixes_[k]);
  }
  bytes_ += PatternBytes(mainline_) + chain_.size() * sizeof(PatternNodeId);
}

}  // namespace xmlup
