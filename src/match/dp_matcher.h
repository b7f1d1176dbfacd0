#ifndef XMLUP_MATCH_DP_MATCHER_H_
#define XMLUP_MATCH_DP_MATCHER_H_

#include <cstddef>
#include <cstdint>

#include "match/matching.h"
#include "pattern/pattern.h"

namespace xmlup {

/// Direct dynamic-programming implementation of weak/strong matching,
/// realizing the REMARK in §4.1 ("one can use an algorithm based on
/// dynamic programming"). Conceptually it is reachability over the grid of
/// positions (i, j) — i nodes of l1 and j nodes of l2 matched onto a common
/// path — with gap moves wherever the next edge is a descendant edge.
/// O(|l1|·|l2|) states; avoids building Thompson NFAs.
///
/// `weak` allows l1's output to lie strictly below l2's output.
///
/// `l2_prefix` reads only the first that many nodes of l2's chain, i.e.
/// matches against SEQ_ROOT^n of l2 for its l2_prefix-th node n without
/// extracting that prefix; the default reads the whole chain.
MatchResult MatchDp(const Pattern& l1, const Pattern& l2, bool weak,
                    size_t l2_prefix = SIZE_MAX);

}  // namespace xmlup

#endif  // XMLUP_MATCH_DP_MATCHER_H_
