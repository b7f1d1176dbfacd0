#ifndef XMLUP_MATCH_MATCHING_H_
#define XMLUP_MATCH_MATCHING_H_

#include "match/label_class.h"
#include "pattern/pattern.h"
#include "xml/tree.h"

namespace xmlup {

class Regex;

/// Result of a weak/strong matching query. When `matches` is true,
/// `witness_word` holds the labels (symbol classes) of a root-to-deepest
/// path of a tree witnessing the match; Any classes may be resolved to an
/// arbitrary (e.g. fresh) label.
struct MatchResult {
  bool matches = false;
  ClassWord witness_word;
};

/// The paper's R(n) construction (§4.1): the regular expression derived
/// from a linear pattern — root symbol, `·sym` per child edge,
/// `·(.)*·sym` per descendant edge. Callers include automata/regex.h.
Regex LinearPatternToRegex(const Pattern& linear);

/// Definition 7. `l1` and `l2` must be linear patterns.
///
/// Strong: some tree embeds both with E1(O(l1)) = E2(O(l2))
///         — L(r1) ∩ L(r2) ≠ ∅.
/// Weak:   additionally allows E1(O(l1)) to be a *descendant* of E2(O(l2))
///         — L(r1) ∩ L(r2·(.)*) ≠ ∅. (Note the asymmetry: l1's output is
///         the deeper one.)
///
/// These run the paper's construction (regular expressions, Thompson
/// NFAs, product emptiness; automata/) and are the reference the
/// detection hot path (MatchDp, the §4.1 dynamic program) is tested
/// against.
MatchResult MatchStrongly(const Pattern& l1, const Pattern& l2);
MatchResult MatchWeakly(const Pattern& l1, const Pattern& l2);

/// Materializes a witness word as a path tree, resolving Any classes to
/// `filler`. The word must be non-empty.
Tree WordToPathTree(const ClassWord& word,
                    const std::shared_ptr<SymbolTable>& symbols,
                    Label filler);

}  // namespace xmlup

#endif  // XMLUP_MATCH_MATCHING_H_
