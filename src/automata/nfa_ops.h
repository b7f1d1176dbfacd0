#ifndef XMLUP_AUTOMATA_NFA_OPS_H_
#define XMLUP_AUTOMATA_NFA_OPS_H_

#include <optional>

#include "automata/nfa.h"
#include "match/label_class.h"

namespace xmlup {

/// Decides emptiness of L(a) ∩ L(b) by BFS over the product automaton with
/// symbolic class intersection (§4.1: "construct non-deterministic finite
/// state automata ... verify in time polynomial ... whether the
/// intersection is non-empty").
bool IntersectionNonEmpty(const Nfa& a, const Nfa& b);

/// Like IntersectionNonEmpty, but returns a shortest witness word of the
/// intersection (nullopt if empty). The word's Any classes may be resolved
/// to any label; the matching module resolves them to a filler symbol when
/// building witness trees.
std::optional<ClassWord> IntersectionWitness(const Nfa& a, const Nfa& b);

}  // namespace xmlup

#endif  // XMLUP_AUTOMATA_NFA_OPS_H_
