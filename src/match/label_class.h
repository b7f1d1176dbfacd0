#ifndef XMLUP_MATCH_LABEL_CLASS_H_
#define XMLUP_MATCH_LABEL_CLASS_H_

#include <vector>

#include "xml/symbol_table.h"

namespace xmlup {

/// A symbol class on an automaton transition or in a witness word: either
/// one concrete label or "any label" (the paper's (.), which stands for any
/// symbol of the restricted alphabet Σ_{l,l'}; treating it as "any label at
/// all" is equivalent for intersection-emptiness because class intersection
/// is computed symbolically). Shared by both matchers: the dynamic program
/// of match/dp_matcher.h and the reference automata of automata/.
struct LabelClass {
  bool any = false;
  Label label = kInvalidLabel;

  static LabelClass Any() { return {true, kInvalidLabel}; }
  static LabelClass Of(Label l) { return {false, l}; }

  bool operator==(const LabelClass& other) const {
    return any == other.any && (any || label == other.label);
  }
};

/// A word over symbol classes; each element is either a concrete label or
/// "any" (resolved to a caller-chosen filler when materialized).
using ClassWord = std::vector<LabelClass>;

/// Symbolic intersection of two classes; returns false if empty, else
/// writes the (most specific) intersection into `out`.
inline bool IntersectClasses(const LabelClass& a, const LabelClass& b,
                             LabelClass* out) {
  if (a.any) {
    *out = b;
    return true;
  }
  if (b.any) {
    *out = a;
    return true;
  }
  if (a.label != b.label) return false;
  *out = a;
  return true;
}

}  // namespace xmlup

#endif  // XMLUP_MATCH_LABEL_CLASS_H_
