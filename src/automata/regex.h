#ifndef XMLUP_AUTOMATA_REGEX_H_
#define XMLUP_AUTOMATA_REGEX_H_

#include <memory>
#include <string>
#include <vector>

#include "match/label_class.h"
#include "xml/symbol_table.h"

namespace xmlup {

/// Minimal regular-expression IR: exactly what the paper's construction
/// R(n) needs (§4.1) — symbols, the any-symbol dot, concatenation and
/// Kleene star (plus epsilon as a unit).
class Regex {
 public:
  enum class Kind { kEpsilon, kSymbol, kDot, kConcat, kStar };

  static Regex Epsilon();
  static Regex Symbol(Label label);
  static Regex Dot();
  static Regex Concat(Regex left, Regex right);
  static Regex Star(Regex inner);

  Kind kind() const { return kind_; }
  Label label() const { return label_; }
  const Regex& left() const { return *children_[0]; }
  const Regex& right() const { return *children_[1]; }
  const Regex& inner() const { return *children_[0]; }

  /// Debug rendering, e.g. "a.(.)*.b" (concatenation rendered with '.').
  std::string ToString(const SymbolTable& symbols) const;

 private:
  Regex() = default;

  Kind kind_ = Kind::kEpsilon;
  Label label_ = kInvalidLabel;
  std::vector<std::shared_ptr<const Regex>> children_;
};

}  // namespace xmlup

#endif  // XMLUP_AUTOMATA_REGEX_H_
