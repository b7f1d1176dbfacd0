#include "automata/regex.h"

namespace xmlup {

Regex Regex::Epsilon() {
  Regex r;
  r.kind_ = Kind::kEpsilon;
  return r;
}

Regex Regex::Symbol(Label label) {
  Regex r;
  r.kind_ = Kind::kSymbol;
  r.label_ = label;
  return r;
}

Regex Regex::Dot() {
  Regex r;
  r.kind_ = Kind::kDot;
  return r;
}

Regex Regex::Concat(Regex left, Regex right) {
  Regex r;
  r.kind_ = Kind::kConcat;
  r.children_.push_back(std::make_shared<const Regex>(std::move(left)));
  r.children_.push_back(std::make_shared<const Regex>(std::move(right)));
  return r;
}

Regex Regex::Star(Regex inner) {
  Regex r;
  r.kind_ = Kind::kStar;
  r.children_.push_back(std::make_shared<const Regex>(std::move(inner)));
  return r;
}

std::string Regex::ToString(const SymbolTable& symbols) const {
  switch (kind_) {
    case Kind::kEpsilon:
      return "ε";
    case Kind::kSymbol:
      return symbols.Name(label_);
    case Kind::kDot:
      return "(.)";
    case Kind::kConcat:
      return left().ToString(symbols) + "." + right().ToString(symbols);
    case Kind::kStar: {
      return "(" + inner().ToString(symbols) + ")*";
    }
  }
  return "?";
}

}  // namespace xmlup
