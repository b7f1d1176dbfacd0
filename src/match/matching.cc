#include "match/matching.h"

#include "automata/nfa_ops.h"
#include "automata/regex.h"
#include "xml/tree_algos.h"

namespace xmlup {
namespace {

Regex NodeSymbol(const Pattern& p, PatternNodeId n) {
  return p.is_wildcard(n) ? Regex::Dot() : Regex::Symbol(p.label(n));
}

MatchResult MatchViaNfa(const Pattern& l1, const Pattern& l2, bool weak) {
  Regex r1 = LinearPatternToRegex(l1);
  Regex r2 = LinearPatternToRegex(l2);
  if (weak) {
    r2 = Regex::Concat(std::move(r2), Regex::Star(Regex::Dot()));
  }
  const Nfa a = Nfa::FromRegex(r1);
  const Nfa b = Nfa::FromRegex(r2);
  std::optional<ClassWord> word = IntersectionWitness(a, b);
  MatchResult result;
  result.matches = word.has_value();
  if (word.has_value()) result.witness_word = std::move(*word);
  return result;
}

}  // namespace

Regex LinearPatternToRegex(const Pattern& linear) {
  XMLUP_CHECK_STREAM(linear.IsLinear()) << "pattern is not linear";
  Regex r = NodeSymbol(linear, linear.root());
  for (PatternNodeId n = linear.first_child(linear.root());
       n != kNullPatternNode; n = linear.first_child(n)) {
    if (linear.axis(n) == Axis::kDescendant) {
      r = Regex::Concat(std::move(r), Regex::Star(Regex::Dot()));
    }
    r = Regex::Concat(std::move(r), NodeSymbol(linear, n));
  }
  return r;
}

MatchResult MatchStrongly(const Pattern& l1, const Pattern& l2) {
  XMLUP_CHECK(l1.IsLinear());
  XMLUP_CHECK(l2.IsLinear());
  return MatchViaNfa(l1, l2, /*weak=*/false);
}

MatchResult MatchWeakly(const Pattern& l1, const Pattern& l2) {
  XMLUP_CHECK(l1.IsLinear());
  XMLUP_CHECK(l2.IsLinear());
  return MatchViaNfa(l1, l2, /*weak=*/true);
}

Tree WordToPathTree(const ClassWord& word,
                    const std::shared_ptr<SymbolTable>& symbols,
                    Label filler) {
  XMLUP_CHECK(!word.empty());
  std::vector<Label> labels;
  labels.reserve(word.size());
  for (const LabelClass& c : word) {
    labels.push_back(c.any ? filler : c.label);
  }
  return BuildPathTree(symbols, labels);
}

}  // namespace xmlup
