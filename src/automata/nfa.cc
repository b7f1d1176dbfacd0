#include "automata/nfa.h"

#include <algorithm>

#include "common/check.h"

namespace xmlup {
namespace {

/// Recursive Thompson construction. Returns (entry, exit) states for the
/// given subexpression, allocating states/transitions into the output
/// vectors.
struct Builder {
  size_t num_states = 0;
  std::vector<Nfa::Transition> transitions;
  std::vector<Nfa::EpsilonTransition> epsilons;

  StateId NewState() { return static_cast<StateId>(num_states++); }

  std::pair<StateId, StateId> Build(const Regex& r) {
    switch (r.kind()) {
      case Regex::Kind::kEpsilon: {
        const StateId in = NewState();
        const StateId out = NewState();
        epsilons.push_back({in, out});
        return {in, out};
      }
      case Regex::Kind::kSymbol: {
        const StateId in = NewState();
        const StateId out = NewState();
        transitions.push_back({in, LabelClass::Of(r.label()), out});
        return {in, out};
      }
      case Regex::Kind::kDot: {
        const StateId in = NewState();
        const StateId out = NewState();
        transitions.push_back({in, LabelClass::Any(), out});
        return {in, out};
      }
      case Regex::Kind::kConcat: {
        auto [lin, lout] = Build(r.left());
        auto [rin, rout] = Build(r.right());
        epsilons.push_back({lout, rin});
        return {lin, rout};
      }
      case Regex::Kind::kStar: {
        auto [iin, iout] = Build(r.inner());
        const StateId in = NewState();
        const StateId out = NewState();
        epsilons.push_back({in, iin});
        epsilons.push_back({iout, out});
        epsilons.push_back({in, out});
        epsilons.push_back({iout, iin});
        return {in, out};
      }
    }
    XMLUP_CHECK(false);
    return {0, 0};
  }
};

}  // namespace

Nfa Nfa::FromRegex(const Regex& regex) {
  Builder builder;
  auto [start, accept] = builder.Build(regex);
  Nfa nfa;
  nfa.num_states_ = builder.num_states;
  nfa.start_ = start;
  nfa.accept_ = accept;
  nfa.transitions_ = std::move(builder.transitions);
  nfa.epsilon_transitions_ = std::move(builder.epsilons);
  nfa.BuildIndex();
  return nfa;
}

Nfa::Csr Nfa::Csr::Group(
    size_t num_rows,
    const std::vector<std::pair<uint32_t, uint32_t>>& entries) {
  Csr csr;
  csr.offsets.assign(num_rows + 1, 0);
  for (const auto& [row, value] : entries) ++csr.offsets[row + 1];
  for (size_t s = 0; s < num_rows; ++s) csr.offsets[s + 1] += csr.offsets[s];
  csr.data.resize(entries.size());
  std::vector<uint32_t> next(csr.offsets.begin(), csr.offsets.end() - 1);
  for (const auto& [row, value] : entries) csr.data[next[row]++] = value;
  return csr;
}

void Nfa::BuildIndex() {
  std::vector<std::pair<uint32_t, uint32_t>> entries;
  for (uint32_t i = 0; i < transitions_.size(); ++i) {
    entries.emplace_back(transitions_[i].from, i);
  }
  by_state_ = Csr::Group(num_states_, entries);
  entries.clear();
  for (const EpsilonTransition& e : epsilon_transitions_) {
    entries.emplace_back(e.from, e.to);
  }
  epsilon_by_state_ = Csr::Group(num_states_, entries);
  entries.clear();
  for (StateId s = 0; s < num_states_; ++s) {
    for (StateId t : EpsilonClosure({s})) entries.emplace_back(s, t);
  }
  closure_by_state_ = Csr::Group(num_states_, entries);
}

std::vector<StateId> Nfa::EpsilonClosure(std::vector<StateId> states) const {
  std::vector<bool> seen(num_states_, false);
  std::vector<StateId> stack = states;
  for (StateId s : states) seen[s] = true;
  while (!stack.empty()) {
    const StateId s = stack.back();
    stack.pop_back();
    for (StateId t : EpsilonFrom(s)) {
      if (!seen[t]) {
        seen[t] = true;
        states.push_back(t);
        stack.push_back(t);
      }
    }
  }
  std::sort(states.begin(), states.end());
  return states;
}

}  // namespace xmlup
