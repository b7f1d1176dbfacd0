#ifndef XMLUP_AUTOMATA_NFA_H_
#define XMLUP_AUTOMATA_NFA_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "automata/regex.h"

namespace xmlup {

using StateId = uint32_t;

/// A nondeterministic finite automaton with symbolic transition classes
/// (concrete label or any-label) and epsilon moves. Built by the Thompson
/// construction from the Regex IR; single start state, single accept state.
class Nfa {
 public:
  struct Transition {
    StateId from;
    LabelClass on;
    StateId to;
  };
  struct EpsilonTransition {
    StateId from;
    StateId to;
  };

  /// Thompson construction.
  static Nfa FromRegex(const Regex& regex);

  size_t num_states() const { return num_states_; }
  StateId start() const { return start_; }
  StateId accept() const { return accept_; }

  const std::vector<Transition>& transitions() const { return transitions_; }
  const std::vector<EpsilonTransition>& epsilon_transitions() const {
    return epsilon_transitions_;
  }

  /// Symbol transitions leaving `s` (indices into transitions()).
  std::span<const uint32_t> TransitionsFrom(StateId s) const {
    return by_state_.Row(s);
  }
  /// Epsilon targets from `s`.
  std::span<const StateId> EpsilonFrom(StateId s) const {
    return epsilon_by_state_.Row(s);
  }

  /// Epsilon closure of a state set (sorted, deduplicated).
  std::vector<StateId> EpsilonClosure(std::vector<StateId> states) const;

  /// Precomputed epsilon closure of the single state `s` (sorted,
  /// deduplicated, includes `s`). Same contents as EpsilonClosure({s}),
  /// built once at construction — the product search calls this per
  /// enqueued pair, so it must not allocate.
  std::span<const StateId> ClosureFrom(StateId s) const {
    return closure_by_state_.Row(s);
  }

 private:
  /// Compressed-sparse-row adjacency: row s is
  /// data[offsets[s], offsets[s + 1]): two flat arrays per index instead
  /// of one heap block per state.
  struct Csr {
    std::vector<uint32_t> offsets;
    std::vector<uint32_t> data;

    /// Rows 0..num_rows-1 from (row, value) entries; each row keeps its
    /// values in entry order.
    static Csr Group(size_t num_rows,
                     const std::vector<std::pair<uint32_t, uint32_t>>& entries);

    std::span<const uint32_t> Row(uint32_t s) const {
      return std::span<const uint32_t>(data).subspan(
          offsets[s], offsets[s + 1] - offsets[s]);
    }
  };

  Nfa() = default;

  void BuildIndex();

  size_t num_states_ = 0;
  StateId start_ = 0;
  StateId accept_ = 0;
  std::vector<Transition> transitions_;
  std::vector<EpsilonTransition> epsilon_transitions_;
  Csr by_state_;
  Csr epsilon_by_state_;
  Csr closure_by_state_;
};

}  // namespace xmlup

#endif  // XMLUP_AUTOMATA_NFA_H_
