#include "dtd/dtd_conflict.h"

#include <set>
#include <utility>

namespace xmlup {
namespace {

/// The bounded search restricted to DTD-conforming trees; `must_embed` as
/// for the unrestricted searches.
BruteForceResult SearchConforming(
    const Pattern& read, const Pattern& update, const Tree* inserted,
    const Dtd& dtd, const BoundedSearchOptions& options,
    std::span<const Pattern* const> must_embed,
    const std::function<bool(Tree&&)>& is_witness) {
  std::set<Label> labels = dtd.MentionedLabels();
  labels.merge(LabelsOf({&read, &update}));
  std::set<Label> inputs = labels;
  if (inserted != nullptr) inputs.merge(LabelsOf({}, {inserted}));
  return SearchShapes(
      read.symbols(),
      SearchAlphabet(*read.symbols(), labels, inputs, options.extra_labels),
      options, must_embed, [&](Tree&& candidate) {
        return dtd.Conforms(candidate) && is_witness(std::move(candidate));
      });
}

}  // namespace

BruteForceResult FindReadInsertConflictUnderDtd(
    const Pattern& read, const Pattern& insert_pattern, const Tree& inserted,
    const Dtd& dtd, ConflictSemantics semantics,
    const BoundedSearchOptions& options) {
  const Pattern* must_embed[] = {&insert_pattern};
  return SearchConforming(read, insert_pattern, &inserted, dtd, options,
                          must_embed, [&](Tree&& candidate) {
                            return IsReadInsertWitness(
                                read, insert_pattern, inserted,
                                std::move(candidate), semantics);
                          });
}

BruteForceResult FindReadDeleteConflictUnderDtd(
    const Pattern& read, const Pattern& delete_pattern, const Dtd& dtd,
    ConflictSemantics semantics, const BoundedSearchOptions& options) {
  const Pattern* must_embed[] = {&delete_pattern, &read};
  return SearchConforming(read, delete_pattern, nullptr, dtd, options,
                          must_embed, [&](Tree&& candidate) {
                            return IsReadDeleteWitness(read, delete_pattern,
                                                       std::move(candidate),
                                                       semantics);
                          });
}

}  // namespace xmlup
