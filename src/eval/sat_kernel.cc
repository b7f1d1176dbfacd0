#include "eval/sat_kernel.h"

namespace xmlup {

SatKernel::SatKernel(std::span<const Pattern* const> patterns) {
  size_t bits = 0;
  for (const Pattern* p : patterns) {
    XMLUP_CHECK(p->has_root());
    bits += p->size();
  }
  words_ = std::max<size_t>(1, (bits + 63) / 64);
  kids_row_ = 1 + bits;  // room for a label row per bit
  data_.reserve(bits + (kids_row_ + 2 * bits + 2) * words_);
  for (const Pattern* p : patterns) {
    for (PatternNodeId q = 0; q < p->size(); ++q) {
      if (!p->is_wildcard(q) &&
          std::find(data_.begin(), data_.end(), p->label(q)) == data_.end()) {
        data_.push_back(p->label(q));
      }
    }
  }
  num_labels_ = data_.size();
  kids_row_ = 1 + num_labels_;
  internal_row_ = kids_row_ + 2 * bits;
  roots_row_ = internal_row_ + 1;
  data_.resize(num_labels_ + (roots_row_ + 1) * words_);
  auto set = [this](size_t r, size_t b) {
    mutable_row(r)[b / 64] |= uint64_t{1} << (b % 64);
  };
  size_t offset = 0;  // the bit of the current pattern's root
  for (const Pattern* p : patterns) {
    set(roots_row_, offset);
    // Node ids are dense and the root is 0 (Pattern's construction API).
    for (PatternNodeId q = 0; q < p->size(); ++q) {
      const size_t b = offset + q;
      for (size_t r = 0; r <= num_labels_; ++r) {
        if (p->is_wildcard(q) || (r > 0 && data_[r - 1] == p->label(q))) {
          set(r, b);
        }
      }
      if (q == p->root()) continue;
      const size_t parent = offset + p->parent(q);
      set(kids_row_ + 2 * parent + (p->axis(q) == Axis::kChild ? 0 : 1), b);
      set(internal_row_, parent);
    }
    offset += p->size();
  }
}

}  // namespace xmlup
