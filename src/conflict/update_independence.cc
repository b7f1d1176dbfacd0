#include "conflict/update_independence.h"

namespace xmlup {
namespace {

/// Treats `read_op`'s own pattern evaluation as a read and asks whether
/// the other update can ever change it (node semantics). Both ops are bound
/// to one store, so this runs on refs with no per-pair canonicalization.
/// Only the verdict is read, so no witness tree is built.
Result<ConflictReport> PatternVsUpdate(const UpdateOp& read_op,
                                       const UpdateOp& update,
                                       DetectorOptions options) {
  options.semantics = ConflictSemantics::kNode;
  options.build_witness = false;
  return Detect(*read_op.pattern_store(), read_op.pattern_ref(), update,
                options);
}

}  // namespace

Result<IndependenceReport> CertifyUpdatesCommute(
    const UpdateOp& o1, const UpdateOp& o2, const DetectorOptions& options) {
  if (o1.pattern_store() == nullptr ||
      o1.pattern_store() != o2.pattern_store()) {
    return Status::InvalidArgument(
        "CertifyUpdatesCommute: both ops must be bound to one PatternStore");
  }
  IndependenceReport report;

  // Soundness argument (see header): if neither update can change the
  // other's selected point set — on *any* tree — then in either order both
  // updates fire on identical points, points never sit inside subtrees the
  // other order deletes, and fresh inserted copies are never selected; the
  // two results are isomorphic.
  XMLUP_ASSIGN_OR_RETURN(ConflictReport o1_affects_o2,
                         PatternVsUpdate(o2, o1, options));
  if (o1_affects_o2.verdict != ConflictVerdict::kNoConflict) {
    report.certificate = CommutativityCertificate::kUnknown;
    report.detail =
        std::string("o1 may change o2's selection (") +
        std::string(ConflictVerdictName(o1_affects_o2.verdict)) + ")";
    return report;
  }
  XMLUP_ASSIGN_OR_RETURN(ConflictReport o2_affects_o1,
                         PatternVsUpdate(o1, o2, options));
  if (o2_affects_o1.verdict != ConflictVerdict::kNoConflict) {
    report.certificate = CommutativityCertificate::kUnknown;
    report.detail =
        std::string("o2 may change o1's selection (") +
        std::string(ConflictVerdictName(o2_affects_o1.verdict)) + ")";
    return report;
  }
  report.certificate = CommutativityCertificate::kCertified;
  report.detail = "selection sets provably stable in both directions";
  return report;
}

}  // namespace xmlup
