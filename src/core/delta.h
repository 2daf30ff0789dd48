#ifndef VERSO_CORE_DELTA_H_
#define VERSO_CORE_DELTA_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/expr.h"
#include "core/ids.h"
#include "core/term.h"
#include "core/version_table.h"

namespace verso {

struct Rule;

/// One element of a semi-naive delta: a fact-level change to the object
/// base observed while installing one round of T_P (or one round of the
/// query layer's derived-method fixpoint). `added` distinguishes
/// insertions from erasures; both matter for deciding which rules a delta
/// can affect, but only added facts can seed new body matches of positive
/// literals.
struct DeltaFact {
  Vid vid;
  MethodId method;
  GroundApp app;
  bool added = true;
};

/// The fact-level changes of one fixpoint round, in application order.
using DeltaLog = std::vector<DeltaFact>;

/// Computes the (method, shape) a delta fact must carry to unify with the
/// membership pattern of body literal `literal_index` — a version-term or
/// an ins-update-term. The literal's negation flag is ignored: positive
/// literals are seeded by added facts, while the view maintainer also
/// seeds *negated* version-literals (a removal can create matches through
/// negation, an insertion can destroy them). Returns false for built-ins
/// and del/mod update literals, which have no membership pattern; the
/// shape is interned into `versions`.
bool SeedKeyForLiteral(const Rule& rule, uint32_t literal_index,
                       VersionTable& versions, MethodId* method,
                       VidShape* shape);

/// Unifies an added delta fact with the membership pattern of body literal
/// `literal_index` — a version-term or an ins-update-term — producing the
/// seed `bindings` for a body match that skips that literal. The
/// literal's negation flag is ignored: the fixpoint kernel seeds only
/// positive literals (Rule::seed_literals), while the views subsystem also
/// seeds maintenance through negated ones. Returns false when the literal
/// has no membership pattern or the fact's method, VID shape, or constants
/// do not match it. On success every variable the literal would bind is
/// bound in `bindings` (all other slots invalid).
bool UnifyLiteralPattern(const Rule& rule, uint32_t literal_index,
                         const DeltaFact& fact, VersionTable& versions,
                         Bindings& bindings);

/// Unifies a ground fact with the rule's *head* (version-term and
/// application pattern), producing initial bindings for a goal-directed
/// body match (ForEachBodyMatchFrom with no literal skipped). This is the
/// rederivation probe of DRed view maintenance: "does `fact` still have a
/// derivation through this rule?". Returns false when the fact cannot be
/// this rule's head instance.
bool SeedBindingsFromHead(const Rule& rule, const DeltaFact& fact,
                          VersionTable& versions, Bindings& bindings);

/// Index of one round's delta by (method, VID shape): the fixpoint kernel
/// probes only the added facts that can possibly unify with a given seed
/// literal, skipping the quadratic (seed literal, delta fact) sweep
/// entirely for non-matching pairs. Holds pointers into the indexed
/// DeltaLog, which must outlive the index.
class DeltaIndex {
 public:
  /// Rebuilds the index over the added facts of `delta`.
  void Build(const DeltaLog& delta, const VersionTable& versions);

  /// Added facts carrying exactly (method, shape), or nullptr.
  const std::vector<const DeltaFact*>* Added(MethodId method,
                                             VidShape shape) const {
    auto it = added_.find(Key(method, shape));
    return it == added_.end() ? nullptr : &it->second;
  }

  /// Number of added facts indexed.
  size_t added_count() const { return added_count_; }

 private:
  static uint64_t Key(MethodId method, VidShape shape) {
    return (static_cast<uint64_t>(method.value) << 32) | shape.value;
  }

  std::unordered_map<uint64_t, std::vector<const DeltaFact*>> added_;
  size_t added_count_ = 0;
};

}  // namespace verso

#endif  // VERSO_CORE_DELTA_H_
