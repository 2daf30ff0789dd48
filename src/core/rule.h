#ifndef VERSO_CORE_RULE_H_
#define VERSO_CORE_RULE_H_

#include <string>
#include <vector>

#include "core/atom.h"
#include "core/symbol_table.h"
#include "util/status.h"

namespace verso {

/// An update-rule `H <- B1 ^ ... ^ Bk` (k >= 0; k == 0 is an update-fact).
/// Variables are rule-local, quantified over the set O of OIDs.
struct Rule {
  UpdateAtom head;
  std::vector<Literal> body;
  ExprPool exprs;                      // expression nodes for built-ins
  std::vector<std::string> var_names;  // VarId -> surface name
  std::string label;                   // e.g. "rule1"; used in diagnostics
  int source_line = 0;                 // 0 when constructed programmatically

  /// Filled in by AnalyzeRule: the order in which body literals are
  /// matched (safety analysis doubles as a greedy join-order planner).
  std::vector<uint32_t> execution_order;

  // ---- Semi-naive evaluation plan (also filled in by AnalyzeRule) ----
  //
  // Within one stratum the fixpoint kernel (core/fixpoint.h) re-derives
  // rule matches round by round; the plan below tells it which rules can
  // be driven from the per-round fact delta instead of a full body
  // re-match. AnalyzeQueryProgram narrows it for derived-method rules.

  /// Body literal indices that are plain membership tests (positive
  /// version-terms and positive ins-update-terms): an added delta fact
  /// matching one of them seeds a body match around it.
  std::vector<uint32_t> seed_literals;

  /// True iff delta-seeding through `seed_literals` finds every match the
  /// rule can newly produce in a round: the head is a plain insert (head
  /// truth never depends on the evolving base) and every body literal is
  /// either a seed literal or a built-in. Rules where this is false are
  /// re-matched in full ("residual" rules) whenever the round's delta
  /// touches one of `relevant_methods`.
  bool fully_seedable = false;

  /// True for `del[V].*` heads, which expand over every method of v* and
  /// therefore react to any fact change at all.
  bool rerun_on_any_delta = false;

  /// Sorted, deduplicated methods whose fact changes can affect this
  /// rule's matches or head truth. Includes `exists` when the rule reads
  /// v* (del/mod literals or a del/mod head), since materializations move
  /// the latest existing stage.
  std::vector<MethodId> relevant_methods;

  uint32_t var_count() const {
    return static_cast<uint32_t>(var_names.size());
  }

  /// A short name for diagnostics: the label if set, else "rule@line".
  std::string DisplayName() const;
};

/// Checks the paper's well-formedness requirements for one rule and plans
/// its body execution order:
///   * safety: every variable is bound by some positive version-/update-
///     term (or by `X = expr` over bound variables) before it is used in a
///     negated literal, comparison, or the head;
///   * the system method `exists` does not occur in the head;
///   * `del[V].*` heads carry kind kDelete; `mod` heads have a new-result.
/// On success rule.execution_order is a complete permutation of the body.
Status AnalyzeRule(Rule& rule, const SymbolTable& symbols);

}  // namespace verso

#endif  // VERSO_CORE_RULE_H_
