#include "core/delta.h"

#include "core/rule.h"
#include "core/version_table.h"

namespace verso {

namespace {

/// Selects the membership pattern of a body literal: version-terms and
/// ins-update-terms test membership; del/mod update-terms involve v* and
/// built-ins have no pattern at all. `wrap_insert` is set when the fact
/// lives one functor deeper than the literal's version-term (ins[V]).
bool LiteralPattern(const Literal& lit, const VidTerm** vterm,
                    const AppPattern** app, bool* wrap_insert) {
  *wrap_insert = false;
  switch (lit.kind) {
    case Literal::Kind::kVersion:
      *vterm = &lit.version.version;
      *app = &lit.version.app;
      return true;
    case Literal::Kind::kUpdate:
      // Body truth of ins[V].m->r is exactly membership in ins(V); del and
      // mod body literals involve v* and are not plain membership tests.
      if (lit.update.kind != UpdateKind::kInsert) return false;
      *vterm = &lit.update.version;
      *app = &lit.update.app;
      *wrap_insert = true;
      return true;
    case Literal::Kind::kBuiltin:
      return false;
  }
  return false;
}

/// The interned shape a fact must have to unify with the pattern.
VidShape PatternShape(const VidTerm& vterm, bool wrap_insert,
                      VersionTable& versions) {
  if (!wrap_insert) return versions.InternShape(vterm.ops);
  std::vector<UpdateKind> ops;
  ops.reserve(vterm.ops.size() + 1);
  ops.push_back(UpdateKind::kInsert);
  ops.insert(ops.end(), vterm.ops.begin(), vterm.ops.end());
  return versions.InternShape(ops);
}

/// Unifies `fact` against (vterm, app), filling `bindings` (reset first).
bool UnifyPattern(const Rule& rule, const VidTerm& vterm,
                  const AppPattern& app, bool wrap_insert,
                  const DeltaFact& fact, VersionTable& versions,
                  Bindings& bindings) {
  if (app.method != fact.method) return false;

  bindings.assign(rule.var_count(), Oid());
  // The fact's VID must have exactly the pattern's shape (variables range
  // over OIDs, never over versioned terms).
  if (versions.shape(fact.vid) != PatternShape(vterm, wrap_insert, versions)) {
    return false;
  }
  if (vterm.base.is_var) {
    bindings[vterm.base.var.value] = versions.root(fact.vid);
  } else if (vterm.base.oid != versions.root(fact.vid)) {
    return false;
  }

  if (app.args.size() != fact.app.args.size()) return false;
  auto bind = [&](const ObjTerm& term, Oid value) {
    if (!term.is_var) return term.oid == value;
    Oid& slot = bindings[term.var.value];
    if (slot.valid()) return slot == value;
    slot = value;
    return true;
  };
  for (size_t i = 0; i < app.args.size(); ++i) {
    if (!bind(app.args[i], fact.app.args[i])) return false;
  }
  return bind(app.result, fact.app.result);
}

}  // namespace

bool UnifyLiteralPattern(const Rule& rule, uint32_t literal_index,
                         const DeltaFact& fact, VersionTable& versions,
                         Bindings& bindings) {
  const Literal& lit = rule.body[literal_index];
  const VidTerm* vterm = nullptr;
  const AppPattern* app = nullptr;
  bool wrap_insert = false;
  if (!LiteralPattern(lit, &vterm, &app, &wrap_insert)) return false;
  return UnifyPattern(rule, *vterm, *app, wrap_insert, fact, versions,
                      bindings);
}

bool SeedKeyForLiteral(const Rule& rule, uint32_t literal_index,
                       VersionTable& versions, MethodId* method,
                       VidShape* shape) {
  const Literal& lit = rule.body[literal_index];
  const VidTerm* vterm = nullptr;
  const AppPattern* app = nullptr;
  bool wrap_insert = false;
  if (!LiteralPattern(lit, &vterm, &app, &wrap_insert)) return false;
  *method = app->method;
  *shape = PatternShape(*vterm, wrap_insert, versions);
  return true;
}

bool SeedBindingsFromHead(const Rule& rule, const DeltaFact& fact,
                          VersionTable& versions, Bindings& bindings) {
  // Derived-rule heads are carried as ins-updates whose version-term names
  // the fact's version directly (the query layer inserts at the resolved
  // head version, no ins(...) wrapper).
  return UnifyPattern(rule, rule.head.version, rule.head.app,
                      /*wrap_insert=*/false, fact, versions, bindings);
}

void DeltaIndex::Build(const DeltaLog& delta, const VersionTable& versions) {
  added_.clear();
  added_count_ = 0;
  for (const DeltaFact& fact : delta) {
    if (!fact.added) continue;
    added_[Key(fact.method, versions.shape(fact.vid))].push_back(&fact);
    ++added_count_;
  }
}

}  // namespace verso
