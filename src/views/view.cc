#include "views/view.h"

#include <algorithm>

#include "core/match.h"

namespace verso {

namespace {

constexpr uint32_t kMaxRounds = 1u << 20;

/// True iff body literal `li` (a version-literal of the fact's method),
/// instantiated under a complete `bindings`, denotes exactly `fact`.
/// The dedup test of counting maintenance: a derivation touching the
/// changed fact at several occurrences is counted at its lowest one.
bool LiteralGroundsToFact(const Rule& rule, uint32_t li,
                          const Bindings& bindings, const DeltaFact& fact,
                          VersionTable& versions) {
  const Literal& lit = rule.body[li];
  Vid vid = ResolveVid(lit.version.version, bindings, versions);
  if (vid != fact.vid) return false;
  const AppPattern& app = lit.version.app;
  if (app.args.size() != fact.app.args.size()) return false;
  auto value = [&](const ObjTerm& term) {
    return term.is_var ? bindings[term.var.value] : term.oid;
  };
  for (size_t i = 0; i < app.args.size(); ++i) {
    if (value(app.args[i]) != fact.app.args[i]) return false;
  }
  return value(app.result) == fact.app.result;
}

DeltaFact ToDeltaFact(const ViewFactKey& key, bool added) {
  return DeltaFact{key.vid, key.method, key.app, added};
}

}  // namespace

Result<std::unique_ptr<MaterializedView>> MaterializedView::Create(
    std::string name, QueryProgram program, const ObjectBase& base,
    SymbolTable& symbols, VersionTable& versions, TraceSink* trace,
    const AnalysisOptions& analysis) {
  for (MethodId m : program.derived_methods) {
    if (base.VidsWithMethod(m) != nullptr) {
      return Status::InvalidArgument(
          "view '" + name + "': derived method '" +
          std::string(symbols.MethodName(m)) +
          "' already has stored facts in the object base");
    }
  }
  // Analyze-on-CREATE: blocking diagnostics refuse the registration
  // before the (expensive) initial materialization starts.
  std::shared_ptr<const AnalysisReport> report;
  if (analysis.enabled) {
    report = std::make_shared<AnalysisReport>(
        AnalyzeDerivedProgram(program, symbols, ContextFromBase(base)));
    VERSO_RETURN_IF_ERROR(report->FirstBlocking(analysis));
  }
  std::unique_ptr<MaterializedView> view(new MaterializedView(
      std::move(name), std::move(program), base, symbols, versions, trace));
  view->analysis_ = std::move(report);
  VERSO_ASSIGN_OR_RETURN(
      view->stratification_,
      AnalyzeQueryProgram(view->program_, symbols));
  for (MethodId m : view->program_.derived_methods) {
    view->derived_methods_.insert(m.value);
  }
  VERSO_RETURN_IF_ERROR(view->Materialize());
  return view;
}

Status MaterializedView::Materialize() {
  ++stats_.full_evaluations;
  MatchContext ctx{symbols_, versions_, working_, &istats_};
  for (uint32_t s = 0; s < stratification_.strata.size(); ++s) {
    const QueryStratum& stratum = stratification_.strata[s];
    if (stratum.recursive) {
      // Recursive stratum: set-semantics semi-naive fixpoint (DRed strata
      // carry no counts).
      QueryStats qstats;
      FactInsertSink sink(versions_, working_, qstats);
      VERSO_RETURN_IF_ERROR(RunFixpoint(program_.rules, stratum.rules, ctx, s,
                                        kMaxRounds, /*semi_naive=*/true,
                                        sink));
      stats_.seed_probes += qstats.delta_joins;
      continue;
    }
    // Counting stratum: one full pass; every satisfying body binding is
    // one derivation of its head fact. Heads are buffered: the matcher
    // holds pointers into the base's fact vectors.
    std::vector<ViewFactKey> pending;
    DeriveStats derive;
    VERSO_RETURN_IF_ERROR(Derive(
        program_.rules, stratum.rules, ctx, /*frontier=*/nullptr, derive,
        [&](const Rule& rule, const Bindings& bindings) -> Status {
          VERSO_ASSIGN_OR_RETURN(DeltaFact head,
                                 ResolveHeadFact(rule, bindings, versions_));
          pending.push_back({head.vid, head.method, std::move(head.app)});
          return Status::Ok();
        }));
    for (ViewFactKey& head : pending) {
      if (++support_[head] == 1) {
        working_.Insert(head.vid, head.method, head.app);
      }
      ++stats_.support_increments;
    }
  }
  FoldIndexStats();
  return Status::Ok();
}

std::unordered_set<uint32_t> MaterializedView::ReadMethods(
    const QueryStratum& stratum) const {
  std::unordered_set<uint32_t> methods;
  for (uint32_t r : stratum.rules) {
    for (const Literal& lit : program_.rules[r].body) {
      if (lit.kind != Literal::Kind::kVersion) continue;
      methods.insert(lit.version.app.method.value);
    }
  }
  return methods;
}

Status MaterializedView::ProbeTrigger(const QueryStratum& stratum,
                                      const Trigger& trigger,
                                      std::vector<ViewFactKey>& heads) {
  MatchContext ctx{symbols_, versions_, working_, &istats_};
  Bindings seed;
  for (uint32_t r : stratum.rules) {
    const Rule& rule = program_.rules[r];
    for (uint32_t li = 0; li < rule.body.size(); ++li) {
      const Literal& lit = rule.body[li];
      if (lit.kind != Literal::Kind::kVersion) continue;
      if (lit.negated != trigger.through_negation) continue;
      if (lit.version.app.method != trigger.fact.method) continue;
      if (!UnifyLiteralPattern(rule, li, trigger.fact, versions_, seed)) {
        continue;
      }
      ++stats_.seed_probes;
      VERSO_RETURN_IF_ERROR(ForEachBodyMatchFrom(
          rule, ctx, seed, static_cast<int>(li),
          [&](const Bindings& bindings) -> Status {
            // Count each derivation at its lowest matching occurrence.
            for (uint32_t j = 0; j < li; ++j) {
              const Literal& lj = rule.body[j];
              if (lj.kind != Literal::Kind::kVersion) continue;
              if (lj.negated != trigger.through_negation) continue;
              if (lj.version.app.method != trigger.fact.method) continue;
              if (LiteralGroundsToFact(rule, j, bindings, trigger.fact,
                                       versions_)) {
                return Status::Ok();
              }
            }
            VERSO_ASSIGN_OR_RETURN(
                DeltaFact head, ResolveHeadFact(rule, bindings, versions_));
            heads.push_back({head.vid, head.method, std::move(head.app)});
            return Status::Ok();
          }));
    }
  }
  return Status::Ok();
}

Result<bool> MaterializedView::HasDerivation(const QueryStratum& stratum,
                                             const ViewFactKey& fact) {
  MatchContext ctx{symbols_, versions_, working_, &istats_};
  DeltaFact probe = ToDeltaFact(fact, /*added=*/true);
  Bindings seed;
  for (uint32_t r : stratum.rules) {
    const Rule& rule = program_.rules[r];
    if (rule.head.app.method != fact.method) continue;
    if (!SeedBindingsFromHead(rule, probe, versions_, seed)) continue;
    ++stats_.rederive_probes;
    bool found = false;
    Status status = ForEachBodyMatchFrom(
        rule, ctx, seed, /*skip_literal=*/-1,
        [&](const Bindings&) -> Status {
          found = true;
          // Abort enumeration: one derivation is enough.
          return Status::NotFound("derivation found");
        });
    if (found) return true;
    VERSO_RETURN_IF_ERROR(status);
  }
  return false;
}

Status MaterializedView::MaintainCounting(const QueryStratum& stratum,
                                          const DeltaLog& input,
                                          DeltaLog& out) {
  std::unordered_set<uint32_t> read = ReadMethods(stratum);
  std::vector<const DeltaFact*> facts;
  for (const DeltaFact& fact : input) {
    if (read.count(fact.method.value)) facts.push_back(&fact);
  }
  if (facts.empty()) return Status::Ok();

  // Facts whose support changed, in first-touch order. Counts may dip
  // negative transiently (the reverse sweep can meet a lost derivation
  // before the gained one that funds it); membership is reconciled once
  // the sweep ends, which is safe because a stratum's rules never read the
  // methods the stratum defines.
  std::unordered_set<ViewFactKey, ViewFactKeyHash> touched;
  std::vector<ViewFactKey> touched_order;
  std::vector<ViewFactKey> heads;

  auto apply = [&](int64_t sign) {
    for (ViewFactKey& head : heads) {
      support_[head] += sign;
      if (sign > 0) {
        ++stats_.support_increments;
      } else {
        ++stats_.support_decrements;
      }
      if (touched.insert(head).second) touched_order.push_back(head);
    }
    heads.clear();
  };

  // The commit applied its facts in stream order; replaying the stream in
  // REVERSE against the already-updated base visits, fact by fact, exactly
  // the intermediate states the forward one-at-a-time counting algorithm
  // sees — without ever materializing the old base. At each fact's turn:
  // derivations gained are probed with the fact in its new state,
  // derivations lost with it restored to its old state.
  for (auto it = facts.rbegin(); it != facts.rend(); ++it) {
    const DeltaFact& fact = **it;
    if (fact.added) {
      VERSO_RETURN_IF_ERROR(
          ProbeTrigger(stratum, {fact, /*through_negation=*/false}, heads));
      apply(+1);
      working_.Erase(fact.vid, fact.method, fact.app);
      VERSO_RETURN_IF_ERROR(
          ProbeTrigger(stratum, {fact, /*through_negation=*/true}, heads));
      apply(-1);
    } else {
      VERSO_RETURN_IF_ERROR(
          ProbeTrigger(stratum, {fact, /*through_negation=*/true}, heads));
      apply(+1);
      working_.Insert(fact.vid, fact.method, fact.app);
      VERSO_RETURN_IF_ERROR(
          ProbeTrigger(stratum, {fact, /*through_negation=*/false}, heads));
      apply(-1);
    }
  }
  // The sweep unwound the stream; re-apply it to restore the new state.
  for (const DeltaFact* fact : facts) {
    if (fact->added) {
      working_.Insert(fact->vid, fact->method, fact->app);
    } else {
      working_.Erase(fact->vid, fact->method, fact->app);
    }
  }

  // Reconcile membership: a view fact holds iff its support is positive.
  for (const ViewFactKey& key : touched_order) {
    auto it = support_.find(key);
    int64_t count = it == support_.end() ? 0 : it->second;
    if (count < 0) {
      return Status::Internal("view '" + name_ +
                              "': support count underflow");
    }
    bool member = InWorking(key);
    if (count > 0 && !member) {
      working_.Insert(key.vid, key.method, key.app);
      out.push_back(ToDeltaFact(key, /*added=*/true));
      ++stats_.facts_added;
    } else if (count == 0 && member) {
      working_.Erase(key.vid, key.method, key.app);
      out.push_back(ToDeltaFact(key, /*added=*/false));
      ++stats_.facts_removed;
    }
    if (count == 0 && it != support_.end()) support_.erase(it);
  }
  return Status::Ok();
}

Status MaterializedView::MaintainDRed(const QueryStratum& stratum,
                                      const DeltaLog& input, DeltaLog& out) {
  std::unordered_set<uint32_t> read = ReadMethods(stratum);
  std::vector<const DeltaFact*> facts;
  for (const DeltaFact& fact : input) {
    if (read.count(fact.method.value)) facts.push_back(&fact);
  }
  if (facts.empty()) return Status::Ok();

  // ---- Phase A: overdelete, evaluated against the old base state. ----
  // Restore the old state of this stratum's inputs (the commit and lower
  // strata already installed the new one).
  for (const DeltaFact* fact : facts) {
    if (fact->added) {
      working_.Erase(fact->vid, fact->method, fact->app);
    } else {
      working_.Insert(fact->vid, fact->method, fact->app);
    }
  }

  std::vector<Trigger> queue;
  for (const DeltaFact* fact : facts) {
    // A removal kills matches through positive occurrences; an addition
    // kills matches through negated occurrences (which held while the
    // fact was absent).
    queue.push_back({*fact, /*through_negation=*/fact->added});
  }

  // Textbook DRed overdeletion: one body literal ranges over the delta
  // (the trigger), every other literal over the FULL old database — so
  // nothing is erased until the cascade completes, or derivations that
  // join two simultaneously-overdeleted facts (nonlinear recursion) would
  // be missed. The `overdeleted` set alone dedups the cascade.
  std::unordered_set<ViewFactKey, ViewFactKeyHash> overdeleted;
  std::vector<ViewFactKey> overdeleted_order;
  std::vector<ViewFactKey> heads;
  for (size_t qi = 0; qi < queue.size(); ++qi) {
    Trigger trigger = queue[qi];
    heads.clear();
    VERSO_RETURN_IF_ERROR(ProbeTrigger(stratum, trigger, heads));
    for (ViewFactKey& head : heads) {
      if (!InWorking(head) || overdeleted.count(head)) continue;
      overdeleted.insert(head);
      overdeleted_order.push_back(head);
      ++stats_.overdeleted;
      queue.push_back(
          {ToDeltaFact(head, /*added=*/false), /*through_negation=*/false});
    }
  }

  // Install the overdeletion and the new state of the inputs.
  for (const ViewFactKey& fact : overdeleted_order) {
    working_.Erase(fact.vid, fact.method, fact.app);
  }
  for (const DeltaFact* fact : facts) {
    if (fact->added) {
      working_.Insert(fact->vid, fact->method, fact->app);
    } else {
      working_.Erase(fact->vid, fact->method, fact->app);
    }
  }

  // ---- Phase B: rederive — goal-directed alternative-proof probes. ----
  // Probes run FROZEN: every overdeleted fact is probed against the
  // post-overdeletion state, and the survivors install together at the
  // end. Within a recursive stratum all same-stratum body occurrences are
  // positive (stratified negation), so a fact whose only surviving proofs
  // pass through other rederived facts is recovered by Phase C's
  // insertion propagation — the final state and the emitted delta are the
  // ones eager per-fact reinsertion would produce.
  std::vector<Trigger> insert_queue;
  for (const DeltaFact* fact : facts) {
    // An addition creates matches through positive occurrences; a removal
    // creates matches through negated occurrences.
    insert_queue.push_back({*fact, /*through_negation=*/!fact->added});
  }
  std::vector<const ViewFactKey*> survivors;
  for (const ViewFactKey& fact : overdeleted_order) {
    VERSO_ASSIGN_OR_RETURN(bool derivable, HasDerivation(stratum, fact));
    if (derivable) survivors.push_back(&fact);
  }
  for (const ViewFactKey* survivor : survivors) {
    const ViewFactKey& fact = *survivor;
    working_.Insert(fact.vid, fact.method, fact.app);
    ++stats_.rederived;
    insert_queue.push_back(
        {ToDeltaFact(fact, /*added=*/true), /*through_negation=*/false});
  }

  // ---- Phase C: semi-naive insertion propagation (new state). --------
  std::vector<ViewFactKey> inserted_order;
  std::unordered_set<ViewFactKey, ViewFactKeyHash> inserted;
  for (size_t qi = 0; qi < insert_queue.size(); ++qi) {
    Trigger trigger = insert_queue[qi];
    heads.clear();
    VERSO_RETURN_IF_ERROR(ProbeTrigger(stratum, trigger, heads));
    for (ViewFactKey& head : heads) {
      if (InWorking(head)) continue;
      working_.Insert(head.vid, head.method, head.app);
      if (inserted.insert(head).second) inserted_order.push_back(head);
      insert_queue.push_back(
          {ToDeltaFact(head, /*added=*/true), /*through_negation=*/false});
    }
  }

  // ---- Emit this stratum's net delta. --------------------------------
  for (const ViewFactKey& fact : overdeleted_order) {
    if (!InWorking(fact)) {
      out.push_back(ToDeltaFact(fact, /*added=*/false));
      ++stats_.facts_removed;
    }
  }
  for (const ViewFactKey& fact : inserted_order) {
    // A reinserted overdeleted fact is a net no-op; only genuinely new
    // facts are reported upward.
    if (InWorking(fact) && !overdeleted.count(fact)) {
      out.push_back(ToDeltaFact(fact, /*added=*/true));
      ++stats_.facts_added;
    }
  }
  return Status::Ok();
}

std::vector<MethodId> MaterializedView::DerivedMethods() const {
  std::vector<MethodId> methods = program_.derived_methods;
  std::sort(methods.begin(), methods.end());
  return methods;
}

void MaterializedView::FoldIndexStats() {
  stats_.index_probes += istats_.index_probes;
  stats_.index_hits += istats_.index_hits;
  stats_.indexed_scan_avoided_facts += istats_.indexed_scan_avoided_facts;
  istats_ = IndexStats();
}

Status MaterializedView::ApplyBaseDelta(const DeltaLog& delta,
                                        DeltaLog* view_delta) {
  if (!health_.ok()) return health_;
  Status status = MaintainAll(delta, view_delta);
  if (!status.ok()) health_ = status;
  return status;
}

Status MaterializedView::MaintainAll(const DeltaLog& delta,
                                     DeltaLog* view_delta) {
  ++stats_.maintenance_runs;
  stats_.delta_facts_seen += delta.size();
  uint64_t added_before = stats_.facts_added;
  uint64_t removed_before = stats_.facts_removed;
  uint64_t overdeleted_before = stats_.overdeleted;
  uint64_t rederived_before = stats_.rederived;

  for (const DeltaFact& fact : delta) {
    if (derived_methods_.count(fact.method.value)) {
      return Status::InvalidArgument(
          "view '" + name_ + "': committed transaction writes derived "
          "method '" + std::string(symbols_.MethodName(fact.method)) + "'");
    }
  }

  // Install the base transition; every stratum below reads it as new.
  for (const DeltaFact& fact : delta) {
    bool changed = fact.added
                       ? working_.Insert(fact.vid, fact.method, fact.app)
                       : working_.Erase(fact.vid, fact.method, fact.app);
    if (!changed) {
      return Status::Internal("view '" + name_ +
                              "': commit delta out of sync with view base");
    }
  }

  // Ripple bottom-up: each stratum consumes the commit delta plus every
  // lower stratum's emitted changes.
  DeltaLog stream = delta;
  for (const QueryStratum& stratum : stratification_.strata) {
    DeltaLog emitted;
    if (stratum.recursive) {
      VERSO_RETURN_IF_ERROR(MaintainDRed(stratum, stream, emitted));
    } else {
      VERSO_RETURN_IF_ERROR(MaintainCounting(stratum, stream, emitted));
    }
    stream.insert(stream.end(), emitted.begin(), emitted.end());
  }

  FoldIndexStats();
  if (trace_ != nullptr) {
    trace_->OnViewMaintenance(name_, delta.size(),
                              stats_.facts_added - added_before,
                              stats_.facts_removed - removed_before,
                              stats_.overdeleted - overdeleted_before,
                              stats_.rederived - rederived_before);
  }
  // `stream` now holds the commit's base transition plus every stratum's
  // emitted derived-fact changes — exactly the transition result() took.
  if (view_delta != nullptr) *view_delta = std::move(stream);
  return Status::Ok();
}

}  // namespace verso
