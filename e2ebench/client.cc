#include "bench.h"

namespace e2e {

Result<ResultSet> Client::Execute(Session& session, std::string_view text) {
  if (spans_ != nullptr) {
    size_t span = spans_->Begin("prepare");
    uint64_t start = NowNs();
    Result<Statement> stmt = session.Prepare(text);
    if (totals_ != nullptr) {
      ++totals_->prepares;
      totals_->prepare_ns += NowNs() - start;
    }
    spans_->End(span);
    if (!stmt.ok()) return stmt.status();
    return Execute(*stmt);
  }
  Result<ResultSet> rs = session.Execute(text);
  if (rs.ok()) Record(*rs);
  return rs;
}

Result<ResultSet> Client::Execute(Statement& statement) {
  size_t span = spans_ != nullptr ? spans_->Begin("execute") : 0;
  Result<ResultSet> rs = statement.Execute();
  if (spans_ != nullptr) spans_->End(span);
  if (rs.ok()) Record(*rs);
  return rs;
}

void Client::Refresh(Session& session) {
  size_t span = spans_ != nullptr ? spans_->Begin("refresh") : 0;
  session.Refresh();
  if (spans_ != nullptr) spans_->End(span);
}

void Client::Record(const ResultSet& rs) {
  if (totals_ == nullptr) return;
  if (const verso::EvalStats* stats = rs.eval_stats()) {
    ++totals_->write_results;
    totals_->rounds += stats->total_rounds();
    totals_->body_matches += stats->total_body_matches();
    totals_->t1_updates += stats->total_t1_updates();
    totals_->versions_materialized += stats->versions_materialized;
  }
  if (const verso::QueryStats* stats = rs.query_stats()) {
    ++totals_->queries;
    totals_->query_rounds += stats->rounds;
    totals_->query_derived_facts += stats->derived_facts;
  }
}

std::string FactKey(const verso::DeltaFact& fact) {
  std::string key = std::to_string(fact.vid.value) + "." +
                    std::to_string(fact.method.value);
  for (verso::Oid arg : fact.app.args) {
    key += "@" + std::to_string(arg.value);
  }
  key += ">" + std::to_string(fact.app.result.value);
  return key;
}

std::set<std::string> RowKeys(const ResultSet& rs) {
  std::set<std::string> keys;
  for (const verso::DeltaFact& fact : rs.rows()) keys.insert(FactKey(fact));
  return keys;
}

std::multiset<std::string> RowTexts(ResultSet& rs) {
  std::multiset<std::string> texts;
  rs.Rewind();
  while (rs.Next()) texts.insert(rs.RowToString());
  rs.Rewind();
  return texts;
}

void Replica::Apply(const verso::ViewDelta& delta, bool keep_facts) {
  ++deliveries_;
  digest_.AddU64(delta.epoch);
  for (const verso::DeltaFact& fact : delta.facts) {
    digest_.AddU64((uint64_t{fact.vid.value} << 32) | fact.method.value);
    for (verso::Oid arg : fact.app.args) digest_.AddU64(arg.value);
    digest_.AddU64((uint64_t{fact.app.result.value} << 1) | fact.added);
    if (!keep_facts || fact.method != derived_) continue;
    std::string key = FactKey(fact);
    if (fact.added) {
      facts_.insert(std::move(key));
    } else {
      facts_.erase(key);
    }
  }
}

}  // namespace e2e
