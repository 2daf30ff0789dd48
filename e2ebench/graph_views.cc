// graph_views: single-edge inserts and deletes, and reachability reads,
// on an in-memory random directed graph with a recursive transitive-
// closure view (maintained by DRed, delete-and-rederive) and 16
// subscribers on it. Storage and store do nothing here; DRed
// maintenance, recursive query evaluation and subscriber fan-out
// dominate.
//
// Edges stay inside communities of kCommunity nodes, one edge per node
// on average. A uniform random graph at that density sits at the
// giant-component threshold, so its closure size (and every cost here)
// would swing with the seed; communities bound each reach set while
// keeping cycles, so DRed still overdeletes and rederives.

#include <algorithm>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench.h"

namespace e2e {
namespace {

constexpr int kNodes = 4096;
constexpr int kEdges = 4096;
constexpr int kCommunity = 32;
constexpr int kSubscribers = 16;
constexpr const char* kReachesRules =
    "q1: derive X.reaches -> Y <- X.edge -> Y. "
    "q2: derive X.reaches -> Z <- X.reaches -> Y, Y.edge -> Z.";

std::string Node(int i) { return "n" + std::to_string(i); }

class GraphViews : public Workload {
 public:
  explicit GraphViews(uint64_t seed)
      : rng_(seed ^ 0x67726170ULL), out_(kNodes) {
    while (static_cast<int>(edges_.size()) < kEdges) InsertRandomEdge();
    for (int i = 0; i < kNodes; ++i) base_text_ += Node(i) + ".isa -> node.\n";
    for (const auto& [a, b] : edges_) {
      base_text_ += Node(a) + ".edge -> " + Node(b) + ".\n";
    }
  }

  bool persistent() const override { return false; }

  Status Setup(Client& client) override {
    Connection& conn = client.conn();
    VERSO_RETURN_IF_ERROR(conn.ImportText(base_text_));
    writer_ = conn.OpenSession();
    reader_ = conn.OpenSession();
    VERSO_RETURN_IF_ERROR(
        client.Execute(*writer_, std::string("CREATE VIEW reaches AS ") +
                                     kReachesRules)
            .status());
    // The first commit after an import materializes every object's
    // existence fact; pay that once here, not in the measured loop.
    VERSO_RETURN_IF_ERROR(
        client.Execute(*writer_, "setup: ins[bench].phase -> ready.")
            .status());
    replicas_.assign(kSubscribers, Replica());
    for (int i = 0; i < kSubscribers; ++i) {
      subscribers_.push_back(conn.OpenSession());
      subscribers_.back()->Refresh();
      VERSO_RETURN_IF_ERROR(
          subscribers_.back()
              ->Subscribe("reaches",
                          [this, i](const verso::ViewDelta& delta) {
                            // One replica keeps the facts; every replica
                            // digests its stream.
                            replicas_[i].Apply(delta, i == 0);
                          })
              .status());
    }
    Result<ResultSet> seed = client.Execute(*subscribers_[0], "QUERY reaches");
    VERSO_RETURN_IF_ERROR(seed.status());
    reaches_ = conn.symbols().FindMethod("reaches");
    replicas_[0].Seed(*seed, reaches_);
    // Point reads address nodes by their depth-0 version.
    node_vid_.assign(kNodes, verso::Vid());
    for (const auto& entry : writer_->base().versions()) {
      verso::Vid vid = entry.first;
      if (conn.versions().depth(vid) != 0) continue;
      std::string_view name =
          conn.symbols().SymbolName(conn.versions().root(vid));
      if (name.size() > 1 && name[0] == 'n') {
        node_vid_[std::stoi(std::string(name.substr(1)))] = vid;
      }
    }
    return Status::Ok();
  }

  /// Ops alternate between a write and a read, so every read follows a
  /// commit and pays one re-pin. A read is a single-source recursive
  /// derive plus a point read of the pinned view.
  Op Next() override {
    Op op;
    if (ops_++ % 2 == 0) {
      op.write = true;
      bool insert = edges_.empty() || rng_.Below(2) == 0;
      if (insert) {
        InsertRandomEdge();
        op.a = edges_.back().first;
        op.b = edges_.back().second;
      } else {
        size_t k = rng_.Below(edges_.size());
        op.a = edges_[k].first;
        op.b = edges_[k].second;
        EraseEdge(k);
      }
      op.text = std::string("t: ") + (insert ? "ins[" : "del[") + Node(op.a) +
                "].edge -> " + Node(op.b) + ".";
      op.value = insert;
      return op;
    }
    op.a = static_cast<int>(rng_.Below(kNodes));
    std::string n = Node(op.a);
    op.text = "s1: derive " + n + ".rr -> Y <- " + n + ".edge -> Y. " +
              "s2: derive " + n + ".rr -> Z <- " + n + ".rr -> Y, Y.edge -> Z.";
    // Half of the point reads ask for a reachable target, so both answers
    // occur.
    std::vector<int> reach = Reach(op.a);
    op.b = !reach.empty() && rng_.Below(2) == 0
               ? reach[rng_.Below(reach.size())]
               : SameCommunity(op.a);
    return op;
  }

  std::string Run(const Op& op, Client& client,
                  uint64_t* latency_ns) override {
    uint64_t start = NowNs();
    if (op.write) {
      Result<ResultSet> rs = client.Execute(*writer_, op.text);
      *latency_ns = NowNs() - start;
      if (!rs.ok()) return rs.status().ToString();
      if (rs->size() != 1 || !rs->Next() || rs->added() != (op.value != 0)) {
        return "edge commit did not change exactly its edge: " + op.text;
      }
      return "";
    }
    client.Refresh(*reader_);
    Result<ResultSet> rs = client.Execute(*reader_, op.text);
    Result<const verso::ObjectBase*> view = reader_->ViewSnapshot("reaches");
    bool found = false;
    if (view.ok()) {
      verso::GroundApp app;
      app.result = client.conn().symbols().FindSymbol(Node(op.b));
      found = (*view)->Contains(node_vid_[op.a], reaches_, app);
    }
    *latency_ns = NowNs() - start;
    if (!rs.ok()) return rs.status().ToString();
    if (!view.ok()) return view.status().ToString();
    std::vector<int> reach = Reach(op.a);
    std::vector<bool> want(kNodes, false);
    for (int v : reach) want[v] = true;
    size_t matched = 0;
    while (rs->Next()) {
      int v = std::stoi(rs->result_text().substr(1));
      matched += v >= 0 && v < kNodes && want[v];
    }
    if (matched != reach.size() || rs->size() != reach.size()) {
      return "reachability from " + Node(op.a) + " disagrees with BFS";
    }
    return found == want[op.b] ? "" : "view point read disagrees with BFS";
  }

  std::vector<std::string> CheckEnd(Client& client) override {
    std::vector<std::string> failures;
    client.Refresh(*reader_);
    Result<ResultSet> view = client.Execute(*reader_, "QUERY reaches");
    Result<ResultSet> scratch = client.Execute(*reader_, kReachesRules);
    if (!view.ok() || !scratch.ok()) return {"reaches view read failed"};
    if (RowTexts(*view) != RowTexts(*scratch)) {
      failures.push_back("reaches view differs from a from-scratch derive");
    }
    size_t closure = 0;
    for (int a = 0; a < kNodes; ++a) closure += Reach(a).size();
    if (view->size() != closure) {
      failures.push_back("reaches view has " + std::to_string(view->size()) +
                         " rows, BFS closure " + std::to_string(closure));
    }
    if (replicas_[0].facts() != RowKeys(*view)) {
      failures.push_back("subscriber replay differs from the reaches view");
    }
    for (const Replica& r : replicas_) {
      if (r.digest() != replicas_[0].digest() ||
          r.deliveries() != replicas_[0].deliveries()) {
        failures.push_back("subscribers received different delta streams");
        break;
      }
    }
    return failures;
  }

  void Detach() override {
    writer_.reset();
    reader_.reset();
    subscribers_.clear();
  }

 private:
  static uint64_t EdgeKey(int a, int b) {
    return (static_cast<uint64_t>(a) << 32) | static_cast<uint32_t>(b);
  }

  int SameCommunity(int a) {
    return a - a % kCommunity + static_cast<int>(rng_.Below(kCommunity));
  }

  void InsertRandomEdge() {
    while (true) {
      int a = static_cast<int>(rng_.Below(kNodes));
      int b = SameCommunity(a);
      if (a == b || index_.count(EdgeKey(a, b)) != 0) continue;
      index_[EdgeKey(a, b)] = edges_.size();
      edges_.emplace_back(a, b);
      out_[a].push_back(b);
      return;
    }
  }

  void EraseEdge(size_t k) {
    auto [a, b] = edges_[k];
    index_.erase(EdgeKey(a, b));
    if (k + 1 != edges_.size()) {
      edges_[k] = edges_.back();
      index_[EdgeKey(edges_[k].first, edges_[k].second)] = k;
    }
    edges_.pop_back();
    std::vector<int>& out = out_[a];
    out.erase(std::find(out.begin(), out.end(), b));
  }

  /// Nodes reachable from `a` by one or more edges (BFS over the model).
  std::vector<int> Reach(int a) const {
    std::vector<bool> seen(kNodes, false);
    std::vector<int> order;
    std::vector<int> frontier = {a};
    while (!frontier.empty()) {
      int u = frontier.back();
      frontier.pop_back();
      for (int v : out_[u]) {
        if (seen[v]) continue;
        seen[v] = true;
        order.push_back(v);
        frontier.push_back(v);
      }
    }
    return order;
  }

  verso::Rng rng_;
  uint64_t ops_ = 0;
  std::vector<std::vector<int>> out_;
  std::vector<std::pair<int, int>> edges_;
  std::unordered_map<uint64_t, size_t> index_;
  std::string base_text_;
  verso::MethodId reaches_;
  std::vector<verso::Vid> node_vid_;
  std::unique_ptr<Session> writer_;
  std::unique_ptr<Session> reader_;
  std::vector<std::unique_ptr<Session>> subscribers_;
  std::vector<Replica> replicas_;
};

}  // namespace

std::unique_ptr<Workload> MakeGraphViews(uint64_t seed) {
  return std::make_unique<GraphViews>(seed);
}

}  // namespace e2e
