#include "span_trace.h"

#include <chrono>
#include <fstream>

namespace e2e {

namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

size_t SpanTrace::Begin(std::string name) {
  Span span;
  span.name = std::move(name);
  span.parent = open_.empty() ? -1 : static_cast<int64_t>(open_.back());
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanTrace::End(size_t id) {
  uint64_t now = NowNs();
  while (!open_.empty()) {
    size_t top = open_.back();
    open_.pop_back();
    spans_[top].end_ns = now;
    if (top == id) break;
  }
}

void SpanTrace::OnStratumBegin(uint32_t stratum, size_t rule_count) {
  (void)rule_count;
  Begin("stratum." + std::to_string(stratum));
}

void SpanTrace::OnStratumFixpoint(uint32_t stratum, uint32_t rounds) {
  (void)rounds;
  // Close the innermost open stratum span for this stratum.
  std::string name = "stratum." + std::to_string(stratum);
  for (size_t i = open_.size(); i-- > 0;) {
    if (spans_[open_[i]].name == name) {
      End(open_[i]);
      return;
    }
  }
}

uint64_t SpanTrace::TotalNs(const std::string& prefix) const {
  uint64_t total = 0;
  for (const Span& s : spans_) {
    if (s.name.compare(0, prefix.size(), prefix) == 0 &&
        s.end_ns >= s.start_ns) {
      total += s.end_ns - s.start_ns;
    }
  }
  return total;
}

bool SpanTrace::WriteJsonl(const std::string& path) const {
  std::vector<uint64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::ofstream out(path, std::ios::trunc);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    uint64_t duration = s.end_ns - s.start_ns;
    out << "{\"id\": " << i << ", \"parent\": " << s.parent
        << ", \"name\": \"" << s.name << "\", \"start_ns\": "
        << s.start_ns - origin << ", \"end_ns\": " << s.end_ns - origin
        << ", \"self_ns\": "
        << (duration > child_ns[i] ? duration - child_ns[i] : 0) << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace e2e
