#ifndef E2EBENCH_SPAN_TRACE_H_
#define E2EBENCH_SPAN_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/trace.h"

namespace e2e {

/// In-memory span recorder for the traced run. It holds the benchmark's
/// own spans around client calls (prepare, execute, refresh) and, as a
/// TraceSink wired through ConnectionOptions.trace, one span per
/// evaluation stratum (OnStratumBegin -> OnStratumFixpoint), parented to
/// the innermost open span. Nothing is written until WriteJsonl at the
/// end of the run.
class SpanTrace : public verso::TraceSink {
 public:
  struct Span {
    std::string name;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    int64_t parent = -1;  // index of the enclosing span, -1 for roots
  };

  /// Opens a span nested in the innermost open one; returns its index.
  size_t Begin(std::string name);
  /// Closes span `id` (and any span left open inside it).
  void End(size_t id);

  void OnStratumBegin(uint32_t stratum, size_t rule_count) override;
  void OnStratumFixpoint(uint32_t stratum, uint32_t rounds) override;

  /// Summed duration of the spans whose name starts with `prefix`.
  uint64_t TotalNs(const std::string& prefix) const;
  /// One JSON object per span: id, parent, name, start/end (ns since the
  /// first span) and self time (duration minus the child spans' cover).
  bool WriteJsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

}  // namespace e2e

#endif  // E2EBENCH_SPAN_TRACE_H_
