// Span recorder for the benchmark's traced run.
//
// A span is a named interval on the client thread, with the span that was
// open when it started as its parent and the query it belongs to. Every
// span feeds per-name totals (count, duration, and the part of that
// duration covered by direct children, from which run.py derives self
// time); full spans are kept only for the first `keep_queries` queries so
// the Chrome trace stays small enough to open in Perfetto.
#ifndef P2PAQP_BENCHMARK_TRACE_H_
#define P2PAQP_BENCHMARK_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace p2paqp::bench {

struct SpanTotals {
  const char* name = nullptr;
  uint64_t count = 0;
  int64_t total_ns = 0;
  // Time covered by direct child spans.
  int64_t child_ns = 0;
};

class Tracer {
 public:
  explicit Tracer(uint32_t keep_queries);

  // Query id stamped on spans opened from now on.
  void SetQuery(uint32_t query) { query_ = query; }

  // Opens a span; `name` must be a string literal (totals key on the
  // pointer). Spans close in LIFO order.
  void Begin(const char* name);
  void End();

  // Drops everything recorded so far (the warm-up's spans).
  void Reset();

  const std::vector<SpanTotals>& totals() const { return totals_; }

  // Writes the kept spans as Chrome trace-event JSON ("X" complete events,
  // microsecond timestamps). Returns false when the file cannot be written.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Open {
    const char* name;
    int64_t start_ns;
    int64_t child_ns;
    int32_t kept;  // Index into kept_, or -1.
  };
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;  // Index into kept_, or -1 for a root.
    uint32_t query;
  };

  int64_t NowNs() const;
  SpanTotals& TotalsFor(const char* name);

  uint32_t keep_queries_;
  uint32_t query_ = 0;
  int64_t origin_ns_ = 0;
  std::vector<Open> stack_;
  std::vector<Span> kept_;
  std::vector<SpanTotals> totals_;
};

// RAII span; a null tracer makes it a no-op, so untraced runs share the
// code path.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->Begin(name);
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
};

}  // namespace p2paqp::bench

#endif  // P2PAQP_BENCHMARK_TRACE_H_
