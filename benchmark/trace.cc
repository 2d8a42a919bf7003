#include "trace.h"

#include <chrono>
#include <cstdio>

namespace p2paqp::bench {

Tracer::Tracer(uint32_t keep_queries) : keep_queries_(keep_queries) {
  Reset();
}

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
             .count() -
         origin_ns_;
}

SpanTotals& Tracer::TotalsFor(const char* name) {
  // A handful of distinct names: a linear scan beats hashing.
  for (SpanTotals& totals : totals_) {
    if (totals.name == name) return totals;
  }
  totals_.push_back(SpanTotals{name});
  return totals_.back();
}

void Tracer::Reset() {
  stack_.clear();
  kept_.clear();
  totals_.clear();
  origin_ns_ = 0;
  origin_ns_ = NowNs();
}

void Tracer::Begin(const char* name) {
  int32_t kept = -1;
  if (query_ < keep_queries_) {
    int32_t parent = stack_.empty() ? -1 : stack_.back().kept;
    kept = static_cast<int32_t>(kept_.size());
    kept_.push_back(Span{name, 0, 0, parent, query_});
  }
  // Read the clock last so the bookkeeping above is not inside the span.
  stack_.push_back(Open{name, 0, 0, kept});
  stack_.back().start_ns = NowNs();
}

void Tracer::End() {
  const int64_t end_ns = NowNs();
  Open open = stack_.back();
  stack_.pop_back();
  const int64_t duration = end_ns - open.start_ns;
  SpanTotals& totals = TotalsFor(open.name);
  ++totals.count;
  totals.total_ns += duration;
  totals.child_ns += open.child_ns;
  if (!stack_.empty()) stack_.back().child_ns += duration;
  if (open.kept >= 0) {
    kept_[open.kept].start_ns = open.start_ns;
    kept_[open.kept].end_ns = end_ns;
  }
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f);
  for (size_t i = 0; i < kept_.size(); ++i) {
    const Span& span = kept_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"query\":%u,"
                 "\"span\":%zu,\"parent\":%d}}\n",
                 i == 0 ? "" : ",", span.name,
                 static_cast<double>(span.start_ns) / 1000.0,
                 static_cast<double>(span.end_ns - span.start_ns) / 1000.0,
                 span.query, i, span.parent);
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace p2paqp::bench
