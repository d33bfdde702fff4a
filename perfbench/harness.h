#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// Shared plumbing of the repository benchmark: the clock, the in-memory
// span recorder of traced runs, latency samples, digests, and the result
// record each workload prints as one JSON line. Nothing here calls into the
// library; the workloads (ingest.cc, serve.cc) time the library from
// outside, around each public call.

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }
inline double NsToS(int64_t ns) { return static_cast<double>(ns) / 1e9; }

/// FNV-1a-64, fed piecewise; order-sensitive, so equal digests mean the
/// same bytes in the same order.
struct Digest {
  uint64_t h = 1469598103934665603ULL;
  void Add(std::string_view bytes) {
    for (unsigned char c : bytes) {
      h ^= c;
      h *= 1099511628211ULL;
    }
  }
};

/// One timed call into a layer. `name` is "<layer>.<call>" (a string
/// literal); `parent` indexes the enclosing span of the same buffer, -1 for
/// a root. Spans of one served request share its `request` id, and the
/// local replay of that request reuses the id.
struct Span {
  const char* name;
  uint64_t request;
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;
};

/// Per-thread span buffer. Disabled buffers record nothing, so the
/// untraced run pays one branch per call site. Spans stay in memory until
/// the run ends (Trace::Write).
class SpanBuffer {
 public:
  explicit SpanBuffer(bool enabled) : enabled_(enabled) {}

  int Open(const char* name, uint64_t request) {
    if (!enabled_) return -1;
    spans_.push_back({name, request, NowNs(), 0, current_});
    current_ = static_cast<int32_t>(spans_.size() - 1);
    return current_;
  }
  void Close(int index) {
    if (index < 0) return;
    spans_[index].end_ns = NowNs();
    current_ = spans_[index].parent;
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  int32_t current_ = -1;
  std::vector<Span> spans_;
};

/// RAII span: opened at construction, closed at scope exit.
class Scoped {
 public:
  Scoped(SpanBuffer& buf, const char* name, uint64_t request)
      : buf_(buf), index_(buf.Open(name, request)) {}
  ~Scoped() { buf_.Close(index_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanBuffer& buf_;
  int index_;
};

/// Latency (or any) samples with nearest-rank percentiles.
class Samples {
 public:
  void Add(double v) { v_.push_back(v); }
  size_t size() const { return v_.size(); }
  double Sum() const;
  double Mean() const { return v_.empty() ? 0.0 : Sum() / v_.size(); }
  /// p in [0, 1]; 0 when empty.
  double Percentile(double p) const;
  double Median() const { return Percentile(0.5); }

 private:
  std::vector<double> v_;
};

/// Self time and call count of one span name, aggregated over a trace.
struct SpanTotals {
  std::string name;
  uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

/// The spans of one workload run, gathered from every thread's buffer.
class Trace {
 public:
  void Add(const SpanBuffer& buf) { buffers_.push_back(buf.spans()); }

  /// Per span name: count, total and self seconds. Self time is the span's
  /// duration minus the time its child spans cover (children of one span
  /// come from the same thread and never overlap).
  std::vector<SpanTotals> ByName() const;
  /// The same, folded to the layer prefix of each name ("io", "query", ...).
  std::vector<SpanTotals> ByLayer() const;

  /// Writes every span as CSV: thread,request,name,parent,start_ns,end_ns.
  bool Write(const std::string& path) const;

 private:
  std::vector<std::vector<Span>> buffers_;
};

/// One reported metric. `samples` is how many observations it summarizes
/// (1 for an exact count or ratio of totals).
struct Metric {
  std::string name;
  double value;
  std::string unit;
  uint64_t samples;
};

/// What a workload run prints: attempts, failures (errors, refusals and
/// wrong answers alike), metrics, the per-layer self-time table, input
/// sizes, and the first few failure messages.
struct Result {
  std::string workload;
  bool traced = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<SpanTotals> layers;
  std::vector<SpanTotals> spans;
  std::vector<std::pair<std::string, double>> inputs;
  std::vector<std::string> errors;

  void Add(std::string name, double value, std::string unit,
           uint64_t samples) {
    metrics.push_back({std::move(name), value, std::move(unit), samples});
  }
  void Fail(std::string message) {
    ++failed;
    if (errors.size() < 8) errors.push_back(std::move(message));
  }
  std::string ToJson() const;
};

/// Peak resident set of this process, in MB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
