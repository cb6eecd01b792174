// Shared pieces of the KOLA benchmark: run options and results, the
// per-thread allocation counter, request tracing, and summary statistics.
// The workloads live in pipeline.cc (compile, execute) and serve.cc.

#ifndef KOLABENCH_BENCH_H_
#define KOLABENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace kolabench {

/// Heap allocations made so far by the calling thread (alloc_count.cc).
uint64_t ThreadAllocations();

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one invocation reports: request accounting, metrics, and the
/// workload's sizes for the provenance stamp.
struct RunResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  /// Provenance: name -> JSON value text.
  std::vector<std::pair<std::string, std::string>> sizes;
  /// The first few failure descriptions (stderr only).
  std::vector<std::string> failures;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Size(const std::string& name, const std::string& json_value) {
    sizes.emplace_back(name, json_value);
  }
  void Fail(const std::string& why) {
    ++failed;
    if (failures.size() < 20) failures.push_back(why);
  }
};

// ---------------------------------------------------------------------------
// Tracing: one span per call into a layer's public function. Spans are kept
// in memory and written out when the run ends.

struct Span {
  const char* name = "";
  int64_t request = -1;
  int32_t parent = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t allocs = 0;  // allocations on this thread inside the span
};

class Tracer {
 public:
  Tracer() { spans_.reserve(1 << 16); }
  void set_request(int64_t id) { request_ = id; }
  int32_t Open(const char* name);
  void Close(int32_t index);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
  std::vector<uint64_t> open_allocs_;
  int64_t request_ = -1;
};

/// RAII span; a null tracer makes it free.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), index_(tracer ? tracer->Open(name) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t index_;
};

struct LayerTotals {
  int64_t spans = 0;
  int64_t self_ns = 0;
  int64_t self_allocs = 0;
};

/// Self time of a span is its duration minus the part its children cover;
/// a request's unattributed time is the self time of its root span. So a
/// request's layer self times plus its unattributed time equal its root
/// span by construction.
struct TraceSummary {
  std::map<std::string, LayerTotals> layers;  // by span name, roots excluded
  int64_t requests = 0;
  int64_t unattributed_ns = 0;
  /// False when some span's children outlast it (a negative self time).
  bool consistent = true;
};
TraceSummary Summarize(const std::vector<Span>& spans);

/// Writes the spans as JSON (one array per span) with the provenance
/// object; false when the file cannot be written.
bool WriteTrace(const std::string& path, const std::string& provenance_json,
                const std::vector<Span>& spans);

// ---------------------------------------------------------------------------
// Statistics.

double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// The `percentile`-th percentile of the samples (nearest rank), with the
/// number of samples above it. Each workload fixes its percentile, so the
/// metric does not change meaning when throughput changes the sample count.
struct TailLatency {
  double value = 0;
  double percentile = 0;
  int64_t beyond = 0;
};
TailLatency Tail(std::vector<double> values, double percentile);

/// Spearman rank correlation (average ranks for ties); 0 when undefined.
double Spearman(const std::vector<double>& a, const std::vector<double>& b);

/// Process high-water resident set (VmHWM), in MB.
double PeakRssMb();

std::string JsonString(const std::string& text);

// ---------------------------------------------------------------------------
// Workloads.

RunResult RunCompile(const RunOptions& options, Tracer* tracer);
RunResult RunExecute(const RunOptions& options, Tracer* tracer);
RunResult RunServe(const RunOptions& options, Tracer* tracer);

}  // namespace kolabench

#endif  // KOLABENCH_BENCH_H_
