// Tracing, statistics and output helpers shared by the workloads.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <string>

#include "bench.h"

namespace kolabench {

int32_t Tracer::Open(const char* name) {
  Span span;
  span.name = name;
  span.request = request_;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = NowNs();
  spans_.push_back(span);
  int32_t index = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(index);
  open_allocs_.push_back(ThreadAllocations());
  return index;
}

void Tracer::Close(int32_t index) {
  Span& span = spans_[index];
  span.end_ns = NowNs();
  span.allocs = ThreadAllocations() - open_allocs_.back();
  open_.pop_back();
  open_allocs_.pop_back();
}

TraceSummary Summarize(const std::vector<Span>& spans) {
  TraceSummary summary;
  std::vector<int64_t> child_ns(spans.size(), 0);
  std::vector<int64_t> child_allocs(spans.size(), 0);
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      child_ns[span.parent] += span.end_ns - span.start_ns;
      child_allocs[span.parent] += static_cast<int64_t>(span.allocs);
    }
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    int64_t self = span.end_ns - span.start_ns - child_ns[i];
    if (self < 0) summary.consistent = false;
    if (span.parent < 0) {
      ++summary.requests;
      summary.unattributed_ns += self;
      continue;
    }
    LayerTotals& layer = summary.layers[span.name];
    ++layer.spans;
    layer.self_ns += self;
    layer.self_allocs += static_cast<int64_t>(span.allocs) - child_allocs[i];
  }
  return summary;
}

bool WriteTrace(const std::string& path, const std::string& provenance_json,
                const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"provenance\": " << provenance_json << ",\n";
  out << "\"columns\": [\"name\", \"request\", \"parent\", \"start_ns\", "
         "\"end_ns\", \"allocs\"],\n\"spans\": [\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "[\"" << s.name << "\", " << s.request << ", " << s.parent << ", "
        << s.start_ns << ", " << s.end_ns << ", " << s.allocs << "]"
        << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  double lower = *std::max_element(values.begin(), values.begin() + mid);
  return (lower + upper) / 2;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

TailLatency Tail(std::vector<double> values, double percentile) {
  TailLatency tail;
  tail.percentile = percentile;
  if (values.empty()) return tail;
  const int64_t n = static_cast<int64_t>(values.size());
  // Nearest rank: the ceil(p/100 * n)-th smallest sample.
  int64_t rank = static_cast<int64_t>(std::ceil(percentile / 100.0 * n));
  rank = std::clamp<int64_t>(rank, 1, n);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  tail.value = values[rank - 1];
  tail.beyond = n - rank;
  return tail;
}

namespace {

std::vector<double> Ranks(const std::vector<double>& values) {
  std::vector<size_t> order(values.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return values[a] < values[b]; });
  std::vector<double> ranks(values.size());
  for (size_t i = 0; i < order.size();) {
    size_t j = i;
    while (j + 1 < order.size() && values[order[j + 1]] == values[order[i]]) {
      ++j;
    }
    double rank = (static_cast<double>(i) + static_cast<double>(j)) / 2 + 1;
    for (size_t k = i; k <= j; ++k) ranks[order[k]] = rank;
    i = j + 1;
  }
  return ranks;
}

}  // namespace

double Spearman(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size() || a.size() < 2) return 0;
  std::vector<double> ra = Ranks(a);
  std::vector<double> rb = Ranks(b);
  double ma = Mean(ra);
  double mb = Mean(rb);
  double cov = 0, va = 0, vb = 0;
  for (size_t i = 0; i < ra.size(); ++i) {
    cov += (ra[i] - ma) * (rb[i] - mb);
    va += (ra[i] - ma) * (ra[i] - ma);
    vb += (rb[i] - mb) * (rb[i] - mb);
  }
  if (va == 0 || vb == 0) return 0;
  return cov / std::sqrt(va * vb);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

}  // namespace kolabench
