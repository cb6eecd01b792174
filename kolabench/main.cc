// kolabench: runs one workload of the KOLA benchmark and prints its metrics.
//
//   kolabench --workload compile|execute|serve --seed N --seconds S
//             --trace 0|1 [--trace-out PATH] [--git-sha SHA]
//             [--source-digest HEX]
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with every end-to-end metric when --trace 0, and every per-layer metric
// when --trace 1. The line before it stamps the run's provenance.

#include <sched.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "bench.h"

#ifndef KOLABENCH_BUILD_TYPE
#define KOLABENCH_BUILD_TYPE "unknown"
#endif

namespace kolabench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must list exactly the metrics BENCHMARK.json names; selftest.py checks.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"queries_per_s", "1/s"},
    {"request_p50_ms", "ms"},  {"request_tail_ms", "ms"},
    {"peak_rss_mb", "MB"},     {"compile_allocs", "count"},
    {"exec_allocs", "count"},
};

constexpr MetricSpec kPerLayer[] = {
    {"oql.parse_us", "us"},
    {"aqua.parse_us", "us"},
    {"term.parse_us", "us"},
    {"translate.us", "us"},
    {"translate.size_ratio", "ratio"},
    {"rules.catalog_ms", "ms"},
    {"rules.catalog_allocs", "count"},
    {"optimizer.simplify_us", "us"},
    {"optimizer.simplify_allocs", "count"},
    {"optimizer.code_motion_us", "us"},
    {"optimizer.code_motion_allocs", "count"},
    {"optimizer.hidden_join_us", "us"},
    {"optimizer.hidden_join_allocs", "count"},
    {"optimizer.loop_fusion_us", "us"},
    {"optimizer.loop_fusion_allocs", "count"},
    {"optimizer.join_explore_us", "us"},
    {"optimizer.join_explore_allocs", "count"},
    {"optimizer.cost_us", "us"},
    {"optimizer.cost_allocs", "count"},
    {"optimizer.firings", "count"},
    {"rewrite.memo_hit_frac", "ratio"},
    {"rewrite.index_misses", "count"},
    {"term.large_input_frac", "ratio"},
    {"eval.us", "us"},
    {"eval.allocs", "count"},
    {"eval.steps", "count"},
    {"eval.fastpath_hits", "count"},
    {"cost.rank_corr", "ratio"},
    {"optimizer.slower_plan_frac", "ratio"},
    {"egraph.us", "us"},
    {"egraph.nodes", "count"},
    {"egraph.plan_ratio", "ratio"},
    {"service.hit_frac", "ratio"},
    {"service.evictions", "count"},
    {"service.hit_us", "us"},
    {"service.miss_us", "us"},
    {"service.hit_allocs", "count"},
    {"service.key_interner_terms", "count"},
    {"service.peak_bytes", "bytes"},
    {"values.world_build_ms", "ms"},
    {"trace.unattributed_us", "us"},
    {"trace.overhead_frac", "ratio"},
};

// Each of these silently changes what is measured.
constexpr const char* kGuardedEnv[] = {
    "KOLA_INTERN",      "KOLA_INTERN_MIN_NODES", "KOLA_NO_FIXPOINT_MEMO",
    "KOLA_NO_RULE_INDEX", "KOLA_EGRAPH",         "KOLA_FAULTS",
    "KOLA_FAULT_SEED",
};

[[noreturn]] void Usage(const std::string& why) {
  std::cerr << "kolabench: " << why
            << "\nusage: kolabench --workload compile|execute|serve --seed N "
               "--seconds S --trace 0|1 [--trace-out PATH] [--git-sha SHA] "
               "[--source-digest HEX]\n";
  std::exit(2);
}

std::string Number(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

int UsableCpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
}

int Main(int argc, char** argv) {
  RunOptions options;
  std::string trace_out, git_sha = "unknown", source_digest = "unknown";
  bool trace = false;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' &&
                     options.seconds > 0 && options.seconds <= 3600;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      trace = value == "1";
      have_trace = true;
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else if (flag == "--source-digest") {
      source_digest = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    Usage("--seed, --seconds and --trace are required");
  }
  for (const char* name : kGuardedEnv) {
    if (std::getenv(name) != nullptr) {
      std::cerr << "kolabench: refusing to run with " << name
                << " set: it changes what is measured\n";
      return 2;
    }
  }

  Tracer tracer;
  Tracer* active = trace ? &tracer : nullptr;
  RunResult result;
  if (options.workload == "compile") {
    result = RunCompile(options, active);
  } else if (options.workload == "execute") {
    result = RunExecute(options, active);
  } else if (options.workload == "serve") {
    result = RunServe(options, active);
  } else {
    Usage("unknown workload '" + options.workload + "'");
  }

  // Per-layer metrics a workload's requests never reach are reported as 0
  // and listed, so every traced run prints the same names.
  std::map<std::string, Metric> produced;
  for (const Metric& m : result.metrics) produced.emplace(m.name, m);
  const std::span<const MetricSpec> wanted =
      trace ? std::span<const MetricSpec>(kPerLayer)
            : std::span<const MetricSpec>(kEndToEnd);
  std::vector<Metric> metrics;
  std::vector<std::string> not_exercised;
  bool complete = true;
  for (const MetricSpec& spec : wanted) {
    auto found = produced.find(spec.name);
    if (found != produced.end()) {
      metrics.push_back(found->second);
    } else if (trace) {
      not_exercised.push_back(spec.name);
      metrics.push_back({spec.name, 0, spec.unit});
    } else {
      std::cerr << "kolabench: workload did not produce " << spec.name << "\n";
      complete = false;
    }
  }

  std::string provenance = "{\"git_sha\": " + JsonString(git_sha) +
                           ", \"source_digest\": " +
                           JsonString(source_digest) +
                           ", \"build_type\": " +
                           JsonString(KOLABENCH_BUILD_TYPE) +
                           ", \"nproc\": " + std::to_string(UsableCpus()) +
                           ", \"workload\": " + JsonString(options.workload) +
                           ", \"seed\": " + std::to_string(options.seed) +
                           ", \"seconds\": " + Number(options.seconds) +
                           ", \"trace\": " + (trace ? "1" : "0");
  provenance += ", \"sizes\": {";
  for (size_t i = 0; i < result.sizes.size(); ++i) {
    provenance += (i ? ", " : "") + JsonString(result.sizes[i].first) + ": " +
                  result.sizes[i].second;
  }
  provenance += "}, \"not_exercised\": [";
  for (size_t i = 0; i < not_exercised.size(); ++i) {
    provenance += (i ? ", " : "") + JsonString(not_exercised[i]);
  }
  provenance += "]}";

  for (const std::string& failure : result.failures) {
    std::cerr << "kolabench: FAILED " << failure << "\n";
  }
  if (trace && !trace_out.empty() &&
      !WriteTrace(trace_out, provenance, tracer.spans())) {
    std::cerr << "kolabench: cannot write " << trace_out << "\n";
    return 1;
  }
  if (!complete || result.attempted < 1) return 1;

  std::string line = "{\"correct\": ";
  line += result.failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    line += (i ? ", " : "") + JsonString(metrics[i].name) +
            ": {\"value\": " + Number(metrics[i].value) +
            ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  line += "}}";
  std::cout << "{\"provenance\": " << provenance << "}\n" << line << std::endl;
  return 0;
}

}  // namespace
}  // namespace kolabench

int main(int argc, char** argv) { return kolabench::Main(argc, argv); }
