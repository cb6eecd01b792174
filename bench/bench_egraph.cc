// Greedy pipeline vs the equality-saturation backend (ROADMAP item 3):
// every workload is optimized twice by identically configured Optimizers
// that differ only in RewriterOptions::use_egraph, and the final plans are
// ranked by a fresh CostModel over the same catalog. The contract under
// test is the SaturateAndExtract guarantee -- the e-graph plan never costs
// more than the greedy plan, because the greedy plan is always a ranked
// candidate -- plus the reason the backend exists at all: on at least one
// hidden-join workload saturation must find a strictly cheaper plan than
// the greedy block order does. `--assert` turns both properties into a
// non-zero exit for CI; the table is written to BENCH_egraph.json
// (override with --out=PATH).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/macros.h"
#include "optimizer/code_motion.h"
#include "optimizer/cost.h"
#include "optimizer/hidden_join.h"
#include "optimizer/optimizer.h"
#include "term/parser.h"
#include "values/car_world.h"

namespace kola {
namespace {

struct Workload {
  std::string name;
  TermPtr query;
  bool hidden_join = false;  // rows eligible for the strictly-cheaper gate
};

std::vector<Workload> MakeWorkloads() {
  std::vector<Workload> workloads;
  for (int depth : {3, 4, 5, 6}) {
    auto query = MakeHiddenJoinQuery(depth);
    KOLA_CHECK_OK(query.status());
    workloads.push_back({"hidden_join/depth" + std::to_string(depth),
                         std::move(query).value(), /*hidden_join=*/true});
  }
  workloads.push_back({"garage/kg1", GarageQueryKG1(), /*hidden_join=*/true});
  workloads.push_back({"code_motion/k3", QueryK3(), false});
  workloads.push_back({"code_motion/k4", QueryK4(), false});
  auto parse = [](const char* text) {
    auto term = ParseTerm(text, Sort::kObject);
    KOLA_CHECK_OK(term.status());
    return std::move(term).value();
  };
  workloads.push_back(
      {"join/self_join_ages",
       parse("join(eq @ (age x age), (pi1, pi2)) ! [P, P]"), false});
  workloads.push_back(
      {"iterate/predicate_chain",
       parse("iterate(Kp(T) & Kp(T), id o age) ! P"), false});
  return workloads;
}

/// A wall-clock sample set's median and range, in ms.
struct Timing {
  std::vector<double> samples;
  double median = 0;
  double min = 0;
  double max = 0;

  void Summarize() {
    std::sort(samples.begin(), samples.end());
    median = samples[samples.size() / 2];
    min = samples.front();
    max = samples.back();
  }
};

struct Row {
  std::string name;
  bool hidden_join = false;
  double greedy_cost = 0;
  double egraph_cost = 0;
  bool cheaper = false;      // egraph strictly beat greedy
  Timing greedy_ms;
  Timing egraph_ms;
  EGraphStats stats;         // from the egraph run
};

/// One workload through both pipelines, adding one timing sample to each;
/// costs come from the last round (plans are deterministic, so every
/// round produces the same pair).
void MeasureWorkload(const Workload& workload, Optimizer* greedy,
                     Optimizer* saturating, const CostModel& model,
                     Row* row) {
  row->name = workload.name;
  row->hidden_join = workload.hidden_join;
  auto start = std::chrono::steady_clock::now();
  auto base = greedy->Optimize(workload.query);
  auto mid = std::chrono::steady_clock::now();
  auto with = saturating->Optimize(workload.query);
  auto end = std::chrono::steady_clock::now();
  KOLA_CHECK_OK(base.status());
  KOLA_CHECK_OK(with.status());
  KOLA_CHECK(!with->degradation.degraded);
  row->greedy_ms.samples.push_back(
      std::chrono::duration<double, std::milli>(mid - start).count());
  row->egraph_ms.samples.push_back(
      std::chrono::duration<double, std::milli>(end - mid).count());
  row->stats = with->egraph;
  auto greedy_cost = model.EstimateQueryCost(base->query);
  auto egraph_cost = model.EstimateQueryCost(with->query);
  KOLA_CHECK_OK(greedy_cost.status());
  KOLA_CHECK_OK(egraph_cost.status());
  row->greedy_cost = greedy_cost.value();
  row->egraph_cost = egraph_cost.value();
  row->cheaper = row->egraph_cost < row->greedy_cost;
}

/// `rounds` interleaved rounds, each visiting every workload once, so a
/// slow spell of the host spreads over all rows instead of setting one.
std::vector<Row> RunTable(int rounds) {
  const PropertyStore properties = PropertyStore::Default();
  CarWorldOptions world;
  world.num_persons = 24;
  world.num_vehicles = 12;
  world.num_addresses = 10;
  auto db = BuildCarWorld(world);
  RewriterOptions egraph_on = RewriterOptions::Defaults();
  egraph_on.use_egraph = true;
  RewriterOptions egraph_off = egraph_on;
  egraph_off.use_egraph = false;
  Optimizer greedy(&properties, db.get(), egraph_off);
  Optimizer saturating(&properties, db.get(), egraph_on);
  CostModel model(db.get());

  const std::vector<Workload> workloads = MakeWorkloads();
  std::vector<Row> rows(workloads.size());
  for (int round = 0; round < rounds; ++round) {
    for (size_t i = 0; i < workloads.size(); ++i) {
      MeasureWorkload(workloads[i], &greedy, &saturating, model, &rows[i]);
    }
  }
  std::printf("== greedy vs equality saturation (medians of %d rounds, "
              "%u hardware threads) ==\n",
              rounds, std::thread::hardware_concurrency());
  std::printf("%-26s  %12s  %12s  %8s  %9s  %9s  %6s  %5s  %5s\n", "workload",
              "greedy_cost", "egraph_cost", "cheaper", "greedy_ms",
              "egraph_ms", "nodes", "rules", "sat");
  for (Row& row : rows) {
    row.greedy_ms.Summarize();
    row.egraph_ms.Summarize();
    std::printf("%-26s  %12.1f  %12.1f  %8s  %9.2f  %9.2f  %6llu  %5llu"
                "  %5s\n",
                row.name.c_str(), row.greedy_cost, row.egraph_cost,
                row.cheaper ? "yes" : "tie",
                row.greedy_ms.median, row.egraph_ms.median,
                static_cast<unsigned long long>(row.stats.nodes),
                static_cast<unsigned long long>(row.stats.rule_applications),
                row.stats.saturated ? "yes" : "no");
  }
  std::printf("\n");
  return rows;
}

void WriteJson(const std::vector<Row>& rows, int rounds,
               const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  bool never_worse = true;
  bool cheaper_on_hidden_join = false;
  for (const Row& row : rows) {
    never_worse &= row.egraph_cost <= row.greedy_cost;
    cheaper_on_hidden_join |= row.hidden_join && row.cheaper;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"bench_egraph\",\n");
  std::fprintf(f, "  \"hardware_jobs\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"rounds\": %d,\n", rounds);
  std::fprintf(f, "  \"never_worse_than_greedy\": %s,\n",
               never_worse ? "true" : "false");
  std::fprintf(f, "  \"cheaper_on_hidden_join\": %s,\n",
               cheaper_on_hidden_join ? "true" : "false");
  std::fprintf(f, "  \"results\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    std::fprintf(
        f,
        "    {\"name\": \"%s\", \"hidden_join\": %s, "
        "\"greedy_cost\": %.3f, \"egraph_cost\": %.3f, \"cheaper\": %s, "
        "\"greedy_ms\": %.3f, \"greedy_ms_min\": %.3f, "
        "\"greedy_ms_max\": %.3f, \"egraph_ms\": %.3f, "
        "\"egraph_ms_min\": %.3f, \"egraph_ms_max\": %.3f, "
        "\"egraph\": {\"nodes\": %llu, \"classes\": %llu, "
        "\"rule_applications\": %llu, \"saturated\": %s}}%s\n",
        row.name.c_str(), row.hidden_join ? "true" : "false",
        row.greedy_cost, row.egraph_cost, row.cheaper ? "true" : "false",
        row.greedy_ms.median, row.greedy_ms.min, row.greedy_ms.max,
        row.egraph_ms.median, row.egraph_ms.min, row.egraph_ms.max,
        static_cast<unsigned long long>(row.stats.nodes),
        static_cast<unsigned long long>(row.stats.classes),
        static_cast<unsigned long long>(row.stats.rule_applications),
        row.stats.saturated ? "true" : "false",
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n\n", path.c_str());
}

/// CI gate (--assert): the backend's two promises, as exit status.
int CheckAssertions(const std::vector<Row>& rows) {
  int failures = 0;
  bool cheaper_on_hidden_join = false;
  for (const Row& row : rows) {
    if (row.egraph_cost > row.greedy_cost) {
      std::fprintf(stderr,
                   "ASSERT FAIL: %s: egraph plan costs %.3f > greedy %.3f\n",
                   row.name.c_str(), row.egraph_cost, row.greedy_cost);
      ++failures;
    }
    cheaper_on_hidden_join |= row.hidden_join && row.cheaper;
  }
  if (!cheaper_on_hidden_join) {
    std::fprintf(stderr,
                 "ASSERT FAIL: no hidden-join workload was strictly cheaper "
                 "under saturation\n");
    ++failures;
  }
  if (failures == 0) std::printf("assertions: all passed\n");
  return failures;
}

// ---------------------------------------------------------------------------
// Google-benchmark microbenches for the saturation phase itself.
// ---------------------------------------------------------------------------

void BM_OptimizeGreedy(benchmark::State& state) {
  const PropertyStore properties = PropertyStore::Default();
  auto db = BuildCarWorld(CarWorldOptions{});
  Optimizer optimizer(&properties, db.get());
  auto query = MakeHiddenJoinQuery(static_cast<int>(state.range(0)));
  KOLA_CHECK_OK(query.status());
  for (auto _ : state) {
    auto result = optimizer.Optimize(query.value());
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_OptimizeGreedy)->Arg(4)->Arg(6);

void BM_OptimizeSaturating(benchmark::State& state) {
  const PropertyStore properties = PropertyStore::Default();
  auto db = BuildCarWorld(CarWorldOptions{});
  RewriterOptions options = RewriterOptions::Defaults();
  options.use_egraph = true;
  Optimizer optimizer(&properties, db.get(), options);
  auto query = MakeHiddenJoinQuery(static_cast<int>(state.range(0)));
  KOLA_CHECK_OK(query.status());
  for (auto _ : state) {
    auto result = optimizer.Optimize(query.value());
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_OptimizeSaturating)->Arg(4)->Arg(6);

}  // namespace
}  // namespace kola

int main(int argc, char** argv) {
  std::string out = "BENCH_egraph.json";
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) out = argv[i] + 6;
    if (std::strcmp(argv[i], "--assert") == 0) check = true;
  }
  constexpr int kRounds = 9;
  std::vector<kola::Row> rows = kola::RunTable(kRounds);
  kola::WriteJson(rows, kRounds, out);
  if (check) {
    int failures = kola::CheckAssertions(rows);
    if (failures != 0) return 1;
    return 0;  // skip microbenches in CI's assert mode
  }
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
