// Deterministic fault injection: the chaos layer itself (parsing, seeded
// draws, scoping) and the system property it exists to check -- injected
// faults may degrade, skip, or fail a single batch entry, but can never
// produce an unsound plan or poison work that did not fault.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "common/macros.h"
#include "common/thread_pool.h"
#include "eval/evaluator.h"
#include "optimizer/code_motion.h"
#include "optimizer/hidden_join.h"
#include "optimizer/optimizer.h"
#include "term/intern.h"
#include "term/parser.h"
#include "values/car_world.h"
#include "verify/soundness.h"

namespace kola {
namespace {

// ---------------------------------------------------------------------------
// The injector itself.
// ---------------------------------------------------------------------------

TEST(FaultInjectorTest, ParseRoundTripsCanonicalSpec) {
  auto injector = FaultInjector::Parse("rule:0.5,intern:1", 7);
  ASSERT_TRUE(injector.ok()) << injector.status();
  EXPECT_DOUBLE_EQ(injector->rate(FaultSite::kRuleApplication), 0.5);
  EXPECT_DOUBLE_EQ(injector->rate(FaultSite::kIntern), 1.0);
  EXPECT_DOUBLE_EQ(injector->rate(FaultSite::kStrategy), 0.0);
  EXPECT_EQ(injector->seed(), 7u);
  EXPECT_EQ(injector->spec(), "rule:0.5,intern:1");
}

TEST(FaultInjectorTest, ParseRejectsUnknownSite) {
  auto injector = FaultInjector::Parse("gremlin:0.5", 1);
  ASSERT_FALSE(injector.ok());
  EXPECT_EQ(injector.status().code(), StatusCode::kInvalidArgument);
}

TEST(FaultInjectorTest, RatesClampAndExtremesAreCertain) {
  FaultInjector injector(3);
  injector.set_rate(FaultSite::kRuleApplication, 2.0);  // clamps to 1
  injector.set_rate(FaultSite::kStrategy, -1.0);        // clamps to 0
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(injector.ShouldFail(FaultSite::kRuleApplication));
    EXPECT_FALSE(injector.ShouldFail(FaultSite::kStrategy));
  }
  EXPECT_EQ(injector.draws(FaultSite::kRuleApplication), 200u);
  EXPECT_EQ(injector.injected(FaultSite::kRuleApplication), 200u);
  EXPECT_EQ(injector.injected(FaultSite::kStrategy), 0u);
}

TEST(FaultInjectorTest, SequentialDrawsReplayForAFixedSeed) {
  auto draw_sequence = [](uint64_t seed) {
    FaultInjector injector(seed);
    injector.set_rate(FaultSite::kRuleApplication, 0.5);
    std::vector<bool> draws;
    for (int i = 0; i < 500; ++i) {
      draws.push_back(injector.ShouldFail(FaultSite::kRuleApplication));
    }
    return draws;
  };
  EXPECT_EQ(draw_sequence(42), draw_sequence(42));
  EXPECT_NE(draw_sequence(42), draw_sequence(43));
}

TEST(FaultInjectorTest, KeyedDrawsAreOrderIndependent) {
  FaultInjector injector(9);
  injector.set_rate(FaultSite::kPoolTask, 0.5);
  std::vector<bool> forward, backward;
  for (uint64_t k = 0; k < 100; ++k) {
    forward.push_back(injector.ShouldFailKeyed(FaultSite::kPoolTask, k));
  }
  for (uint64_t k = 100; k > 0; --k) {
    backward.push_back(
        injector.ShouldFailKeyed(FaultSite::kPoolTask, k - 1));
  }
  std::reverse(backward.begin(), backward.end());
  EXPECT_EQ(forward, backward);
}

TEST(FaultInjectorTest, InjectedFaultIsUnavailableAndNamesTheSite) {
  Status status = FaultInjector::InjectedFault(FaultSite::kStrategy);
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_NE(status.message().find("strategy"), std::string::npos);
}

TEST(FaultInjectorTest, ScopedInjectionInstallsAndRestores) {
  EXPECT_EQ(ActiveFaultInjector(), nullptr);
  FaultInjector injector(1);
  {
    ScopedFaultInjection scoped(&injector);
    EXPECT_EQ(ActiveFaultInjector(), &injector);
    EXPECT_TRUE(MaybeInjectFault(FaultSite::kRuleApplication).ok());
  }
  EXPECT_EQ(ActiveFaultInjector(), nullptr);
  EXPECT_TRUE(MaybeInjectFault(FaultSite::kRuleApplication).ok());
}

TEST(FaultInjectorTest, InternFaultHandsBackTheTermAndLeavesTheArenaEmpty) {
  FaultInjector injector(4);
  injector.set_rate(FaultSite::kIntern, 1.0);
  ScopedFaultInjection scoped(&injector);
  TermInterner arena;
  auto raw = ParseTerm("iterate(Kp(T), city) ! P", Sort::kObject);
  ASSERT_TRUE(raw.ok()) << raw.status();
  TermPtr result = arena.Intern(raw.value());
  EXPECT_EQ(result.get(), raw.value().get());
  EXPECT_EQ(arena.IdOf(result), 0u);
  EXPECT_EQ(arena.size(), 0u);
  EXPECT_EQ(arena.bytes(), 0);
  EXPECT_EQ(injector.injected(FaultSite::kIntern), 1u);
}

// ---------------------------------------------------------------------------
// Faults through the optimizer: degrade, never corrupt.
// ---------------------------------------------------------------------------

class ChaosOptimizerTest : public ::testing::Test {
 protected:
  ChaosOptimizerTest() {
    CarWorldOptions options;
    options.num_persons = 16;
    options.num_vehicles = 10;
    options.num_addresses = 8;
    options.seed = 5;
    db_ = BuildCarWorld(options);
    properties_ = PropertyStore::Default();
  }

  Value Eval(const TermPtr& query) {
    auto value = EvalQuery(*db_, query);
    EXPECT_TRUE(value.ok()) << value.status();
    return value.ok() ? std::move(value).value() : Value::Null();
  }

  std::unique_ptr<Database> db_;
  PropertyStore properties_;
};

TEST_F(ChaosOptimizerTest, CertainRuleFaultDegradesToTheInput) {
  FaultInjector injector(1);
  injector.set_rate(FaultSite::kRuleApplication, 1.0);
  ScopedFaultInjection scoped(&injector);
  Optimizer optimizer(&properties_, db_.get());
  TermPtr query = GarageQueryKG1();
  auto result = optimizer.Optimize(query);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->degradation.degraded);
  EXPECT_EQ(result->degradation.code, StatusCode::kUnavailable);
  // The very first fixpoint sweep died, so the floor comes back.
  EXPECT_TRUE(Term::Equal(result->query, query));
}

TEST_F(ChaosOptimizerTest, StrategyFaultDegradesToASoundPrefix) {
  FaultInjector injector(2);
  injector.set_rate(FaultSite::kStrategy, 1.0);
  ScopedFaultInjection scoped(&injector);
  Optimizer optimizer(&properties_, db_.get());
  TermPtr query = GarageQueryKG1();
  auto result = optimizer.Optimize(query);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->degradation.degraded);
  EXPECT_EQ(result->degradation.code, StatusCode::kUnavailable);
  // Phases before the first strategy boundary may have fired; whatever
  // prefix survived must still be semantics-preserving.
  EXPECT_EQ(Eval(result->query), Eval(query));
}

TEST_F(ChaosOptimizerTest, InternFaultsAreAbsorbedNotDegraded) {
  // An interner allocation failure (join exploration and the e-graph
  // intern every plan they keep) degrades to the un-interned term --
  // canonicalization is a performance feature, never a correctness one --
  // so the pipeline neither errors nor reports degradation.
  FaultInjector injector(3);
  injector.set_rate(FaultSite::kIntern, 1.0);
  ScopedFaultInjection scoped(&injector);
  TermPtr query = GarageQueryKG1();
  Optimizer optimizer(&properties_, db_.get());
  auto result = optimizer.Optimize(query);
  ASSERT_TRUE(result.ok()) << result.status();
  // The pipeline reached an interning site, so the fault really fired.
  EXPECT_GT(injector.injected(FaultSite::kIntern), 0u);
  EXPECT_FALSE(result->degradation.degraded);
  EXPECT_EQ(Eval(result->query), Eval(query));
}

TEST_F(ChaosOptimizerTest, DegradedPlansStaySoundAcrossRates) {
  // Sweep a band of rule/strategy fault rates under fixed seeds: every
  // outcome must be OK, and every returned plan must evaluate to the
  // input's result -- the chaos property, in miniature.
  TermPtr query = GarageQueryKG1();
  Value expected = Eval(query);
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    FaultInjector injector(seed);
    injector.set_rate(FaultSite::kRuleApplication, 0.05);
    injector.set_rate(FaultSite::kStrategy, 0.05);
    injector.set_rate(FaultSite::kIntern, 0.25);
    ScopedFaultInjection scoped(&injector);
    Optimizer optimizer(&properties_, db_.get());
    auto result = optimizer.Optimize(query);
    ASSERT_TRUE(result.ok()) << "seed " << seed << ": " << result.status();
    EXPECT_EQ(Eval(result->query), expected) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Batch isolation: a poisoned entry never takes the batch down with it.
// ---------------------------------------------------------------------------

TEST_F(ChaosOptimizerTest, PoisonedBatchEntriesAreIsolatedAndDeterministic) {
  std::vector<TermPtr> batch;
  for (int round = 0; round < 4; ++round) {
    batch.push_back(GarageQueryKG1());
    batch.push_back(QueryK4());
    batch.push_back(QueryK3());
  }
  Optimizer optimizer(&properties_, db_.get());

  // Find a seed whose keyed pool-fault schedule poisons some entries and
  // spares others (the draw is a pure function of (seed, site, index), so
  // this scan is deterministic).
  FaultInjector injector(0);
  injector.set_rate(FaultSite::kPoolTask, 0.3);
  uint64_t chosen = 0;
  for (uint64_t seed = 1; seed < 64 && chosen == 0; ++seed) {
    FaultInjector candidate(seed);
    candidate.set_rate(FaultSite::kPoolTask, 0.3);
    int poisoned = 0;
    for (uint64_t i = 0; i < batch.size(); ++i) {
      if (candidate.ShouldFailKeyed(FaultSite::kPoolTask, i)) ++poisoned;
    }
    if (poisoned > 0 && poisoned < static_cast<int>(batch.size())) {
      chosen = seed;
      injector = candidate;
    }
  }
  ASSERT_NE(chosen, 0u) << "no seed in [1,64) split the batch";

  ScopedFaultInjection scoped(&injector);
  std::vector<std::string> digests;
  for (int jobs : {1, 3}) {
    auto results = optimizer.OptimizeAll(batch, jobs);
    ASSERT_EQ(results.size(), batch.size()) << "jobs " << jobs;
    std::string digest;
    int poisoned = 0;
    for (size_t i = 0; i < results.size(); ++i) {
      if (results[i].ok()) {
        // Survivors are untouched by their neighbors' faults.
        EXPECT_EQ(Eval(results[i].result->query), Eval(batch[i]))
            << "jobs " << jobs << " entry " << i;
        digest += "ok:" + results[i].result->query->ToString() + "\n";
      } else {
        EXPECT_EQ(results[i].status.code(), StatusCode::kUnavailable)
            << "jobs " << jobs << " entry " << i;
        digest += "fail:" + results[i].status.ToString() + "\n";
        ++poisoned;
      }
    }
    EXPECT_GT(poisoned, 0) << "jobs " << jobs;
    EXPECT_LT(poisoned, static_cast<int>(batch.size())) << "jobs " << jobs;
    digests.push_back(std::move(digest));
  }
  // The ok/failed pattern and every surviving plan are identical at every
  // jobs level: the fault schedule is keyed, not scheduled.
  EXPECT_EQ(digests[0], digests[1]);
}

TEST(ChaosPoolTest, WorkerDeathSurfacesAsPoolErrorNotTermination) {
  FaultInjector injector(11);
  injector.set_rate(FaultSite::kPoolTask, 1.0);
  FaultInjector* previous = SetProcessFaultInjector(&injector);
  std::atomic<int> ran{0};
  Status status;
  {
    ThreadPool pool(2);
    for (int i = 0; i < 4; ++i) {
      pool.Submit([&ran] { ran.fetch_add(1); });
    }
    status = pool.Wait();
  }
  SetProcessFaultInjector(previous);
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(ran.load(), 0);  // every pickup died before running the task
}

// ---------------------------------------------------------------------------
// The chaos sweep: never unsound, bit-identical across jobs.
// ---------------------------------------------------------------------------

SoundnessOptions ChaosSweepOptions(int jobs) {
  SoundnessOptions options;
  options.trials = 24;
  options.seed = 99;
  options.max_eval_steps = 500'000;
  options.fault_spec = "rule:0.02,strategy:0.02,intern:0.1,pool:0.02";
  options.fault_seed = 7;
  options.jobs = jobs;
  return options;
}

TEST(ChaosSweepTest, MiniSweepIsCleanDegradedAndJobsInvariant) {
  auto serial = SoundnessHarness(ChaosSweepOptions(1)).Run();
  ASSERT_TRUE(serial.ok()) << serial.status();
  EXPECT_TRUE(serial->clean()) << serial->Summary();
  // The injected faults actually bit: some cells degraded, and still not
  // one produced an unsound verdict.
  EXPECT_GT(serial->degraded, 0);
  auto parallel = SoundnessHarness(ChaosSweepOptions(3)).Run();
  ASSERT_TRUE(parallel.ok()) << parallel.status();
  EXPECT_EQ(serial->Summary(), parallel->Summary());
  // And the run replays: same options, same report.
  auto again = SoundnessHarness(ChaosSweepOptions(1)).Run();
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(serial->Summary(), again->Summary());
}

TEST(ChaosSweepTest, MalformedFaultSpecIsSurfacedUpFront) {
  SoundnessOptions options = ChaosSweepOptions(1);
  options.fault_spec = "bogus:1";
  auto report = SoundnessHarness(options).Run();
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

TEST(ChaosSweepTest, ReplayCommandRoundTripsChaosFlags) {
  Divergence divergence;
  divergence.query = ParseQuery("iterate(Kp(T), id) ! P").value();
  divergence.original_query = divergence.query;
  divergence.world_seed = 5;
  divergence.world_scale = 2;
  divergence.deadline_ms = 250;
  divergence.memory_budget_bytes = 65536;
  divergence.retries = 2;
  divergence.fault_spec = "rule:0.1";
  divergence.fault_stream = 42;
  std::string cmd = divergence.ReplayCommand();
  EXPECT_NE(cmd.find("--deadline-ms 250"), std::string::npos) << cmd;
  EXPECT_NE(cmd.find("--memory-budget 65536"), std::string::npos) << cmd;
  EXPECT_NE(cmd.find("--retries 2"), std::string::npos) << cmd;
  EXPECT_NE(cmd.find("--faults 'rule:0.1'"), std::string::npos) << cmd;
  EXPECT_NE(cmd.find("--fault-seed 42"), std::string::npos) << cmd;

  // Budget-free divergences stay budget-free on the command line.
  divergence.memory_budget_bytes = 0;
  divergence.retries = 0;
  cmd = divergence.ReplayCommand();
  EXPECT_EQ(cmd.find("--memory-budget"), std::string::npos) << cmd;
  EXPECT_EQ(cmd.find("--retries"), std::string::npos) << cmd;
}

}  // namespace
}  // namespace kola
