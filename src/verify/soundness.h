#ifndef KOLA_VERIFY_SOUNDNESS_H_
#define KOLA_VERIFY_SOUNDNESS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "rewrite/rule.h"
#include "term/term.h"
#include "values/random_world.h"

namespace kola {

/// One cell of the optimizer configuration matrix the harness sweeps: the
/// engine tunables that must never change query RESULTS, only performance.
/// Differential testing across all eight combinations is what catches a
/// fastpath/index/egraph interaction that per-rule verification cannot.
struct PipelineConfig {
  bool physical_fastpaths = true; // hash join / grouping in the evaluator
  bool rule_index = true;         // compiled rule matching (rule_index.h)
  bool egraph = false;            // equality-saturation phase (egraph/)

  /// Compact stable name: "+"-joined feature list ("fast+index+egraph"),
  /// "plain" when everything is off.
  /// Round-trips through ParsePipelineConfig; used by
  /// `kolaverify --config`.
  std::string Name() const;
};

/// Parses a PipelineConfig::Name() back into a config. INVALID_ARGUMENT on
/// unknown or duplicated feature names ("plain" is only valid alone), which
/// includes the retired "intern" and "memo" axes.
StatusOr<PipelineConfig> ParsePipelineConfig(const std::string& name);

/// All eight fastpath x rule-index x egraph combinations.
std::vector<PipelineConfig> FullConfigMatrix();

/// A rule that is deliberately unsound -- iterate(?p, ?f) => iterate(?p, id)
/// silently drops the projection. Planted into the harness by tests (and
/// `kolaverify --plant-unsound`) to prove the end-to-end detector actually
/// detects: the harness must flag it and shrink the failure to a depth <= 3
/// query. Never registered in the rule catalog.
Rule PlantedDropMapRule();

/// Harness tunables.
struct SoundnessOptions {
  int trials = 1000;
  uint64_t seed = 1;

  /// Depth budget for generated query pieces.
  int gen_depth = 3;

  /// Per-evaluation step bound; RESOURCE_EXHAUSTED evaluations are counted
  /// as skips, never as divergences.
  int64_t max_eval_steps = 2'000'000;

  /// Wall-clock budget in milliseconds for each pipeline stage of a config
  /// cell (the optimization pass and each plan evaluation get their own
  /// fresh Governor). 0 means ungoverned. A deadline hit during
  /// optimization degrades -- the best-so-far plan is STILL differentially
  /// checked; a deadline hit during an evaluation is a skip, exactly like
  /// a step-budget skip. Deadline hits depend on wall clock, so reports
  /// from deadline runs need not be bit-identical across machines.
  int64_t deadline_ms = 0;

  /// Per-stage memory budget in bytes (0 = unlimited). The optimization
  /// pass of every config cell runs under a Governor carrying this byte
  /// budget (exploration frontier, rule indexes, e-graph and evaluator
  /// scratch all charge it); each plan evaluation gets its own fresh
  /// budget of the same size. Exhaustion degrades the pass / skips the
  /// evaluation, never errors. Charges -- and therefore the report -- are
  /// a pure function of the cell and stay bit-identical at every --jobs
  /// level.
  int64_t memory_budget_bytes = 0;

  /// Escalation retries for memory-degraded passes (0 = none). When both
  /// this and memory_budget_bytes are set, each cell's pass runs under a
  /// RetrySupervisor with max_attempts = retries + 1: a pass degraded on
  /// RESOURCE_EXHAUSTED re-runs under a geometrically larger budget, and a
  /// pass still degraded after the last attempt is quarantined (its best
  /// plan is still differentially checked).
  int retries = 0;

  /// Fault-injection spec `site:rate,...` (see common/fault_injection.h)
  /// installed for the optimizer section of every config cell. "" means no
  /// faults. The baseline ground-truth evaluation always runs fault-free.
  std::string fault_spec;

  /// Base seed for fault streams. Trial K draws its faults from the
  /// independent child stream Rng(fault_seed).Child(K), so the chaos
  /// schedule is a pure function of (fault_seed, trial) and bit-identical
  /// at every --jobs level. Replay uses fault_seed directly as the stream.
  uint64_t fault_seed = 1;

  /// The optimizer configurations every trial is checked under.
  std::vector<PipelineConfig> configs = FullConfigMatrix();

  /// Applied once each to the optimized plan, as if they had fired during
  /// optimization. Test hook: plant PlantedDropMapRule() here and the
  /// harness must catch it.
  std::vector<Rule> extra_rules;

  /// Greedily minimize failures before reporting (term reduction first,
  /// then database scale).
  bool shrink = true;

  /// Stop after this many divergences (each is shrunk and fully reported;
  /// one is usually enough to file).
  int max_failures = 3;

  /// Worker threads for the trial sweep. Every trial seeds itself via
  /// Rng::Child(trial), runs on whichever worker picks it up, and is folded
  /// back in trial order, so the report -- counts, failures, repro seeds,
  /// shrunk queries -- is bit-identical for every jobs value (including 1,
  /// which runs inline with no threads). Parallelism buys wall-clock only.
  int jobs = 1;
};

/// A reproducible optimizer-soundness failure: a query whose optimized form
/// evaluates to a different result than the original on a concrete
/// database.
struct Divergence {
  TermPtr query;            // minimized diverging query
  TermPtr original_query;   // as generated, before shrinking
  TermPtr optimized;        // the plan that disagreed (for `query`)
  uint64_t world_seed = 0;  // BuildRandomWorld seed
  int world_scale = 0;      // after database shrinking
  PipelineConfig config;    // the matrix cell that diverged
  bool planted = false;     // extra_rules were in play
  std::string expected;     // baseline result (printed)
  std::string actual;       // optimized result (printed)
  std::vector<std::string> rule_trace;  // rule ids, firing order
  int64_t deadline_ms = 0;      // per-stage deadline in play (0 = none)
  int64_t memory_budget_bytes = 0;  // per-stage byte budget (0 = none)
  int retries = 0;              // escalation retries in play (0 = none)
  std::string fault_spec;       // fault spec in play ("" = none)
  uint64_t fault_stream = 0;    // exact fault stream seed of this cell

  /// A one-line `kolaverify --replay ...` invocation that reproduces this
  /// exact divergence from a fresh process.
  std::string ReplayCommand() const;

  /// Multi-line human-readable report (query, world, trace, both results,
  /// replay command).
  std::string Report() const;
};

/// Aggregate outcome of a harness run.
struct SoundnessReport {
  int trials = 0;            // queries generated and attempted
  int evaluated = 0;         // trials whose baseline evaluation succeeded
  int gen_skipped = 0;       // generator could not fill the drawn shape
  int eval_skipped = 0;      // baseline errored or ran out of steps
  int config_runs = 0;       // (trial, config) cells checked
  int strictness = 0;        // optimized plan errored where baseline did not
  int degraded = 0;          // cells where the optimizer degraded (deadline,
                             // budget, injected fault) -- plan still checked
  int retried = 0;           // cells the RetrySupervisor re-ran (>1 attempt)
  int quarantined = 0;       // cells still degraded at max escalation
  int cost_regressions = 0;  // egraph cells whose extracted plan costed
                             // MORE than the same cell without the e-graph
                             // (checked only on unbudgeted, fault-free
                             // runs; must be 0)
  bool supervised = false;   // the RetrySupervisor was configured (retries
                             // > 0): Summary() then reports retried /
                             // quarantined counts. Options-driven, so the
                             // format is identical at every --jobs level.
  std::vector<Divergence> failures;

  bool clean() const { return failures.empty(); }
  std::string Summary() const;
};

/// The end-to-end differential harness: every trial generates a random
/// query (verify/query_gen.h), builds a fresh random world, evaluates the
/// query un-optimized (fastpaths off) as ground truth, then runs the full
/// optimizer pipeline under every PipelineConfig and re-evaluates each
/// produced plan. Disagreement in results is a Divergence; it is shrunk to
/// a minimal term and world before being reported.
///
/// Error-behavior differences are *not* divergences: code motion may hoist
/// a predicate over an attribute access that would have errored (the
/// paper's semantics are total over defined values), so an optimized plan
/// erroring where the baseline succeeded is tallied under `strictness`.
class SoundnessHarness {
 public:
  explicit SoundnessHarness(SoundnessOptions options)
      : options_(std::move(options)) {}

  /// Runs the full sweep. Only infrastructure failures (not divergences)
  /// surface as error Status.
  StatusOr<SoundnessReport> Run();

  /// Checks one query against one world under one config -- the `--replay`
  /// path, and the predicate the shrinker minimizes against. Returns the
  /// (shrunk, when options.shrink) divergence, or nullopt when the query
  /// and its optimized forms agree.
  StatusOr<std::optional<Divergence>> CheckQuery(
      const TermPtr& query, const RandomWorldOptions& world,
      const PipelineConfig& config);

 private:
  struct RunOutcome;    // internal per-config evaluation result
  struct TrialOutcome;  // internal per-trial result (all configs)

  /// `fault_stream` seeds this cell's fault injector when
  /// options_.fault_spec is non-empty (ignored otherwise).
  RunOutcome RunConfig(const TermPtr& query, const Database& db,
                       const PipelineConfig& config,
                       uint64_t fault_stream) const;
  /// Generates and checks one trial, self-seeded from options_.seed and
  /// `trial` alone (no shared rng stream): safe to run concurrently with
  /// other trials, and its outcome is independent of execution order.
  TrialOutcome RunTrial(int trial) const;
  Divergence ShrinkDivergence(Divergence failure) const;

  SoundnessOptions options_;
};

/// Depth of a term with leaves at depth 0 (so `iterate(Kp(T), age) ! P`
/// has depth 3). The planted-rule acceptance bound is stated in terms of
/// this metric.
int TermDepth(const TermPtr& term);

}  // namespace kola

#endif  // KOLA_VERIFY_SOUNDNESS_H_
