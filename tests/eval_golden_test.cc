// Golden evaluation outcomes: one StableStringHash digest per KOLA
// evaluation over everything the evaluator reports -- the status code and
// message (or Value::ToString() of the result), steps(), fastpath_hits()
// and the governed kEvalScratch peak. Any change to what a term evaluates
// to, to which error text a failure carries, to how many invocations it
// takes or to how its materialized values are charged changes a digest.
//
// The corpus half pins the e2e and company corpora, the paper's K3, K4 and
// KG1 and hidden joins of depth 2-6, each as translated and as optimized,
// with the physical fast paths on and off, plus governed evaluations that
// stop part-way. The random half pins seeded TermGenerator applications
// (well-typed and deliberately ill-typed arguments) and applications of
// untyped random terms over every former and primitive, one digest per
// chunk of 100; those pin the error texts (`iter expects a pair, got ...`,
// the attribute and function NOT_FOUND texts, ...). A mismatch prints the
// replacement table line and, for a chunk, its records.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "aqua/parser.h"
#include "common/governor.h"
#include "common/random.h"
#include "e2e_corpus.h"
#include "eval/evaluator.h"
#include "oql/oql.h"
#include "optimizer/code_motion.h"
#include "optimizer/hidden_join.h"
#include "optimizer/optimizer.h"
#include "rewrite/generate.h"
#include "rewrite/types.h"
#include "term/parser.h"
#include "term/term.h"
#include "translate/translate.h"
#include "values/car_world.h"
#include "values/company_world.h"

namespace kola {
namespace {

constexpr size_t kChunk = 100;
constexpr int64_t kRandomMaxSteps = 20'000;

struct NamedQuery {
  std::string name;
  TermPtr query;
};

TermPtr Translate(const std::string& text, bool is_oql) {
  auto aqua_query = is_oql ? oql::ParseOql(text) : aqua::ParseAqua(text);
  EXPECT_TRUE(aqua_query.ok()) << text << ": " << aqua_query.status();
  if (!aqua_query.ok()) return nullptr;
  Translator translator;
  auto term = translator.TranslateQuery(aqua_query.value());
  EXPECT_TRUE(term.ok()) << text << ": " << term.status();
  return term.ok() ? term.value() : nullptr;
}

std::vector<NamedQuery> CarCorpus() {
  std::vector<NamedQuery> queries;
  for (const E2eWorkload& workload : kE2eWorkloads) {
    queries.push_back({workload.name, Translate(workload.text,
                                                workload.is_oql)});
  }
  queries.push_back({"KG1", GarageQueryKG1()});
  queries.push_back({"K3", QueryK3()});
  queries.push_back({"K4", QueryK4()});
  for (int depth = 2; depth <= 6; ++depth) {
    auto query = MakeHiddenJoinQuery(depth);
    EXPECT_TRUE(query.ok()) << query.status();
    queries.push_back({"hidden-join-" + std::to_string(depth),
                       query.ok() ? query.value() : nullptr});
  }
  return queries;
}

std::vector<NamedQuery> CompanyCorpus() {
  return {
      {"company-filter",
       Translate("select e.ename from e in E where e.salary > 100000",
                 true)},
      {"company-project",
       Translate("select [d.dname, d.head.ename] from d in D", true)},
      {"company-members",
       Translate("select e from p in Proj, e in p.members where "
                 "e.salary > 50000",
                 true)},
      {"company-join",
       Translate("select [e, d] from e in E, d in D where e.dept == d and "
                 "e.salary > 60000",
                 true)},
      {"company-hidden-join",
       Translate("app(\\d. [d, flatten(app(\\e. e.skills)(sel(\\e. "
                 "e.dept == d)(E)))])(D)",
                 false)},
  };
}

/// What one evaluation reports: its outcome, steps, fast-path hits and the
/// peak bytes it charged to kEvalScratch.
std::string Record(const StatusOr<Value>& result, int64_t steps,
                   int64_t fastpath_hits, int64_t scratch_peak) {
  std::string out = result.ok() ? "OK " + result.value().ToString()
                                : result.status().ToString();
  return out + "\tsteps " + std::to_string(steps) + " fast " +
         std::to_string(fastpath_hits) + " scratch " +
         std::to_string(scratch_peak);
}

StatusOr<Value> BoolResult(const StatusOr<bool>& holds) {
  if (!holds.ok()) return holds.status();
  return Value::Bool(holds.value());
}

/// One evaluation in a fresh Evaluator under its own governor. `limits`
/// defaults to accounting only (no deadline, budget or byte cap).
class Evaluation {
 public:
  Evaluation(const Database* db, bool fastpaths, int64_t max_steps,
      Governor::Limits limits = {})
      : governor_(limits),
        evaluator_(db, EvalOptions{.max_steps = max_steps,
                                   .physical_fastpaths = fastpaths,
                                   .governor = &governor_}) {}

  std::string Object(const TermPtr& query) {
    return Finish(evaluator_.EvalObject(query));
  }
  std::string Apply(const TermPtr& fn, const Value& argument) {
    return Finish(evaluator_.Apply(fn, argument));
  }
  std::string Holds(const TermPtr& pred, const Value& argument) {
    return Finish(BoolResult(evaluator_.Holds(pred, argument)));
  }

 private:
  std::string Finish(const StatusOr<Value>& result) {
    return Record(result, evaluator_.steps(), evaluator_.fastpath_hits(),
                  governor_.memory().peak(MemoryCategory::kEvalScratch));
  }

  Governor governor_;
  Evaluator evaluator_;
};

std::string TableLine(const std::string& name, uint64_t digest) {
  char line[200];
  std::snprintf(line, sizeof(line), "{\"%s\", 0x%016llxULL},", name.c_str(),
                static_cast<unsigned long long>(digest));
  return line;
}

void ExpectDigests(const std::map<std::string, uint64_t>& digests,
                   const std::map<std::string, std::string>& records,
                   const std::map<std::string, uint64_t>& golden) {
  bool printed_records = false;
  for (const auto& [name, digest] : digests) {
    auto it = golden.find(name);
    if (it == golden.end()) {
      ADD_FAILURE() << "no golden digest for " << name << "\n"
                    << TableLine(name, digest);
    } else if (it->second != digest) {
      ADD_FAILURE() << name << " changed\n"
                    << TableLine(name, digest) << "\n"
                    << (printed_records ? std::string()
                                        : records.at(name));
      printed_records = true;
    }
  }
  EXPECT_EQ(digests.size(), golden.size());
}

class EvalGoldenTest : public ::testing::Test {
 protected:
  EvalGoldenTest() : properties_(PropertyStore::Default()) {
    CarWorldOptions car;
    car.num_persons = 16;
    car.num_vehicles = 10;
    car.num_addresses = 8;
    car.seed = 5;
    car_ = BuildCarWorld(car);
    CompanyWorldOptions company;
    company.num_departments = 5;
    company.num_employees = 30;
    company.num_projects = 8;
    company.seed = 3;
    company_ = BuildCompanyWorld(company);
  }

  void Pin(const std::string& name, std::string record) {
    digests_[name] = StableStringHash(record);
    records_[name] = std::move(record);
  }

  /// Pins `query` as translated and as optimized on `db`, fast paths on
  /// and off.
  void PinInputAndPlan(const std::string& name, const Database* db,
                       const TermPtr& query) {
    ASSERT_NE(query, nullptr) << name;
    Optimizer optimizer(&properties_, db);
    auto plan = optimizer.Optimize(query);
    ASSERT_TRUE(plan.ok()) << name << ": " << plan.status();
    for (const auto& [form, term] :
         {std::pair<const char*, TermPtr>{"input", query},
          std::pair<const char*, TermPtr>{"plan", plan->query}}) {
      for (bool fast : {true, false}) {
        Pin(name + "/" + form + (fast ? "/fast" : "/naive"),
            Evaluation(db, fast, EvalOptions{}.max_steps).Object(term));
      }
    }
  }

  /// Pins `records` as one digest per chunk of kChunk, named
  /// `stream/NN`.
  void PinChunks(const std::string& stream,
                 const std::vector<std::string>& records) {
    for (size_t begin = 0; begin < records.size(); begin += kChunk) {
      std::string chunk;
      for (size_t i = begin; i < std::min(begin + kChunk, records.size());
           ++i) {
        chunk += records[i] + "\n";
      }
      char name[64];
      std::snprintf(name, sizeof(name), "%s/%02zu", stream.c_str(),
                    begin / kChunk);
      Pin(name, std::move(chunk));
    }
  }

  PropertyStore properties_;
  std::unique_ptr<Database> car_;
  std::unique_ptr<Database> company_;
  std::map<std::string, uint64_t> digests_;
  std::map<std::string, std::string> records_;
};

// ---------------------------------------------------------------------------
// Untyped random terms: every former, every built-in primitive, schema
// names, names no schema defines, and arguments of every value kind
// (including dangling objects), so most applications fail somewhere.
// ---------------------------------------------------------------------------

constexpr const char* kFnNames[] = {
    "id",   "pi1",   "pi2",   "flat",  "distinct", "tobag", "card",
    "union", "intersect", "diff", "age", "name", "addr", "child",
    "cars", "grgs",  "city",  "street", "make",    "year",  "succ",
    "dbl",  "neg",   "ssn",   "eq",    "salary"};
constexpr const char* kPredNames[] = {"eq",  "neq", "lt", "leq", "gt",
                                      "geq", "in",  "age", "id", "tall"};
constexpr const char* kExtents[] = {"P", "V", "A", "Nums", "Zz"};
constexpr const char* kStrings[] = {"a", "b", "Boston", ""};

class UntypedGen {
 public:
  UntypedGen(const Database* db, uint64_t seed) : db_(db), rng_(seed) {}

  Value RandomValue(int depth) {
    switch (rng_.Index(depth > 0 ? 9 : 5)) {
      case 0:
        return Value::Int(rng_.Uniform(-3, 5));
      case 1:
        return Value::Str(kStrings[rng_.Index(4)]);
      case 2:
        return Value::Bool(rng_.Chance(0.5));
      case 3:
      case 4:
        return RandomObject();
      case 5:
      case 6:
        return Value::MakePair(RandomValue(depth - 1),
                               RandomValue(depth - 1));
      default:
        return RandomCollection(depth - 1);
    }
  }

  TermPtr RandomFn(int depth) {
    if (depth <= 0 || rng_.Chance(0.3)) {
      return PrimFn(kFnNames[rng_.Index(std::size(kFnNames))]);
    }
    switch (rng_.Index(11)) {
      case 0:
        return Compose(RandomFn(depth - 1), RandomFn(depth - 1));
      case 1:
        return PairFn(RandomFn(depth - 1), RandomFn(depth - 1));
      case 2:
        return Product(RandomFn(depth - 1), RandomFn(depth - 1));
      case 3:
        return ConstFn(RandomObjectTerm());
      case 4:
        return CurryFn(RandomFn(depth - 1), RandomObjectTerm());
      case 5:
        return Cond(RandomPred(depth - 1), RandomFn(depth - 1),
                    RandomFn(depth - 1));
      case 6:
        return Iterate(RandomPred(depth - 1), RandomFn(depth - 1));
      case 7:
        return Iter(RandomPred(depth - 1), RandomFn(depth - 1));
      case 8:
        return Join(RandomPred(depth - 1), RandomFn(depth - 1));
      case 9:
        return Nest(RandomFn(depth - 1), RandomFn(depth - 1));
      default:
        return Unnest(RandomFn(depth - 1), RandomFn(depth - 1));
    }
  }

  TermPtr RandomPred(int depth) {
    if (depth <= 0 || rng_.Chance(0.3)) {
      return PrimPred(kPredNames[rng_.Index(std::size(kPredNames))]);
    }
    switch (rng_.Index(7)) {
      case 0:
        return Oplus(RandomPred(depth - 1), RandomFn(depth - 1));
      case 1:
        return AndP(RandomPred(depth - 1), RandomPred(depth - 1));
      case 2:
        return OrP(RandomPred(depth - 1), RandomPred(depth - 1));
      case 3:
        return InvP(RandomPred(depth - 1));
      case 4:
        return NotP(RandomPred(depth - 1));
      case 5:
        return ConstPred(BoolConst(rng_.Chance(0.5)));
      default:
        return CurryPred(RandomPred(depth - 1), RandomObjectTerm());
    }
  }

  /// join(eq|in @ (f x g), h) or nest(pi1, pi2): the shapes the physical
  /// fast paths recognize.
  TermPtr FastPathShape(int depth) {
    if (rng_.Chance(0.25)) return Nest(Pi1(), Pi2());
    return Join(Oplus(rng_.Chance(0.5) ? EqP() : InP(),
                      Product(RandomFn(depth - 1), RandomFn(depth - 1))),
                RandomFn(depth - 1));
  }

  /// [A, B] for two random collections.
  Value CollectionPair() {
    return Value::MakePair(RandomCollection(), RandomCollection());
  }

  Rng& rng() { return rng_; }

 private:
  Value RandomCollection(int depth = 1) {
    std::vector<Value> elements;
    const int64_t n = rng_.Uniform(0, 3);
    for (int64_t i = 0; i < n; ++i) elements.push_back(RandomValue(depth));
    return rng_.Chance(0.7) ? Value::MakeSet(std::move(elements))
                            : Value::MakeBag(std::move(elements));
  }

  Value RandomObject() {
    if (rng_.Chance(0.1)) {
      // A reference past the end of a class, or into no class at all.
      return rng_.Chance(0.5) ? Value::Object(0, 9'999)
                              : Value::Object(42, 0);
    }
    const char* extent = kExtents[rng_.Index(3)];
    Value members = db_->Extent(extent).value();
    return members.elements()[rng_.Index(members.SetSize())];
  }

  TermPtr RandomObjectTerm() {
    if (rng_.Chance(0.2)) {
      return Collection(kExtents[rng_.Index(std::size(kExtents))]);
    }
    return Lit(RandomValue(1));
  }

  const Database* db_;
  Rng rng_;
};

// ---------------------------------------------------------------------------
// The corpus.
// ---------------------------------------------------------------------------

TEST_F(EvalGoldenTest, CorpusInputsAndPlans) {
  for (const NamedQuery& q : CarCorpus()) {
    PinInputAndPlan("car/" + q.name, car_.get(), q.query);
  }
  for (const NamedQuery& q : CompanyCorpus()) {
    PinInputAndPlan("company/" + q.name, company_.get(), q.query);
  }
  ExpectDigests(digests_, records_, {
      {"car/K3/input/fast", 0xdc97e2acf3c9b820ULL},
      {"car/K3/input/naive", 0xdc97e2acf3c9b820ULL},
      {"car/K3/plan/fast", 0xdc97e2acf3c9b820ULL},
      {"car/K3/plan/naive", 0xdc97e2acf3c9b820ULL},
      {"car/K4/input/fast", 0xe24e519c515eb058ULL},
      {"car/K4/input/naive", 0xe24e519c515eb058ULL},
      {"car/K4/plan/fast", 0x83eb9cf92cca514bULL},
      {"car/K4/plan/naive", 0x83eb9cf92cca514bULL},
      {"car/KG1/input/fast", 0xc5015250068242c8ULL},
      {"car/KG1/input/naive", 0xc5015250068242c8ULL},
      {"car/KG1/plan/fast", 0x05ebe66f88c7c01fULL},
      {"car/KG1/plan/naive", 0x3a1854eb1b4aa65bULL},
      {"car/conditional/input/fast", 0xf86e9a4e65d230b8ULL},
      {"car/conditional/input/naive", 0xf86e9a4e65d230b8ULL},
      {"car/conditional/plan/fast", 0x4e116dedf87d8bf2ULL},
      {"car/conditional/plan/naive", 0x4e116dedf87d8bf2ULL},
      {"car/dependent-binding/input/fast", 0x4730394c944241f0ULL},
      {"car/dependent-binding/input/naive", 0x4730394c944241f0ULL},
      {"car/dependent-binding/plan/fast", 0x50cf9f077e83a58aULL},
      {"car/dependent-binding/plan/naive", 0x50cf9f077e83a58aULL},
      {"car/disjunction/input/fast", 0xe4f0fb1e08326f71ULL},
      {"car/disjunction/input/naive", 0xe4f0fb1e08326f71ULL},
      {"car/disjunction/plan/fast", 0x1ef3190b6e22d020ULL},
      {"car/disjunction/plan/naive", 0x1ef3190b6e22d020ULL},
      {"car/explicit-join/input/fast", 0xd2537b53402e37b4ULL},
      {"car/explicit-join/input/naive", 0xd2537b53402e37b4ULL},
      {"car/explicit-join/plan/fast", 0x3f61096ae6f72df6ULL},
      {"car/explicit-join/plan/naive", 0x237a11e3f3f12c61ULL},
      {"car/filter-project/input/fast", 0x94db3a4fbcfe0587ULL},
      {"car/filter-project/input/naive", 0x94db3a4fbcfe0587ULL},
      {"car/filter-project/plan/fast", 0xcf15a66103559818ULL},
      {"car/filter-project/plan/naive", 0xcf15a66103559818ULL},
      {"car/filter/input/fast", 0xdf83b552f3285756ULL},
      {"car/filter/input/naive", 0xdf83b552f3285756ULL},
      {"car/filter/plan/fast", 0x703b0cdd82b16fecULL},
      {"car/filter/plan/naive", 0x703b0cdd82b16fecULL},
      {"car/flatten-children/input/fast", 0xe7606a7a4ea9a0b8ULL},
      {"car/flatten-children/input/naive", 0xe7606a7a4ea9a0b8ULL},
      {"car/flatten-children/plan/fast", 0x593ea985051c51bbULL},
      {"car/flatten-children/plan/naive", 0x593ea985051c51bbULL},
      {"car/garage-hidden-join/input/fast", 0xc5015250068242c8ULL},
      {"car/garage-hidden-join/input/naive", 0xc5015250068242c8ULL},
      {"car/garage-hidden-join/plan/fast", 0x05ebe66f88c7c01fULL},
      {"car/garage-hidden-join/plan/naive", 0x3a1854eb1b4aa65bULL},
      {"car/garages/input/fast", 0xd17193b234539f71ULL},
      {"car/garages/input/naive", 0xd17193b234539f71ULL},
      {"car/garages/plan/fast", 0xe641ecedcf263126ULL},
      {"car/garages/plan/naive", 0xe641ecedcf263126ULL},
      {"car/hidden-join-2/input/fast", 0x98cdec4c20fe45c5ULL},
      {"car/hidden-join-2/input/naive", 0x98cdec4c20fe45c5ULL},
      {"car/hidden-join-2/plan/fast", 0x04a2f2bf2a58c168ULL},
      {"car/hidden-join-2/plan/naive", 0x5a7693544cefddc7ULL},
      {"car/hidden-join-3/input/fast", 0x231c6b3e36fb2832ULL},
      {"car/hidden-join-3/input/naive", 0x231c6b3e36fb2832ULL},
      {"car/hidden-join-3/plan/fast", 0x6c5c87c41585fc5eULL},
      {"car/hidden-join-3/plan/naive", 0x23561043923a7b2fULL},
      {"car/hidden-join-4/input/fast", 0xa3324413d0fca6ecULL},
      {"car/hidden-join-4/input/naive", 0xa3324413d0fca6ecULL},
      {"car/hidden-join-4/plan/fast", 0x667a5741fd0a17f3ULL},
      {"car/hidden-join-4/plan/naive", 0x49fecd8912f2c79eULL},
      {"car/hidden-join-5/input/fast", 0x8d2bc4ad8179284cULL},
      {"car/hidden-join-5/input/naive", 0x8d2bc4ad8179284cULL},
      {"car/hidden-join-5/plan/fast", 0xcd644e8f2dac1366ULL},
      {"car/hidden-join-5/plan/naive", 0xd26d39416ddd825eULL},
      {"car/hidden-join-6/input/fast", 0xe34bfc417f4856eaULL},
      {"car/hidden-join-6/input/naive", 0xe34bfc417f4856eaULL},
      {"car/hidden-join-6/plan/fast", 0x0df8140e65ac894cULL},
      {"car/hidden-join-6/plan/naive", 0xf37f68d8df39e593ULL},
      {"car/membership-const/input/fast", 0xc39dfb43ddaa92a7ULL},
      {"car/membership-const/input/naive", 0xc39dfb43ddaa92a7ULL},
      {"car/membership-const/plan/fast", 0x83bf772bd9baf71cULL},
      {"car/membership-const/plan/naive", 0x83bf772bd9baf71cULL},
      {"car/negation/input/fast", 0xa5367ecd4c03d614ULL},
      {"car/negation/input/naive", 0xa5367ecd4c03d614ULL},
      {"car/negation/plan/fast", 0x43263372faf0ee69ULL},
      {"car/negation/plan/naive", 0x43263372faf0ee69ULL},
      {"car/nested-a3/input/fast", 0xdc97e2acf3c9b820ULL},
      {"car/nested-a3/input/naive", 0xdc97e2acf3c9b820ULL},
      {"car/nested-a3/plan/fast", 0xdc97e2acf3c9b820ULL},
      {"car/nested-a3/plan/naive", 0xdc97e2acf3c9b820ULL},
      {"car/nested-a4-code-motion/input/fast", 0xe24e519c515eb058ULL},
      {"car/nested-a4-code-motion/input/naive", 0xe24e519c515eb058ULL},
      {"car/nested-a4-code-motion/plan/fast", 0x83eb9cf92cca514bULL},
      {"car/nested-a4-code-motion/plan/naive", 0x83eb9cf92cca514bULL},
      {"car/ownership-join/input/fast", 0x93d514d3d9b74650ULL},
      {"car/ownership-join/input/naive", 0x93d514d3d9b74650ULL},
      {"car/ownership-join/plan/fast", 0xefcd6664226fcbaaULL},
      {"car/ownership-join/plan/naive", 0xefcd6664226fcbaaULL},
      {"car/project-then-filter/input/fast", 0xd5ae05ea01b3834bULL},
      {"car/project-then-filter/input/naive", 0xd5ae05ea01b3834bULL},
      {"car/project-then-filter/plan/fast", 0xb6dbd6de0db167a0ULL},
      {"car/project-then-filter/plan/naive", 0xb6dbd6de0db167a0ULL},
      {"car/project/input/fast", 0x12152b8edbfde14eULL},
      {"car/project/input/naive", 0x12152b8edbfde14eULL},
      {"car/project/plan/fast", 0x12152b8edbfde14eULL},
      {"car/project/plan/naive", 0x12152b8edbfde14eULL},
      {"car/scan/input/fast", 0x88d9cd16a1848571ULL},
      {"car/scan/input/naive", 0x88d9cd16a1848571ULL},
      {"car/scan/plan/fast", 0x88d9cd16a1848571ULL},
      {"car/scan/plan/naive", 0x88d9cd16a1848571ULL},
      {"car/self-join/input/fast", 0x1e3bc87dbaafeb04ULL},
      {"car/self-join/input/naive", 0x1e3bc87dbaafeb04ULL},
      {"car/self-join/plan/fast", 0x04d5805c6ce8ae4eULL},
      {"car/self-join/plan/naive", 0x04d5805c6ce8ae4eULL},
      {"car/triple-nest/input/fast", 0xa4ff3db156294462ULL},
      {"car/triple-nest/input/naive", 0xa4ff3db156294462ULL},
      {"car/triple-nest/plan/fast", 0xa4ff3db156294462ULL},
      {"car/triple-nest/plan/naive", 0xa4ff3db156294462ULL},
      {"car/two-pass-map/input/fast", 0x0c3146c29e063aafULL},
      {"car/two-pass-map/input/naive", 0x0c3146c29e063aafULL},
      {"car/two-pass-map/plan/fast", 0x12152b8edbfde14eULL},
      {"car/two-pass-map/plan/naive", 0x12152b8edbfde14eULL},
      {"company/company-filter/input/fast", 0xbd0b47df8255be80ULL},
      {"company/company-filter/input/naive", 0xbd0b47df8255be80ULL},
      {"company/company-filter/plan/fast", 0x1cfa1a14b482d842ULL},
      {"company/company-filter/plan/naive", 0x1cfa1a14b482d842ULL},
      {"company/company-hidden-join/input/fast", 0xf3d4cbe641719188ULL},
      {"company/company-hidden-join/input/naive", 0xf3d4cbe641719188ULL},
      {"company/company-hidden-join/plan/fast", 0xf3d4cbe641719188ULL},
      {"company/company-hidden-join/plan/naive", 0xf3d4cbe641719188ULL},
      {"company/company-join/input/fast", 0x898c657ff2187a94ULL},
      {"company/company-join/input/naive", 0x898c657ff2187a94ULL},
      {"company/company-join/plan/fast", 0xd0cbea3c50d4a693ULL},
      {"company/company-join/plan/naive", 0xd0cbea3c50d4a693ULL},
      {"company/company-members/input/fast", 0xc171a0d6fe45c478ULL},
      {"company/company-members/input/naive", 0xc171a0d6fe45c478ULL},
      {"company/company-members/plan/fast", 0xe792c5eb6b7d1c59ULL},
      {"company/company-members/plan/naive", 0xe792c5eb6b7d1c59ULL},
      {"company/company-project/input/fast", 0xbb5add0b3c3ee6f8ULL},
      {"company/company-project/input/naive", 0xbb5add0b3c3ee6f8ULL},
      {"company/company-project/plan/fast", 0xbb5add0b3c3ee6f8ULL},
      {"company/company-project/plan/naive", 0xbb5add0b3c3ee6f8ULL},
  });
}

TEST_F(EvalGoldenTest, GovernedEvaluationsStopAtTheSamePoint) {
  // A byte cap, a governor step budget and the evaluator's own max_steps
  // each stop evaluation part-way; the digests pin where.
  std::vector<NamedQuery> queries;
  for (const NamedQuery& q : CarCorpus()) {
    if (q.name == "self-join" || q.name == "ownership-join" ||
        q.name == "KG1" || q.name == "K3" || q.name == "hidden-join-3") {
      queries.push_back(q);
    }
  }
  ASSERT_EQ(queries.size(), 5u);
  Optimizer optimizer(&properties_, car_.get());
  for (const NamedQuery& q : queries) {
    auto plan = optimizer.Optimize(q.query);
    ASSERT_TRUE(plan.ok()) << q.name << ": " << plan.status();
    for (const auto& [form, term] :
         {std::pair<const char*, TermPtr>{"input", q.query},
          std::pair<const char*, TermPtr>{"plan", plan->query}}) {
      const std::string prefix = "car/" + q.name + "/" + form;
      for (int64_t bytes : {640, 4096}) {
        Pin(prefix + "/bytes=" + std::to_string(bytes),
            Evaluation(car_.get(), true, EvalOptions{}.max_steps,
                Governor::Limits{.memory_budget_bytes = bytes})
                .Object(term));
      }
      Pin(prefix + "/governor-steps=150",
          Evaluation(car_.get(), true, EvalOptions{}.max_steps,
              Governor::Limits{.step_budget = 150})
              .Object(term));
      Pin(prefix + "/max-steps=300",
          Evaluation(car_.get(), true, 300).Object(term));
    }
  }
  ExpectDigests(digests_, records_, {
      {"car/K3/input/bytes=4096", 0xdc97e2acf3c9b820ULL},
      {"car/K3/input/bytes=640", 0xf0b0d7fa070f1d78ULL},
      {"car/K3/input/governor-steps=150", 0x3be15cdaae91d4f4ULL},
      {"car/K3/input/max-steps=300", 0xdc97e2acf3c9b820ULL},
      {"car/K3/plan/bytes=4096", 0xdc97e2acf3c9b820ULL},
      {"car/K3/plan/bytes=640", 0xf0b0d7fa070f1d78ULL},
      {"car/K3/plan/governor-steps=150", 0x3be15cdaae91d4f4ULL},
      {"car/K3/plan/max-steps=300", 0xdc97e2acf3c9b820ULL},
      {"car/KG1/input/bytes=4096", 0xc5015250068242c8ULL},
      {"car/KG1/input/bytes=640", 0x04cc9f75a08b891eULL},
      {"car/KG1/input/governor-steps=150", 0x8254a0dad6cc93e1ULL},
      {"car/KG1/input/max-steps=300", 0xdb1519f499b78283ULL},
      {"car/KG1/plan/bytes=4096", 0x05ebe66f88c7c01fULL},
      {"car/KG1/plan/bytes=640", 0x03e36e7216e29a9aULL},
      {"car/KG1/plan/governor-steps=150", 0x05ebe66f88c7c01fULL},
      {"car/KG1/plan/max-steps=300", 0x05ebe66f88c7c01fULL},
      {"car/hidden-join-3/input/bytes=4096", 0xc5343dd435a79856ULL},
      {"car/hidden-join-3/input/bytes=640", 0x47d790be7690ec3bULL},
      {"car/hidden-join-3/input/governor-steps=150", 0x4e06aadab91439e4ULL},
      {"car/hidden-join-3/input/max-steps=300", 0xd88929a11e31b216ULL},
      {"car/hidden-join-3/plan/bytes=4096", 0xfd334b92a6a31219ULL},
      {"car/hidden-join-3/plan/bytes=640", 0xff94bfa45f6b4fdcULL},
      {"car/hidden-join-3/plan/governor-steps=150", 0x3be15cdaae91d4f4ULL},
      {"car/hidden-join-3/plan/max-steps=300", 0x171edfbb7884c70cULL},
      {"car/ownership-join/input/bytes=4096", 0x93d514d3d9b74650ULL},
      {"car/ownership-join/input/bytes=640", 0x093d2ef0475b31f0ULL},
      {"car/ownership-join/input/governor-steps=150", 0x8254a0dad6cc93e1ULL},
      {"car/ownership-join/input/max-steps=300", 0xdb1519f499b78283ULL},
      {"car/ownership-join/plan/bytes=4096", 0xefcd6664226fcbaaULL},
      {"car/ownership-join/plan/bytes=640", 0xb14c5b63e03fe95eULL},
      {"car/ownership-join/plan/governor-steps=150", 0x8254a0dad6cc93e1ULL},
      {"car/ownership-join/plan/max-steps=300", 0xe41350f49ee74da1ULL},
      {"car/self-join/input/bytes=4096", 0x0a8abc49d71a01a4ULL},
      {"car/self-join/input/bytes=640", 0xe8456eca16246d36ULL},
      {"car/self-join/input/governor-steps=150", 0x4e1b22dab925aed6ULL},
      {"car/self-join/input/max-steps=300", 0x205a9abb7de92094ULL},
      {"car/self-join/plan/bytes=4096", 0xc4e6c1411ceaf5f0ULL},
      {"car/self-join/plan/bytes=640", 0xe9e8dd260be33f2dULL},
      {"car/self-join/plan/governor-steps=150", 0x8fe32bdb29656174ULL},
      {"car/self-join/plan/max-steps=300", 0x742020aa0308cd63ULL},
  });
}

// ---------------------------------------------------------------------------
// Random applications.
// ---------------------------------------------------------------------------

TEST_F(EvalGoldenTest, FixedApplicationsCoverEveryErrorText) {
  // One application per failure the evaluator and the database can report,
  // beside a few that succeed, so each text is pinned by name.
  const Value person = car_->Extent("P").value().elements()[0];
  const Value vehicle = car_->Extent("V").value().elements()[0];
  auto set = [](std::vector<int64_t> ints) {
    std::vector<Value> elements;
    for (int64_t i : ints) elements.push_back(Value::Int(i));
    return Value::MakeSet(std::move(elements));
  };
  auto pair = [](Value a, Value b) {
    return Value::MakePair(std::move(a), std::move(b));
  };
  const Value one = Value::Int(1);
  const Value bag = Value::MakeBag({one, one, Value::Int(2)});
  struct Case {
    std::string text;
    bool is_fn;
    Value arg;
  };
  const std::vector<Case> cases = {
      {"pi1", true, one},
      {"pi2", true, Value::Str("x")},
      {"age", true, Value::Object(person.object_class(), 9'999)},
      {"age", true, Value::Object(42, 0)},
      {"city", true, person},
      {"ssn", true, one},
      {"ssn", true, person},
      {"succ", true, Value::Str("x")},
      {"succ", true, one},
      {"age", true, pair(person, person)},
      {"make", true, vehicle},
      {"union", true, one},
      {"union", true, pair(set({1}), one)},
      {"union", true, pair(bag, set({2, 3}))},
      {"intersect", true, pair(one, set({1}))},
      {"intersect", true, pair(bag, set({1, 2}))},
      {"diff", true, pair(bag, set({1}))},
      {"diff", true, pair(set({1, 2}), Value::Str("y"))},
      {"card", true, bag},
      {"card", true, one},
      {"distinct", true, bag},
      {"tobag", true, set({3, 1})},
      {"flat", true, Value::MakeSet({set({1}), set({2, 3})})},
      {"flat", true, set({1})},
      {"flat", true, one},
      {"iter(Kp(T), pi2)", true, one},
      {"iter(Kp(T), pi2)", true, pair(one, Value::Int(2))},
      {"iter(gt, (pi2, pi1))", true, pair(Value::Int(2), set({1, 2, 3}))},
      {"iterate(Kp(T), id)", true, one},
      {"iterate(lt @ (id, Kf(3)), succ)", true, bag},
      {"join(eq @ (id x id), pi1)", true, pair(set({1, 2}), set({2, 3}))},
      {"join(eq @ (id x id), pi1)", true, pair(set({1, 2}), one)},
      {"join(eq @ (id x id), pi1)", true, pair(one, set({1}))},
      {"join(eq @ (id x id), pi1)", true, one},
      {"join(in @ (id x id), id)", true, pair(set({1}), set({1, 2}))},
      {"join(in @ (id x Kf({1, 2})), id)", true, pair(set({1}), set({5}))},
      {"join(gt, (pi2, pi1))", true, pair(bag, set({1}))},
      {"nest(pi1, pi2)", true, pair(set({1, 2}), set({1}))},
      {"nest(pi1, pi2)", true, pair(one, set({1}))},
      {"nest(pi1, pi2)", true,
       pair(Value::MakeSet({pair(one, Value::Str("a")),
                            pair(Value::Int(2), Value::Str("b"))}),
            set({1, 3}))},
      {"nest(id, succ)", true, pair(set({1, 2}), bag)},
      {"unnest(pi1, pi2)", true, Value::MakeSet({pair(one, set({2, 3}))})},
      {"unnest(pi1, pi2)", true, Value::MakeSet({pair(one, one)})},
      {"unnest(id, id)", true, one},
      {"id x id", true, one},
      {"succ x neg", true, pair(one, Value::Int(2))},
      {"(id, succ)", true, one},
      {"Cf(pi2, 5)", true, Value::Int(7)},
      {"Cf(union, {1})", true, set({2})},
      {"Kf(Zz)", true, one},
      {"con(eq, pi1, pi2)", true, pair(one, one)},
      {"con(lt, pi1, pi2)", true, pair(one, Value::Str("s"))},
      {"succ o pi1", true, pair(one, one)},
      {"inv(eq)", false, one},
      {"inv(lt)", false, pair(one, Value::Int(2))},
      {"Cp(lt, 3)", false, Value::Str("x")},
      {"Cp(in, 3)", false, set({3})},
      {"age", false, person},
      {"tall", false, person},
      {"tall", false, one},
      {"in", false, pair(one, Value::Int(2))},
      {"in", false, pair(one, bag)},
      {"eq", false, one},
      {"neq", false, pair(one, Value::Str("1"))},
      {"leq", false, pair(Value::Str("a"), Value::Str("b"))},
      {"geq", false, pair(Value::Str("a"), one)},
      {"gt @ (succ x id)", false, pair(one, one)},
      {"eq @ (id x id)", false, Value::Str("q")},
      {"eq & lt", false, pair(one, one)},
      {"eq | lt", false, pair(one, Value::Int(2))},
      {"not(eq)", false, pair(one, one)},
      {"Kp(F)", false, one},
  };
  std::vector<std::string> records;
  for (const Case& c : cases) {
    auto term = c.is_fn ? ParseFunction(c.text) : ParsePredicate(c.text);
    ASSERT_TRUE(term.ok()) << c.text << ": " << term.status();
    Evaluation run(car_.get(), true, kRandomMaxSteps);
    records.push_back(c.text + " : " + c.arg.ToString() + "\t" +
                      (c.is_fn ? run.Apply(term.value(), c.arg)
                               : run.Holds(term.value(), c.arg)));
  }
  // Terms whose kind does not fit the call, and a pattern variable.
  records.push_back("1 ! 0\t" + Evaluation(car_.get(), true, kRandomMaxSteps)
                                    .Apply(LitInt(1), Value::Int(0)));
  records.push_back("id ? 0\t" + Evaluation(car_.get(), true, kRandomMaxSteps)
                                     .Holds(Id(), Value::Int(0)));
  records.push_back("?f ! 0\t" + Evaluation(car_.get(), true, kRandomMaxSteps)
                                     .Apply(FnVar("f"), Value::Int(0)));
  records.push_back("?p ? 0\t" + Evaluation(car_.get(), true, kRandomMaxSteps)
                                     .Holds(PredVar("p"), Value::Int(0)));
  records.push_back("Kf(?x) ! 0\t" +
                    Evaluation(car_.get(), true, kRandomMaxSteps)
                        .Apply(ConstFn(ObjVar("x")), Value::Int(0)));
  PinChunks("fixed", records);
  ExpectDigests(digests_, records_, {
      {"fixed/00", 0xa161e7eef5d82089ULL},
  });
}

TEST_F(EvalGoldenTest, GeneratedApplications) {
  // Half functions, half predicates; about a third of the arguments are
  // drawn at a different random type than the term was generated for.
  SchemaTypes schema = SchemaTypes::CarWorld();
  Rng rng(0xE7A1);
  TermGenerator gen(&schema, car_.get(), &rng);
  std::vector<std::string> records;
  for (int i = 0; i < 2'000; ++i) {
    const bool ill_typed = rng.Chance(0.35);
    TypePtr from = gen.RandomType(2);
    TypePtr arg_type = ill_typed ? gen.RandomType(2) : from;
    auto arg = gen.RandomValue(arg_type);
    ASSERT_TRUE(arg.ok()) << arg.status();
    std::string text;
    std::string outcome;
    if (i % 2 == 0) {
      auto fn = gen.RandomFn(from, gen.RandomType(2), 3);
      ASSERT_TRUE(fn.ok()) << fn.status();
      text = fn.value()->ToString();
      outcome = Evaluation(car_.get(), rng.Chance(0.8), kRandomMaxSteps)
                    .Apply(fn.value(), arg.value());
    } else {
      auto pred = gen.RandomPred(from, 3);
      ASSERT_TRUE(pred.ok()) << pred.status();
      text = pred.value()->ToString();
      outcome = Evaluation(car_.get(), rng.Chance(0.8), kRandomMaxSteps)
                    .Holds(pred.value(), arg.value());
    }
    records.push_back(text + " : " + arg.value().ToString() + "\t" +
                      outcome);
  }
  PinChunks("generated", records);
  ExpectDigests(digests_, records_, {
      {"generated/00", 0xbb9f8c39bcc0a934ULL},
      {"generated/01", 0xefe5e76b0d9c0344ULL},
      {"generated/02", 0xbf74f5d33e1c000aULL},
      {"generated/03", 0xb8279cc89f5e23c1ULL},
      {"generated/04", 0x2c91c1789d142cadULL},
      {"generated/05", 0x68ca3dd15ddd02d2ULL},
      {"generated/06", 0x270aadf0c12a0a00ULL},
      {"generated/07", 0xd9e57e4277592d82ULL},
      {"generated/08", 0xefe4cbac596c6cf8ULL},
      {"generated/09", 0xe7b44fd2759df947ULL},
      {"generated/10", 0xb0382e9c3d35fa45ULL},
      {"generated/11", 0x42d98862920676daULL},
      {"generated/12", 0x13cfd4a404b588ceULL},
      {"generated/13", 0xbf71ce74262aebbeULL},
      {"generated/14", 0x4583b41d39eb5faeULL},
      {"generated/15", 0xfcaafe0ac36301e3ULL},
      {"generated/16", 0xac3843e214fb6d78ULL},
      {"generated/17", 0x73def5acac095a7dULL},
      {"generated/18", 0xfcc275580b13261cULL},
      {"generated/19", 0xa667450bffdb65e1ULL},
  });
}

TEST_F(EvalGoldenTest, UntypedApplications) {
  UntypedGen gen(car_.get(), 0x0DD5);
  std::vector<std::string> records;
  for (int i = 0; i < 1'000; ++i) {
    Value arg = i % 4 == 3 ? gen.CollectionPair() : gen.RandomValue(2);
    const bool fast = gen.rng().Chance(0.8);
    std::string text;
    std::string outcome;
    if (i % 2 == 0 || i % 4 == 3) {
      TermPtr fn = i % 4 == 3 ? gen.FastPathShape(3) : gen.RandomFn(3);
      text = fn->ToString();
      outcome = Evaluation(car_.get(), fast, kRandomMaxSteps).Apply(fn, arg);
    } else {
      TermPtr pred = gen.RandomPred(3);
      text = pred->ToString();
      outcome = Evaluation(car_.get(), fast, kRandomMaxSteps).Holds(pred, arg);
    }
    records.push_back(text + " : " + arg.ToString() + "\t" + outcome);
  }
  PinChunks("untyped", records);
  ExpectDigests(digests_, records_, {
      {"untyped/00", 0xc5e1427b330fcef9ULL},
      {"untyped/01", 0x6c5d248af5ee6885ULL},
      {"untyped/02", 0xb08999b536e9f87cULL},
      {"untyped/03", 0x4b7b1a591fc6deffULL},
      {"untyped/04", 0x61eef7244477affbULL},
      {"untyped/05", 0xd0cf6b98dbc05f8fULL},
      {"untyped/06", 0x04fbff1fd08718adULL},
      {"untyped/07", 0xe6dfff627c9d1356ULL},
      {"untyped/08", 0x8b541333c35342abULL},
      {"untyped/09", 0x1cb812902d49dd5fULL},
  });
}

TEST_F(EvalGoldenTest, ReusedEvaluatorAgreesWithFreshOnes) {
  // One long-lived Evaluator sees a stream of terms that are freed right
  // after use, so later terms are often allocated where earlier ones (with
  // other primitives) lived. Anything the evaluator remembered about a
  // term by its address would show here as a disagreement with a fresh
  // evaluator.
  UntypedGen gen(car_.get(), 0x5EED);
  Evaluator shared(car_.get(), EvalOptions{.max_steps = kRandomMaxSteps});
  std::vector<std::string> records;
  for (int i = 0; i < 500; ++i) {
    Value arg = gen.RandomValue(2);
    TermPtr term = i % 2 == 0 ? gen.RandomFn(2) : gen.RandomPred(2);
    const int64_t hits_before = shared.fastpath_hits();
    shared.ResetSteps();
    StatusOr<Value> reused = i % 2 == 0
                                 ? shared.Apply(term, arg)
                                 : BoolResult(shared.Holds(term, arg));
    std::string record =
        Record(reused, shared.steps(), shared.fastpath_hits() - hits_before,
               0);
    Evaluator fresh(car_.get(), EvalOptions{.max_steps = kRandomMaxSteps});
    StatusOr<Value> alone = i % 2 == 0 ? fresh.Apply(term, arg)
                                       : BoolResult(fresh.Holds(term, arg));
    ASSERT_EQ(record, Record(alone, fresh.steps(), fresh.fastpath_hits(), 0))
        << term->ToString() << " : " << arg.ToString();
    records.push_back(term->ToString() + " : " + arg.ToString() + "\t" +
                      record);
  }
  PinChunks("reused", records);
  ExpectDigests(digests_, records_, {
      {"reused/00", 0x809087a911b15bd2ULL},
      {"reused/01", 0xab78d5695d07ce03ULL},
      {"reused/02", 0x6fa579fed230f976ULL},
      {"reused/03", 0x0c2837d6ce78d11cULL},
      {"reused/04", 0xb84b093538905d26ULL},
  });
}

}  // namespace
}  // namespace kola
