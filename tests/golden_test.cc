// Golden optimizer signatures: one StableStringHash digest per (world,
// query, configuration) case over everything Optimize reports -- the plan,
// the rewritten candidate, the applied blocks, the full derivation trace,
// the kept flag, both cost estimates printed with %.17g, the degradation
// and, for governed cases, the governor's peak bytes. Any change to which
// rules fire, in what order, at which positions, or to how a byte budget
// is charged changes a digest. A mismatch prints the replacement table
// line.

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "aqua/parser.h"
#include "common/governor.h"
#include "e2e_corpus.h"
#include "oql/oql.h"
#include "optimizer/code_motion.h"
#include "optimizer/hidden_join.h"
#include "optimizer/optimizer.h"
#include "term/term.h"
#include "translate/translate.h"
#include "values/car_world.h"
#include "values/company_world.h"

namespace kola {
namespace {

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

/// The shared corpus: the e2e OQL/AQUA queries, the paper's KG1, K3 and
/// K4, and hidden joins of depth 2-6.
std::vector<NamedQuery> SharedCorpus() {
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

/// Company-schema queries (company_test's corpus and its hidden join).
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

std::string Signature(const OptimizeResult& result, const Governor* governor) {
  std::string out = result.query->ToString() + "\n" +
                    result.rewritten->ToString() + "\n";
  for (const std::string& block : result.applied_blocks) out += block + ",";
  out += "\n" + result.trace.ToString();
  char tail[128];
  std::snprintf(tail, sizeof(tail), "%d %.17g %.17g\n",
                result.kept_rewrite ? 1 : 0, result.cost_before,
                result.cost_after);
  out += tail + result.degradation.ToString();
  if (governor != nullptr) {
    out += "\npeak " + std::to_string(governor->memory().peak_bytes());
  }
  return out;
}

class GoldenTest : public ::testing::Test {
 protected:
  GoldenTest() : properties_(PropertyStore::Default()) {
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

  /// Optimizes `query` (under a fresh governor with `budget` bytes when
  /// budget >= 0) and records its digest under `name`.
  void Record(const std::string& name, const Database* db,
              const RewriterOptions& options, const TermPtr& query,
              int64_t budget = -1) {
    ASSERT_NE(query, nullptr) << name;
    Optimizer optimizer(&properties_, db, options);
    std::unique_ptr<Governor> governor;
    if (budget >= 0) {
      governor = std::make_unique<Governor>(
          Governor::Limits{.memory_budget_bytes = budget});
    }
    auto result = optimizer.Optimize(query, governor.get());
    ASSERT_TRUE(result.ok()) << name << ": " << result.status();
    digests_[name] = StableStringHash(Signature(*result, governor.get()));
  }

  void ExpectDigests(const std::map<std::string, uint64_t>& golden) {
    for (const auto& [name, digest] : digests_) {
      auto it = golden.find(name);
      char line[160];
      std::snprintf(line, sizeof(line), "{\"%s\", 0x%016llxULL},",
                    name.c_str(), static_cast<unsigned long long>(digest));
      if (it == golden.end()) {
        ADD_FAILURE() << "no golden digest for " << name << "\n" << line;
      } else {
        EXPECT_EQ(it->second, digest) << name << "\n" << line;
      }
    }
    EXPECT_EQ(digests_.size(), golden.size());
  }

  PropertyStore properties_;
  std::unique_ptr<Database> car_;
  std::unique_ptr<Database> company_;
  std::map<std::string, uint64_t> digests_;
};

RewriterOptions Greedy() {
  RewriterOptions options;
  options.use_egraph = false;
  return options;
}

TEST_F(GoldenTest, GreedyPipelineOnCarAndCompanyWorlds) {
  for (const NamedQuery& q : SharedCorpus()) {
    Record("car/" + q.name, car_.get(), Greedy(), q.query);
    Record("company/" + q.name, company_.get(), Greedy(), q.query);
  }
  for (const NamedQuery& q : CompanyCorpus()) {
    Record("company/" + q.name, company_.get(), Greedy(), q.query);
  }
  ExpectDigests({
      {"car/K3", 0x6303ba0241d2d623ULL},
      {"car/K4", 0xf1943aa923bae3a3ULL},
      {"car/KG1", 0x9b0ae34b05940c2fULL},
      {"car/conditional", 0xa37bccfe90c312d5ULL},
      {"car/dependent-binding", 0x03deeb8ab61da759ULL},
      {"car/disjunction", 0x4ef5dc8e8e13847fULL},
      {"car/explicit-join", 0x6e4ae1c16c8950a1ULL},
      {"car/filter", 0xa3a5ba0a12a3176dULL},
      {"car/filter-project", 0xee470dac2f665b70ULL},
      {"car/flatten-children", 0xbfd30ee6a5942e1eULL},
      {"car/garage-hidden-join", 0x9b0ae34b05940c2fULL},
      {"car/garages", 0x6dc62d8d79e8d858ULL},
      {"car/hidden-join-2", 0xdfc38bb95ccd8e1cULL},
      {"car/hidden-join-3", 0x3140a875aa43ede8ULL},
      {"car/hidden-join-4", 0x73d0bab070902530ULL},
      {"car/hidden-join-5", 0x507e29e44c9c6044ULL},
      {"car/hidden-join-6", 0x205393225b8b7806ULL},
      {"car/membership-const", 0x867597164d9d804bULL},
      {"car/negation", 0xa052df09509e14dfULL},
      {"car/nested-a3", 0x6303ba0241d2d623ULL},
      {"car/nested-a4-code-motion", 0xf1943aa923bae3a3ULL},
      {"car/ownership-join", 0xeb10374cb84f221cULL},
      {"car/project", 0x1ea3a99a09f0e179ULL},
      {"car/project-then-filter", 0x34113d8ce4c14fdeULL},
      {"car/scan", 0x0878c0a9b8009f66ULL},
      {"car/self-join", 0xdb3820c117142faaULL},
      {"car/triple-nest", 0x03256fa52ad94050ULL},
      {"car/two-pass-map", 0x922d652d3e0cc46aULL},
      {"company/K3", 0xc6cfa41cb977499cULL},
      {"company/K4", 0x1d9ca3d62f4ae99cULL},
      {"company/KG1", 0x5ab22314365928c5ULL},
      {"company/company-filter", 0x7bb444dc7de7e720ULL},
      {"company/company-hidden-join", 0xccb6b0f8f9052942ULL},
      {"company/company-join", 0x921c64646d658388ULL},
      {"company/company-members", 0xc3e4e4363095e38dULL},
      {"company/company-project", 0xbcba0e175a4eb5ebULL},
      {"company/conditional", 0x5bb783d32e31f8b3ULL},
      {"company/dependent-binding", 0x795a2b2d08da7562ULL},
      {"company/disjunction", 0xb54b5b7b10351fcfULL},
      {"company/explicit-join", 0xad9c5888c23b0e8aULL},
      {"company/filter", 0x3d6ad3930580173fULL},
      {"company/filter-project", 0x48929890de0e2334ULL},
      {"company/flatten-children", 0x92726c4853be5f0cULL},
      {"company/garage-hidden-join", 0x5ab22314365928c5ULL},
      {"company/garages", 0x5c2cd4cb9039d340ULL},
      {"company/hidden-join-2", 0x5a4bb4f2bd6f9552ULL},
      {"company/hidden-join-3", 0x67c8e84d5ae4ddafULL},
      {"company/hidden-join-4", 0xeb0af9e6a0af9523ULL},
      {"company/hidden-join-5", 0x1f1e277c0e7b27e8ULL},
      {"company/hidden-join-6", 0x49acc1822399c4e9ULL},
      {"company/membership-const", 0xf8283ebb7a9171faULL},
      {"company/negation", 0xb07041761ddbb6a1ULL},
      {"company/nested-a3", 0xc6cfa41cb977499cULL},
      {"company/nested-a4-code-motion", 0x1d9ca3d62f4ae99cULL},
      {"company/ownership-join", 0x5b6ac111a56c3ce2ULL},
      {"company/project", 0x6128f2d9485dc3f7ULL},
      {"company/project-then-filter", 0xe55e1c720be4b423ULL},
      {"company/scan", 0x0878c0a9b8009f66ULL},
      {"company/self-join", 0x90bf6f4134ee64bbULL},
      {"company/triple-nest", 0x70f1d5f94a55812cULL},
      {"company/two-pass-map", 0x847f594432434ec0ULL},
  });
}

TEST_F(GoldenTest, ByteBudgetsDegradeAtTheSamePoint) {
  // Each budget stops the pass somewhere different; the digest pins where
  // (phase, steps), what survived, and the governor's peak bytes.
  std::vector<NamedQuery> queries = {{"KG1", GarageQueryKG1()},
                                     {"K4", QueryK4()}};
  auto depth4 = MakeHiddenJoinQuery(4);
  ASSERT_TRUE(depth4.ok());
  queries.push_back({"hidden-join-4", depth4.value()});
  for (const NamedQuery& q : queries) {
    for (int64_t budget : {0, 256, 1024, 2048, 4096, 8192, 16384, 65536}) {
      Record("car/" + q.name + "/bytes=" + std::to_string(budget),
             car_.get(), Greedy(), q.query, budget);
    }
  }
  ExpectDigests({
      {"car/K4/bytes=0", 0xe01ab8fb4de0e44dULL},
      {"car/K4/bytes=1024", 0x9cc05c77851fdc8eULL},
      {"car/K4/bytes=16384", 0xe01ab8fb4de0e44dULL},
      {"car/K4/bytes=2048", 0xff3f1b3acdf8a147ULL},
      {"car/K4/bytes=256", 0xbfb4105a2dd2fe3eULL},
      {"car/K4/bytes=4096", 0x993abbac4e87c710ULL},
      {"car/K4/bytes=65536", 0xe01ab8fb4de0e44dULL},
      {"car/K4/bytes=8192", 0xd457f4521aeb074eULL},
      {"car/KG1/bytes=0", 0x1cdc19d45acd16aaULL},
      {"car/KG1/bytes=1024", 0x68da018148953589ULL},
      {"car/KG1/bytes=16384", 0x1cdc19d45acd16aaULL},
      {"car/KG1/bytes=2048", 0x003421a28d873268ULL},
      {"car/KG1/bytes=256", 0x198e1f3d74dc40efULL},
      {"car/KG1/bytes=4096", 0xb0de1e2b003f7283ULL},
      {"car/KG1/bytes=65536", 0x1cdc19d45acd16aaULL},
      {"car/KG1/bytes=8192", 0xec2192d4feed763dULL},
      {"car/hidden-join-4/bytes=0", 0x771facd0bde56050ULL},
      {"car/hidden-join-4/bytes=1024", 0x404a396a147ba2aaULL},
      {"car/hidden-join-4/bytes=16384", 0x771facd0bde56050ULL},
      {"car/hidden-join-4/bytes=2048", 0x0b72ff57a20ef453ULL},
      {"car/hidden-join-4/bytes=256", 0x9e93ac1de58abcfaULL},
      {"car/hidden-join-4/bytes=4096", 0xe4591df5916792faULL},
      {"car/hidden-join-4/bytes=65536", 0x771facd0bde56050ULL},
      {"car/hidden-join-4/bytes=8192", 0x96cb673387d826deULL},
  });
}

TEST_F(GoldenTest, EGraphPhase) {
  RewriterOptions options = Greedy();
  options.use_egraph = true;
  options.egraph_max_nodes = 256;
  auto depth3 = MakeHiddenJoinQuery(3);
  ASSERT_TRUE(depth3.ok());
  for (const NamedQuery& q : std::vector<NamedQuery>{
           {"KG1", GarageQueryKG1()},
           {"K4", QueryK4()},
           {"hidden-join-3", depth3.value()}}) {
    Record("car/egraph/" + q.name, car_.get(), options, q.query);
    for (int64_t budget : {4096, 65536}) {
      Record("car/egraph/" + q.name + "/bytes=" + std::to_string(budget),
             car_.get(), options, q.query, budget);
    }
  }
  ExpectDigests({
      {"car/egraph/K4", 0xf1943aa923bae3a3ULL},
      {"car/egraph/K4/bytes=4096", 0x993abbac4e87c710ULL},
      {"car/egraph/K4/bytes=65536", 0x749ba1f396f60170ULL},
      {"car/egraph/KG1", 0x3d51f933fe89badbULL},
      {"car/egraph/KG1/bytes=4096", 0xb0de1e2b003f7283ULL},
      {"car/egraph/KG1/bytes=65536", 0x1f22ed826e0c754fULL},
      {"car/egraph/hidden-join-3", 0xbeaf29efa851650cULL},
      {"car/egraph/hidden-join-3/bytes=4096", 0xebeb02720c03585aULL},
      {"car/egraph/hidden-join-3/bytes=65536", 0x043de127a0ab91ddULL},
  });
}

}  // namespace
}  // namespace kola
