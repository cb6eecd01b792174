// kolash -- an interactive shell over the whole stack. Type OQL, AQUA or
// KOLA queries against the demo database; inspect translation, the
// optimizer's derivation, costs, and results.
//
//   ./examples/kolash            interactive
//   echo "select p.name from p in P where p.age > 30" | ./examples/kolash
//
// Commands:
//   :mode oql|aqua|kola   input language (default oql)
//   :trace on|off         print the optimizer's rule-by-rule derivation
//   :rules <substring>    list catalog rules matching the substring
//   :verify <rule-id>     randomized soundness check of one catalog rule
//   :schema               show extents and their sizes
//   :stats                compiled rule indexes and per-category memory
//                         charged this session
//   :help                 this text
//   :quit                 exit

#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>

#include "common/fault_injection.h"
#include "eval/evaluator.h"
#include "optimizer/optimizer.h"
#include "rewrite/rule_index.h"
#include "rewrite/verifier.h"
#include "rules/catalog.h"
#include "translate/translate.h"
#include "values/car_world.h"

namespace {

using namespace kola;  // NOLINT: example brevity

void PrintHelp() {
  std::printf(
      "  :mode oql|aqua|kola   input language\n"
      "  :trace on|off         print the optimizer derivation\n"
      "  :rules <substring>    list catalog rules\n"
      "  :verify <rule-id>     randomized soundness check of one rule\n"
      "  :schema               show extents\n"
      "  :stats                rule-index / memory statistics\n"
      "  :help                 this text\n"
      "  :quit                 exit\n");
}

}  // namespace

int main() {
  if (Status faults = LatchFaultInjectionFromEnv(); !faults.ok()) {
    std::fprintf(stderr, "%s\n", faults.ToString().c_str());
    return 1;
  }

  CarWorldOptions options;
  options.num_persons = 20;
  options.num_vehicles = 12;
  options.num_addresses = 8;
  options.seed = 1;
  auto db = BuildCarWorld(options);
  PropertyStore properties = PropertyStore::Default();

  // Session-long accounting governor: no limits (a byte budget of 0 never
  // exhausts), so it is a pure meter -- every compiled rule index,
  // exploration frontier, e-graph and evaluator materialization charges
  // it, and :stats reads the running totals back.
  Governor session_governor{Governor::Limits{}};

  RewriterOptions engine_options = RewriterOptions::Defaults();
  engine_options.governor = &session_governor;
  Optimizer optimizer(&properties, db.get(), engine_options);
  const Catalog& catalog = Catalog::Get();

  QueryLanguage language = QueryLanguage::kOql;
  bool trace = false;
  bool tty = true;

  std::printf("kolash -- KOLA interactive shell (:help for commands)\n");
  std::string line;
  while (true) {
    if (tty) std::printf("kola> ");
    if (!std::getline(std::cin, line)) break;
    // Trim.
    size_t begin = line.find_first_not_of(" \t");
    if (begin == std::string::npos) continue;
    size_t end = line.find_last_not_of(" \t");
    line = line.substr(begin, end - begin + 1);
    if (line.empty()) continue;

    if (line[0] == ':') {
      std::istringstream args(line.substr(1));
      std::string command, argument;
      args >> command;
      std::getline(args, argument);
      if (!argument.empty() && argument[0] == ' ') argument.erase(0, 1);
      if (command == "quit" || command == "q") break;
      if (command == "help") {
        PrintHelp();
      } else if (command == "mode") {
        auto parsed = ParseQueryLanguage(argument);
        if (parsed.ok()) {
          language = parsed.value();
        } else {
          std::printf("error: %s\n", parsed.status().ToString().c_str());
        }
      } else if (command == "trace") {
        trace = argument != "off";
      } else if (command == "schema") {
        for (const std::string& name : db->ExtentNames()) {
          auto extent = db->Extent(name);
          std::printf("  %-6s %zu elements\n", name.c_str(),
                      extent.ok() ? extent->SetSize() : 0);
        }
      } else if (command == "stats") {
        const RuleIndexCacheStats indexes = GetRuleIndexCacheStats();
        std::printf("  rule indexes:    %zu compiled, %lld bytes, "
                    "%llu hits / %llu misses\n",
                    indexes.indexes, static_cast<long long>(indexes.bytes),
                    static_cast<unsigned long long>(indexes.hits),
                    static_cast<unsigned long long>(indexes.misses));
        const MemoryBudget& memory = session_governor.memory();
        std::printf("  memory charged:  %lld bytes live, %lld peak\n",
                    static_cast<long long>(memory.total_charged()),
                    static_cast<long long>(memory.peak_bytes()));
        for (int c = 0; c < kNumMemoryCategories; ++c) {
          auto category = static_cast<MemoryCategory>(c);
          std::printf("    %-17s %lld bytes\n",
                      MemoryCategoryName(category),
                      static_cast<long long>(memory.charged(category)));
        }
      } else if (command == "rules") {
        int shown = 0;
        for (const Rule& rule : catalog.rules()) {
          if (argument.empty() ||
              rule.ToString().find(argument) != std::string::npos) {
            std::printf("  %s\n", rule.ToString().c_str());
            ++shown;
          }
        }
        std::printf("  (%d rules)\n", shown);
      } else if (command == "verify") {
        // User-typed rule id: an unknown id must report, never abort.
        const Rule* rule = catalog.Find(argument);
        if (rule == nullptr) {
          std::printf("error: no rule with id '%s'\n", argument.c_str());
          continue;
        }
        SchemaTypes schema = SchemaTypes::CarWorld();
        VerifyOptions verify_options;
        verify_options.trials = 200;
        auto outcome = VerifyRule(*rule, *db, schema, verify_options);
        if (!outcome.ok()) {
          std::printf("error: %s\n", outcome.status().ToString().c_str());
          continue;
        }
        std::printf("%s: %s\n", argument.c_str(),
                    outcome->Summary().c_str());
        if (!outcome->counterexample.empty()) {
          std::printf("  counterexample: %s\n",
                      outcome->counterexample.c_str());
        }
      } else {
        std::printf("unknown command :%s (:help)\n", command.c_str());
      }
      continue;
    }

    auto query = ParseQueryText(language, line);
    if (!query.ok()) {
      std::printf("error: %s\n", query.status().ToString().c_str());
      continue;
    }
    std::printf("kola:      %s\n", query.value()->ToString().c_str());

    auto plan = optimizer.Optimize(query.value());
    if (!plan.ok()) {
      std::printf("optimizer error: %s\n",
                  plan.status().ToString().c_str());
      continue;
    }
    if (plan->degradation.degraded) {
      std::printf("degraded:  %s\n", plan->degradation.ToString().c_str());
    }
    if (!Term::Equal(plan->query, query.value())) {
      std::printf("optimized: %s\n", plan->query->ToString().c_str());
      std::printf("cost:      %.0f -> %.0f\n", plan->cost_before,
                  plan->cost_after);
    }
    if (trace && !plan->trace.steps.empty()) {
      std::printf("%s", plan->trace.ToString().c_str());
    }

    Evaluator evaluator(db.get(),
                        EvalOptions{.governor = &session_governor});
    auto value = evaluator.EvalObject(plan->query);
    if (!value.ok()) {
      std::printf("evaluation error: %s\n",
                  value.status().ToString().c_str());
      continue;
    }
    std::printf("result:    %s\n", value.value().ToString().c_str());
    std::printf("           (%lld evaluator steps)\n",
                static_cast<long long>(evaluator.steps()));
  }
  return 0;
}
