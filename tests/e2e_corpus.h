// The end-to-end OQL/AQUA query corpus: e2e_test checks each query's
// semantics and cost through the full pipeline, and optimizer_test drives
// the whole corpus through one Optimizer shared by several threads.

#ifndef KOLA_TESTS_E2E_CORPUS_H_
#define KOLA_TESTS_E2E_CORPUS_H_

namespace kola {

struct E2eWorkload {
  const char* name;
  const char* text;
  bool is_oql;
};

inline constexpr E2eWorkload kE2eWorkloads[] = {
    {"scan", "select p from p in P", true},
    {"project", "select p.addr.city from p in P", true},
    {"filter", "select p from p in P where p.age > 30", true},
    {"filter-project",
     "select p.name from p in P where p.age > 18 and p.age < 65", true},
    {"project-then-filter",
     "app(\\x. x.age)(sel(\\p. p.age > 25)(P))", false},
    {"two-pass-map",
     "app(\\a. a.city)(app(\\p. p.addr)(P))", false},
    {"self-join",
     "select [a.name, b.name] from a in P, b in P where a.age > b.age",
     true},
    {"ownership-join",
     "select [v.make, p.name] from v in V, p in P where v in p.cars", true},
    {"dependent-binding",
     "select c.age from p in P, c in p.child where p.age > c.age", true},
    {"nested-a3",
     "app(\\p. [p, sel(\\c. c.age > 25)(p.child)])(P)", false},
    {"nested-a4-code-motion",
     "app(\\p. [p, sel(\\c. p.age > 25)(p.child)])(P)", false},
    {"garage-hidden-join",
     "app(\\v. [v, flatten(app(\\p. p.grgs)(sel(\\p. v in p.cars)(P)))])"
     "(V)",
     false},
    {"flatten-children", "select c from p in P, c in p.child", true},
    {"triple-nest",
     "app(\\p. app(\\c. app(\\g. [p.age, [c.age, g.age]])(c.child))"
     "(p.child))(P)",
     false},
    {"conditional",
     "app(\\p. if p.age > 40 then [p, p.cars] else [p, {}])(P)", false},
    {"explicit-join",
     "join(\\a b. a in b.cars, \\a b. [a, b.grgs])(V, P)", false},
    {"membership-const",
     "select p.name from p in P where p.age in {20, 30, 40, 50}", true},
    {"disjunction",
     "select p from p in P where p.age < 10 or p.age > 80", true},
    {"negation", "select p from p in P where not p.age > 50", true},
    {"garages", "select a.city from p in P, a in p.grgs", true},
};

}  // namespace kola

#endif  // KOLA_TESTS_E2E_CORPUS_H_
