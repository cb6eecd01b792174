#include "corpus.h"

#include <algorithm>
#include <numeric>

#include "optimizer/hidden_join.h"

namespace kolabench {

namespace {

struct Band {
  int64_t lo;
  int64_t hi;
  int64_t step;
};

// Ages in the car worlds are 1..90; salaries in the company world are
// 30,000..200,000.
Band BandOf(Slot slot) {
  switch (slot) {
    case Slot::kAge:
      return {1, 90, 1};
    case Slot::kSalary:
      return {30'000, 200'000, 1'000};
  }
  return {0, 0, 1};
}

Template Make(std::string name, Lang lang, WorldKind world, std::string text,
              std::vector<Slot> slots = {},
              std::vector<int64_t> canonical = {}) {
  return Template{std::move(name), lang,  world, std::move(text),
                  std::move(slots), std::move(canonical)};
}

constexpr Lang kOql = Lang::kOql;
constexpr Lang kAqua = Lang::kAqua;
constexpr Lang kKola = Lang::kKola;
constexpr WorldKind kCar = WorldKind::kCar;
constexpr WorldKind kCompany = WorldKind::kCompany;
constexpr Slot kAge = Slot::kAge;
constexpr Slot kSalary = Slot::kSalary;

// tests/e2e_test.cc, with its constants as slots.
std::vector<Template> E2eCorpus() {
  return {
      Make("scan", kOql, kCar, "select p from p in P"),
      Make("project", kOql, kCar, "select p.addr.city from p in P"),
      Make("filter", kOql, kCar, "select p from p in P where p.age > $0",
           {kAge}, {30}),
      Make("filter-project", kOql, kCar,
           "select p.name from p in P where p.age > $0 and p.age < $1",
           {kAge, kAge}, {18, 65}),
      Make("project-then-filter", kAqua, kCar,
           "app(\\x. x.age)(sel(\\p. p.age > $0)(P))", {kAge}, {25}),
      Make("two-pass-map", kAqua, kCar,
           "app(\\a. a.city)(app(\\p. p.addr)(P))"),
      Make("self-join", kOql, kCar,
           "select [a.name, b.name] from a in P, b in P where a.age > b.age"),
      Make("ownership-join", kOql, kCar,
           "select [v.make, p.name] from v in V, p in P where v in p.cars"),
      Make("dependent-binding", kOql, kCar,
           "select c.age from p in P, c in p.child where p.age > c.age"),
      Make("nested-a3", kAqua, kCar,
           "app(\\p. [p, sel(\\c. c.age > $0)(p.child)])(P)", {kAge}, {25}),
      Make("nested-a4-code-motion", kAqua, kCar,
           "app(\\p. [p, sel(\\c. p.age > $0)(p.child)])(P)", {kAge}, {25}),
      Make("garage-hidden-join", kAqua, kCar,
           "app(\\v. [v, flatten(app(\\p. p.grgs)(sel(\\p. v in p.cars)(P)))])"
           "(V)"),
      Make("flatten-children", kOql, kCar,
           "select c from p in P, c in p.child"),
      Make("triple-nest", kAqua, kCar,
           "app(\\p. app(\\c. app(\\g. [p.age, [c.age, g.age]])(c.child))"
           "(p.child))(P)"),
      Make("conditional", kAqua, kCar,
           "app(\\p. if p.age > $0 then [p, p.cars] else [p, {}])(P)", {kAge},
           {40}),
      Make("explicit-join", kAqua, kCar,
           "join(\\a b. a in b.cars, \\a b. [a, b.grgs])(V, P)"),
      Make("membership-const", kOql, kCar,
           "select p.name from p in P where p.age in {$0, $1, $2, $3}",
           {kAge, kAge, kAge, kAge}, {20, 30, 40, 50}),
      Make("disjunction", kOql, kCar,
           "select p from p in P where p.age < $0 or p.age > $1",
           {kAge, kAge}, {10, 80}),
      Make("negation", kOql, kCar, "select p from p in P where not p.age > $0",
           {kAge}, {50}),
      Make("garages", kOql, kCar, "select a.city from p in P, a in p.grgs"),
  };
}

// The paper's K3 and K4 (Figure 6) and KG1 (Figure 3) as KOLA text.
std::vector<Template> PaperKolaCorpus() {
  return {
      Make("K3", kKola, kCar,
           "iterate(Kp(T), (id, iter(gt @ (age o pi2, Kf($0)), pi2) o "
           "(id, child))) ! P",
           {kAge}, {25}),
      Make("K4", kKola, kCar,
           "iterate(Kp(T), (id, iter(gt @ (age o pi1, Kf($0)), pi2) o "
           "(id, child))) ! P",
           {kAge}, {25}),
      Make("KG1", kKola, kCar, kola::GarageQueryKG1()->ToString()),
  };
}

}  // namespace

const char* LangName(Lang lang) {
  switch (lang) {
    case Lang::kOql:
      return "oql";
    case Lang::kAqua:
      return "aqua";
    case Lang::kKola:
      return "kola";
  }
  return "?";
}

std::string Instantiate(const Template& t, const std::vector<int64_t>& values) {
  std::string out;
  out.reserve(t.text.size() + 16);
  for (size_t i = 0; i < t.text.size(); ++i) {
    char c = t.text[i];
    if (c == '$' && i + 1 < t.text.size() && t.text[i + 1] >= '0' &&
        t.text[i + 1] <= '9') {
      out += std::to_string(values.at(t.text[i + 1] - '0'));
      ++i;
    } else {
      out += c;
    }
  }
  return out;
}

std::string CanonicalText(const Template& t) {
  return Instantiate(t, t.canonical);
}

std::vector<Template> CompileCorpus() {
  std::vector<Template> corpus = E2eCorpus();
  // tests/company_test.cc (its two `salary >` queries share one template).
  std::vector<Template> company = {
      Make("company-filter", kOql, kCompany,
           "select e.ename from e in E where e.salary > $0", {kSalary},
           {100'000}),
      Make("company-heads", kOql, kCompany,
           "select [d.dname, d.head.ename] from d in D"),
      Make("company-members", kOql, kCompany,
           "select e from p in Proj, e in p.members where e.salary > $0",
           {kSalary}, {50'000}),
      Make("company-join", kOql, kCompany,
           "select [e, d] from e in E, d in D where e.dept == d"),
      Make("company-join-filter", kOql, kCompany,
           "select [e, d] from e in E, d in D where e.dept == d and "
           "e.salary > $0",
           {kSalary}, {60'000}),
      Make("company-hidden-join", kAqua, kCompany,
           "app(\\d. [d, flatten(app(\\e. e.skills)(sel(\\e. e.dept == d)"
           "(E)))])(D)"),
  };
  for (Template& t : company) corpus.push_back(std::move(t));
  for (Template& t : PaperKolaCorpus()) corpus.push_back(std::move(t));
  return corpus;
}

std::vector<Template> ExecuteCorpus() {
  std::vector<Template> corpus;
  for (int depth = 2; depth <= 6; ++depth) {
    auto query = kola::MakeHiddenJoinQuery(depth);
    corpus.push_back(Make("hidden-join-" + std::to_string(depth), kKola, kCar,
                          query.value()->ToString()));
  }
  corpus.push_back(PaperKolaCorpus().back());  // KG1
  for (Template& t : E2eCorpus()) {
    for (const char* name :
         {"self-join", "ownership-join", "dependent-binding", "nested-a3",
          "nested-a4-code-motion", "garage-hidden-join", "flatten-children",
          "triple-nest", "explicit-join"}) {
      if (t.name == name) corpus.push_back(t);
    }
  }
  return corpus;
}

uint64_t SplitMix(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {

// Fisher-Yates with the stream's generator.
void Shuffle(std::vector<int64_t>* values, uint64_t* state) {
  for (size_t i = values->size(); i > 1; --i) {
    std::swap((*values)[i - 1], (*values)[SplitMix(state) % i]);
  }
}

}  // namespace

ConstantStream::ConstantStream(const Template& t, uint64_t seed)
    : next_(t.slots.size(), 0), state_(seed) {
  for (Slot slot : t.slots) {
    Band band = BandOf(slot);
    std::vector<int64_t> values;
    for (int64_t v = band.lo; v <= band.hi; v += band.step) values.push_back(v);
    Shuffle(&values, &state_);
    permutations_.push_back(std::move(values));
  }
}

std::vector<int64_t> ConstantStream::Next() {
  std::vector<int64_t> out;
  for (size_t i = 0; i < permutations_.size(); ++i) {
    std::vector<int64_t>& perm = permutations_[i];
    if (next_[i] == perm.size()) {
      Shuffle(&perm, &state_);
      next_[i] = 0;
    }
    out.push_back(perm[next_[i]++]);
  }
  return out;
}

RoundStream::RoundStream(const std::vector<Template>& templates, uint64_t seed)
    : templates_(templates), state_(seed * 0x2545f4914f6cdd1dULL + 1) {
  for (size_t i = 0; i < templates.size(); ++i) {
    constants_.emplace_back(templates[i], SplitMix(&state_));
  }
}

std::vector<Request> RoundStream::NextRound() {
  std::vector<size_t> order(templates_.size());
  std::iota(order.begin(), order.end(), 0);
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[SplitMix(&state_) % i]);
  }
  std::vector<Request> round;
  round.reserve(order.size());
  for (size_t shape : order) {
    round.push_back({shape, Instantiate(templates_[shape],
                                        constants_[shape].Next())});
  }
  return round;
}

}  // namespace kolabench
