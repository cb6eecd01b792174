// Request corpora and seeded request streams. The programs under test see
// only the generated query text.

#ifndef KOLABENCH_CORPUS_H_
#define KOLABENCH_CORPUS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace kolabench {

enum class Lang { kOql, kAqua, kKola };
enum class WorldKind { kCar, kCompany };

const char* LangName(Lang lang);

/// A constant slot `$i` in a template: its kind fixes the band of values
/// that give realistic selectivities on the benchmark's worlds.
enum class Slot { kAge, kSalary };

struct Template {
  std::string name;
  Lang lang;
  WorldKind world;
  std::string text;             // with `$0`, `$1`, ... placeholders
  std::vector<Slot> slots;
  std::vector<int64_t> canonical;  // the corpus's own constants
};

/// A ready-to-send request: its template and the instantiated text.
struct Request {
  size_t shape = 0;  // index into the workload's template list
  std::string text;
};

std::string Instantiate(const Template& t, const std::vector<int64_t>& values);
std::string CanonicalText(const Template& t);

/// `compile`: the tests/e2e_test.cc corpus, the company corpus of
/// tests/company_test.cc, and the paper's K3, K4 and KG1 as KOLA text.
std::vector<Template> CompileCorpus();

/// `execute`: the hidden-join family (depths 2-6) and KG1 as KOLA text,
/// plus the e2e corpus's join and nested (code-motion) shapes.
std::vector<Template> ExecuteCorpus();

/// Draws constants for one template from the slots' bands, so every
/// constant stays inside the worlds' value ranges: each slot walks a seeded
/// permutation of its band and draws a fresh one when it runs out. A
/// template with one slot therefore repeats its shapes after band-size
/// draws (90 ages, 171 salaries).
class ConstantStream {
 public:
  ConstantStream(const Template& t, uint64_t seed);
  std::vector<int64_t> Next();

 private:
  std::vector<std::vector<int64_t>> permutations_;
  std::vector<size_t> next_;
  uint64_t state_;
};

/// Closed-loop stream of whole rounds: each round sends every template
/// once, in a seeded order, with fresh constants.
class RoundStream {
 public:
  RoundStream(const std::vector<Template>& templates, uint64_t seed);
  std::vector<Request> NextRound();

 private:
  const std::vector<Template>& templates_;
  std::vector<ConstantStream> constants_;
  uint64_t state_;
};

/// SplitMix64 step: a small, seedable generator for the streams.
uint64_t SplitMix(uint64_t* state);

}  // namespace kolabench

#endif  // KOLABENCH_CORPUS_H_
