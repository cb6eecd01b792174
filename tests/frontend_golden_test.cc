// Golden front-end outcomes: seeded random AQUA and OQL source text, one
// token-level mutation of each text, and the e2e and company corpora, each
// parsed by its front end. Every input records its status code and, when
// accepted, Expr::ToString(); the records are pinned as one StableStringHash
// digest per chunk of at most 100 inputs, so any change to what the two
// parsers accept, reject or build names the chunk it shows up in. A
// mismatch prints the replacement table line and the chunk's records.
//
// SourceGen below is a random source-text generator over the two surface
// grammars (depth <= 6, car and company schema names, nested sub-selects,
// set and tuple literals, every comparison operator). Its texts are
// syntactically valid by construction; they are not type-checked.

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "aqua/parser.h"
#include "common/random.h"
#include "e2e_corpus.h"
#include "oql/oql.h"
#include "term/term.h"

namespace kola {
namespace {

using Tokens = std::vector<std::string>;

constexpr const char* kExtents[] = {"P", "V", "A", "Nums", "D", "E", "Proj"};
constexpr const char* kAttributes[] = {
    "addr",  "age",   "name",  "child", "cars",   "grgs",   "city",
    "street", "make", "year",  "dname", "head",   "ename",  "salary",
    "dept",  "skills", "pname", "budget", "members"};
constexpr const char* kComparisons[] = {"==", "!=", "<", "<=",
                                        ">",  ">=", "in"};
constexpr const char* kStrings[] = {"\"Boston\"", "\"Saab\"", "\"sql\"",
                                    "\"\"", "\"New Haven\""};
constexpr const char* kOqlVars[] = {"p", "c", "v", "a", "e", "d", "x"};
constexpr const char* kAquaVars[] = {"p", "c", "v", "e", "d", "x", "p'"};
constexpr int kMaxDepth = 6;

template <size_t N>
std::string Pick(Rng& rng, const char* const (&words)[N]) {
  return words[rng.Index(N)];
}

/// Draws token sequences from the AQUA and OQL grammars. `depth` bounds how
/// many bracketing productions (parens, literals, calls, sub-selects,
/// lambdas) nest inside one another.
class SourceGen {
 public:
  explicit SourceGen(uint64_t seed) : rng_(seed) {}

  Tokens Aqua() {
    Tokens out;
    AquaExpr(static_cast<int>(rng_.Uniform(0, kMaxDepth)), &out);
    return out;
  }

  Tokens Oql() {
    Tokens out;
    OqlQuery(static_cast<int>(rng_.Uniform(0, kMaxDepth)), &out);
    return out;
  }

 private:
  // ---- shared leaves ------------------------------------------------------

  void Literal(Tokens* out) {
    switch (rng_.Index(3)) {
      case 0:
        out->push_back(std::to_string(rng_.Uniform(-50, 120)));
        break;
      case 1:
        out->push_back(Pick(rng_, kStrings));
        break;
      default:
        out->push_back(rng_.Chance(0.5) ? "true" : "false");
        break;
    }
  }

  /// A bound variable or an extent, followed by an attribute path.
  void Name(Tokens* out) {
    if (!scope_.empty() && rng_.Chance(0.75)) {
      out->push_back(scope_[rng_.Index(scope_.size())]);
    } else {
      out->push_back(Pick(rng_, kExtents));
    }
    int dots = rng_.Chance(0.5) ? static_cast<int>(rng_.Uniform(1, 3)) : 0;
    for (int i = 0; i < dots; ++i) {
      out->push_back(".");
      out->push_back(Pick(rng_, kAttributes));
    }
  }

  void Leaf(Tokens* out) {
    if (rng_.Chance(0.6)) {
      Name(out);
    } else {
      Literal(out);
    }
  }

  /// '{' consts '}'; an element is a literal, a nested set literal or a
  /// parenthesized literal -- constants in both languages.
  void SetLiteral(int depth, Tokens* out) {
    out->push_back("{");
    int n = static_cast<int>(rng_.Uniform(0, 3));
    for (int i = 0; i < n; ++i) {
      if (i > 0) out->push_back(",");
      if (depth > 0 && rng_.Chance(0.2)) {
        SetLiteral(depth - 1, out);
      } else if (depth > 0 && rng_.Chance(0.1)) {
        out->push_back("(");
        Literal(out);
        out->push_back(")");
      } else {
        Literal(out);
      }
    }
    out->push_back("}");
  }

  std::string Comparison() { return Pick(rng_, kComparisons); }

  // ---- AQUA ---------------------------------------------------------------

  void AquaExpr(int depth, Tokens* out) {
    AquaAnd(depth, out);
    while (rng_.Chance(0.15)) {
      out->push_back("or");
      AquaAnd(depth, out);
    }
  }

  void AquaAnd(int depth, Tokens* out) {
    AquaNot(depth, out);
    while (rng_.Chance(0.15)) {
      out->push_back("and");
      AquaNot(depth, out);
    }
  }

  void AquaNot(int depth, Tokens* out) {
    while (rng_.Chance(0.1)) out->push_back("not");
    AquaPath(depth, out);
    if (rng_.Chance(0.35)) {
      out->push_back(Comparison());
      AquaPath(depth, out);
    }
  }

  void AquaPath(int depth, Tokens* out) {
    AquaPrimary(depth, out);
    if (rng_.Chance(0.15)) {
      out->push_back(".");
      out->push_back(Pick(rng_, kAttributes));
    }
  }

  void AquaLambda(int depth, int arity, Tokens* out) {
    out->push_back("\\");
    for (int i = 0; i < arity; ++i) {
      std::string var = Pick(rng_, kAquaVars);
      out->push_back(var);
      scope_.push_back(var);
    }
    out->push_back(".");
    AquaExpr(depth, out);
    scope_.resize(scope_.size() - arity);
  }

  void AquaPrimary(int depth, Tokens* out) {
    if (depth == 0 || rng_.Chance(0.55)) {
      Leaf(out);
      return;
    }
    const int inner = depth - 1;
    switch (rng_.Index(9)) {
      case 0:
        out->push_back("(");
        AquaExpr(inner, out);
        out->push_back(")");
        break;
      case 1:
        out->push_back("[");
        AquaExpr(inner, out);
        out->push_back(",");
        AquaExpr(inner, out);
        out->push_back("]");
        break;
      case 2:
        SetLiteral(inner, out);
        break;
      case 3:
      case 4:
        out->push_back(rng_.Chance(0.5) ? "app" : "sel");
        out->push_back("(");
        AquaLambda(inner, 1, out);
        out->push_back(")");
        out->push_back("(");
        AquaExpr(inner, out);
        out->push_back(")");
        break;
      case 5:
        out->push_back("flatten");
        out->push_back("(");
        AquaExpr(inner, out);
        out->push_back(")");
        break;
      case 6:
        out->push_back("join");
        out->push_back("(");
        AquaLambda(inner, 2, out);
        out->push_back(",");
        AquaLambda(inner, 2, out);
        out->push_back(")");
        out->push_back("(");
        AquaExpr(inner, out);
        out->push_back(",");
        AquaExpr(inner, out);
        out->push_back(")");
        break;
      case 7:
        out->push_back("if");
        AquaExpr(inner, out);
        out->push_back("then");
        AquaExpr(inner, out);
        out->push_back("else");
        AquaExpr(inner, out);
        break;
      default:
        Leaf(out);
        break;
    }
  }

  // ---- OQL ----------------------------------------------------------------

  /// select E from x1 in C1, ... (where Q)?
  void OqlQuery(int depth, Tokens* out) {
    const size_t outer = scope_.size();
    std::vector<std::string> vars;
    int n = rng_.Chance(0.6) ? 1 : static_cast<int>(rng_.Uniform(2, 3));
    for (int i = 0; i < n; ++i) vars.push_back(Pick(rng_, kOqlVars));

    // The select list sees every FROM variable.
    Tokens projection;
    scope_.insert(scope_.end(), vars.begin(), vars.end());
    OqlOperand(depth, &projection);
    scope_.resize(outer);

    out->push_back("select");
    out->insert(out->end(), projection.begin(), projection.end());
    out->push_back("from");
    for (int i = 0; i < n; ++i) {
      if (i > 0) out->push_back(",");
      out->push_back(vars[i]);
      out->push_back("in");
      OqlSource(depth, out);
      scope_.push_back(vars[i]);
    }
    if (rng_.Chance(0.6)) {
      out->push_back("where");
      OqlPred(depth, out);
    }
    scope_.resize(outer);
  }

  /// A binding's range: an extent, a path off an earlier variable, or a
  /// sub-select.
  void OqlSource(int depth, Tokens* out) {
    if (depth > 0 && rng_.Chance(0.2)) {
      bool flatten = rng_.Chance(0.4);
      if (flatten) out->push_back("flatten");
      out->push_back("(");
      OqlQuery(depth - 1, out);
      out->push_back(")");
    } else if (!scope_.empty() && rng_.Chance(0.5)) {
      out->push_back(scope_[rng_.Index(scope_.size())]);
      out->push_back(".");
      out->push_back(Pick(rng_, kAttributes));
    } else {
      OqlOperand(depth, out);
    }
  }

  void OqlPred(int depth, Tokens* out) {
    OqlAnd(depth, out);
    while (rng_.Chance(0.15)) {
      out->push_back("or");
      OqlAnd(depth, out);
    }
  }

  void OqlAnd(int depth, Tokens* out) {
    OqlNot(depth, out);
    while (rng_.Chance(0.2)) {
      out->push_back("and");
      OqlNot(depth, out);
    }
  }

  void OqlNot(int depth, Tokens* out) {
    while (rng_.Chance(0.1)) out->push_back("not");
    OqlOperand(depth, out);
    if (rng_.Chance(0.8)) {
      out->push_back(Comparison());
      OqlOperand(depth, out);
    }
  }

  void OqlOperand(int depth, Tokens* out) {
    if (depth == 0 || rng_.Chance(0.55)) {
      Leaf(out);
      return;
    }
    const int inner = depth - 1;
    switch (rng_.Index(6)) {
      case 0:
        out->push_back("(");
        OqlQuery(inner, out);
        out->push_back(")");
        break;
      case 1:
        out->push_back("(");
        OqlPred(inner, out);
        out->push_back(")");
        break;
      case 2:
        out->push_back("[");
        OqlOperand(inner, out);
        out->push_back(",");
        OqlOperand(inner, out);
        out->push_back("]");
        break;
      case 3:
        SetLiteral(inner, out);
        break;
      case 4:
        out->push_back("flatten");
        out->push_back("(");
        if (rng_.Chance(0.7)) {
          OqlQuery(inner, out);
        } else {
          OqlOperand(inner, out);
        }
        out->push_back(")");
        break;
      default:
        Leaf(out);
        break;
    }
  }

  Rng rng_;
  std::vector<std::string> scope_;
};

bool IsWordToken(const std::string& token) {
  return !token.empty() &&
         (std::isalnum(static_cast<unsigned char>(token.back())) ||
          token.back() == '_' || token.back() == '\'');
}

/// Joins tokens with single spaces, except none before `. , ) ] }` and
/// none after `. ( [ { \`. Whitespace never changes how a text lexes.
std::string Render(const Tokens& tokens) {
  std::string text;
  for (size_t i = 0; i < tokens.size(); ++i) {
    const std::string& token = tokens[i];
    if (i > 0) {
      const std::string& prev = tokens[i - 1];
      bool glue_before = token == "." || token == "," || token == ")" ||
                         token == "]" || token == "}";
      bool glue_after = prev == "." || prev == "(" || prev == "[" ||
                        prev == "{" || prev == "\\";
      if (!glue_before && !glue_after) text += ' ';
    }
    text += token;
  }
  return text;
}

/// One token-level mutation: drop, duplicate or swap a token, or insert
/// one of `\ ' = ! { select app`. A `'` after an identifier joins it,
/// making a primed identifier.
Tokens Mutate(Tokens tokens, Rng& rng) {
  constexpr const char* kInserts[] = {"\\", "'", "=", "!",
                                      "{", "select", "app"};
  const size_t at = rng.Index(tokens.size());
  switch (rng.Index(4)) {
    case 0:
      tokens.erase(tokens.begin() + static_cast<std::ptrdiff_t>(at));
      break;
    case 1:
      tokens.insert(tokens.begin() + static_cast<std::ptrdiff_t>(at),
                    tokens[at]);
      break;
    case 2:
      if (at + 1 < tokens.size()) std::swap(tokens[at], tokens[at + 1]);
      else std::swap(tokens[0], tokens[at]);
      break;
    default: {
      std::string insert = Pick(rng, kInserts);
      if (insert == "'" && IsWordToken(tokens[at])) {
        tokens[at] += insert;
      } else {
        tokens.insert(tokens.begin() + static_cast<std::ptrdiff_t>(at),
                      insert);
      }
      break;
    }
  }
  return tokens;
}

struct Input {
  std::string text;
  bool is_oql;
  bool must_parse;
};

/// The company corpus (company_test's OQL and AQUA queries), verbatim.
constexpr const char* kCompanyOql[] = {
    "select e.ename from e in E where e.salary > 100000",
    "select [d.dname, d.head.ename] from d in D",
    "select e from p in Proj, e in p.members where e.salary > 50000",
    "select [e, d] from e in E, d in D where e.dept == d",
    "select e.ename from e in E where e.salary > 150000",
    "select [e, d] from e in E, d in D where e.dept == d and "
    "e.salary > 60000",
};
constexpr const char* kCompanyAqua[] = {
    "app(\\d. [d, flatten(app(\\e. e.skills)(sel(\\e. e.dept == d)"
    "(E)))])(D)",
};

constexpr int kDrawnPerLanguage = 2'000;
constexpr size_t kChunk = 100;

/// The named input streams, in a fixed order.
std::vector<std::pair<std::string, std::vector<Input>>> Streams() {
  std::vector<Input> aqua_drawn, aqua_mutated, oql_drawn, oql_mutated;
  SourceGen aqua_gen(0xA0A);
  SourceGen oql_gen(0x0B1);
  Rng mutations(0x3117);
  for (int i = 0; i < kDrawnPerLanguage; ++i) {
    Tokens aqua = aqua_gen.Aqua();
    aqua_drawn.push_back({Render(aqua), false, true});
    aqua_mutated.push_back({Render(Mutate(aqua, mutations)), false, false});
    Tokens oql = oql_gen.Oql();
    oql_drawn.push_back({Render(oql), true, true});
    oql_mutated.push_back({Render(Mutate(oql, mutations)), true, false});
  }
  std::vector<Input> corpus;
  for (const E2eWorkload& workload : kE2eWorkloads) {
    corpus.push_back({workload.text, workload.is_oql, true});
  }
  for (const char* text : kCompanyOql) corpus.push_back({text, true, true});
  for (const char* text : kCompanyAqua) corpus.push_back({text, false, true});
  return {{"aqua-drawn", std::move(aqua_drawn)},
          {"aqua-mutated", std::move(aqua_mutated)},
          {"oql-drawn", std::move(oql_drawn)},
          {"oql-mutated", std::move(oql_mutated)},
          {"corpus", std::move(corpus)}};
}

std::string Record(const Input& input) {
  StatusOr<aqua::ExprPtr> parsed = input.is_oql ? oql::ParseOql(input.text)
                                                : aqua::ParseAqua(input.text);
  std::string line = input.text + "\t" +
                     StatusCodeToString(parsed.status().code());
  if (parsed.ok()) line += "\t" + parsed.value()->ToString();
  return line + "\n";
}

TEST(FrontEndGoldenTest, OutcomesMatchPinnedDigests) {
  const std::map<std::string, uint64_t> golden = {
      {"aqua-drawn/00", 0x4386be8d8ed08234ULL},
      {"aqua-drawn/01", 0x19c0a6200b7202c0ULL},
      {"aqua-drawn/02", 0xaeac6297ef5e2c04ULL},
      {"aqua-drawn/03", 0xe8e99c1fa77cc173ULL},
      {"aqua-drawn/04", 0x4c59beeed26cb5dcULL},
      {"aqua-drawn/05", 0x4d12b923e4c9411fULL},
      {"aqua-drawn/06", 0xe8c3b9c2b660ec6fULL},
      {"aqua-drawn/07", 0x626ce6ef69ecd18aULL},
      {"aqua-drawn/08", 0x79cc595a441d7a34ULL},
      {"aqua-drawn/09", 0xe3e9ad6f1ce676ffULL},
      {"aqua-drawn/10", 0x37da55d2b9d824e5ULL},
      {"aqua-drawn/11", 0x2d1a3d9f6f96e508ULL},
      {"aqua-drawn/12", 0xbe068d18017ad1c0ULL},
      {"aqua-drawn/13", 0x47cc9f8e3dbc9014ULL},
      {"aqua-drawn/14", 0x6fe0b421a44c2c25ULL},
      {"aqua-drawn/15", 0xd283c89ebed6d82bULL},
      {"aqua-drawn/16", 0x3da8fb1d192976beULL},
      {"aqua-drawn/17", 0x106d6d0885401fd8ULL},
      {"aqua-drawn/18", 0x9e2709fe3e5f93bcULL},
      {"aqua-drawn/19", 0xec8865d4c943e458ULL},
      {"aqua-mutated/00", 0x624018d7ffab64dcULL},
      {"aqua-mutated/01", 0x10e6935c8d8f649eULL},
      {"aqua-mutated/02", 0xce54961fb65c99a8ULL},
      {"aqua-mutated/03", 0x719aaf521014599cULL},
      {"aqua-mutated/04", 0x10e18c7a04189edbULL},
      {"aqua-mutated/05", 0xc6f9b85fa5461cfbULL},
      {"aqua-mutated/06", 0x150732168e83c812ULL},
      {"aqua-mutated/07", 0xe799081aa674a93fULL},
      {"aqua-mutated/08", 0xea1039b2f1685638ULL},
      {"aqua-mutated/09", 0x080ba845c6a20723ULL},
      {"aqua-mutated/10", 0xcf7e9ba2dd12926aULL},
      {"aqua-mutated/11", 0x9381ce4371711b78ULL},
      {"aqua-mutated/12", 0xd791b4329e750f9eULL},
      {"aqua-mutated/13", 0x887b5ccc442161f6ULL},
      {"aqua-mutated/14", 0x399f18bb1f16d2ddULL},
      {"aqua-mutated/15", 0x434faa9af0d13c4dULL},
      {"aqua-mutated/16", 0x911278d3830c3c08ULL},
      {"aqua-mutated/17", 0x29d4049630420f81ULL},
      {"aqua-mutated/18", 0x723297b846ad51d8ULL},
      {"aqua-mutated/19", 0xcfe7db3ad9b30b4bULL},
      {"oql-drawn/00", 0xe898cd7c01685d3cULL},
      {"oql-drawn/01", 0xb7bc798879083e10ULL},
      {"oql-drawn/02", 0x6a8b194d1c99090cULL},
      {"oql-drawn/03", 0x6221168eb7768fb3ULL},
      {"oql-drawn/04", 0x846e018d83ae57a8ULL},
      {"oql-drawn/05", 0xf79dd14daae441ccULL},
      {"oql-drawn/06", 0xd5d82b17a847e00fULL},
      {"oql-drawn/07", 0x16a1d4f077d20339ULL},
      {"oql-drawn/08", 0x8ebb60a863e5c52dULL},
      {"oql-drawn/09", 0x8429203595c4d0caULL},
      {"oql-drawn/10", 0x0f591d669f291159ULL},
      {"oql-drawn/11", 0xe8ac95eaa1064192ULL},
      {"oql-drawn/12", 0xa4f2079dfe2942c6ULL},
      {"oql-drawn/13", 0xb4ae4e773a4cd5a5ULL},
      {"oql-drawn/14", 0x7298f323dfb9aedeULL},
      {"oql-drawn/15", 0xf444630179f42aeeULL},
      {"oql-drawn/16", 0x7683128e74a7ab0eULL},
      {"oql-drawn/17", 0x2248ec83389a1399ULL},
      {"oql-drawn/18", 0x38b88d56f8c618fdULL},
      {"oql-drawn/19", 0xdf6393262a311bbcULL},
      {"oql-mutated/00", 0x256d38e769a73ec3ULL},
      {"oql-mutated/01", 0x54b39f4771b29539ULL},
      {"oql-mutated/02", 0xff973fd237484f3dULL},
      {"oql-mutated/03", 0xf0e532c8a33512b8ULL},
      {"oql-mutated/04", 0x9ea7c3afca207b7fULL},
      {"oql-mutated/05", 0x5ef9536598e1fa8cULL},
      {"oql-mutated/06", 0x1e954add50a26cceULL},
      {"oql-mutated/07", 0x118b7c7d5f6f200cULL},
      {"oql-mutated/08", 0x4ad548fc116f9231ULL},
      {"oql-mutated/09", 0xb09959488ed25a79ULL},
      {"oql-mutated/10", 0x846b2000e0a9e751ULL},
      {"oql-mutated/11", 0x0acbf48428debf30ULL},
      {"oql-mutated/12", 0xc331231ed58e55e3ULL},
      {"oql-mutated/13", 0x9641c5ca83679f68ULL},
      {"oql-mutated/14", 0xe80cb37002b31bdcULL},
      {"oql-mutated/15", 0xdff3b7a9c73f59fcULL},
      {"oql-mutated/16", 0xf3bf1659806f5c56ULL},
      {"oql-mutated/17", 0x6a9bcb783590e143ULL},
      {"oql-mutated/18", 0xa62d7dcbf98e06c4ULL},
      {"oql-mutated/19", 0xd30212fe26edc1aaULL},
      {"corpus/00", 0xf28f6c7be91fdf32ULL},
  };

  std::map<std::string, uint64_t> digests;
  bool printed_chunk = false;
  for (const auto& [stream, inputs] : Streams()) {
    for (size_t begin = 0; begin < inputs.size(); begin += kChunk) {
      std::string records;
      for (size_t i = begin; i < std::min(begin + kChunk, inputs.size());
           ++i) {
        const Input& input = inputs[i];
        std::string line = Record(input);
        if (input.must_parse) {
          EXPECT_NE(line.find("\tOK"), std::string::npos) << line;
        }
        records += line;
      }
      char name[64];
      std::snprintf(name, sizeof(name), "%s/%02zu", stream.c_str(),
                    begin / kChunk);
      const uint64_t digest = StableStringHash(records);
      digests[name] = digest;
      char table_line[160];
      std::snprintf(table_line, sizeof(table_line), "{\"%s\", 0x%016llxULL},",
                    name, static_cast<unsigned long long>(digest));
      auto it = golden.find(name);
      if (it == golden.end()) {
        ADD_FAILURE() << "no golden digest for " << name << "\n"
                      << table_line;
      } else if (it->second != digest) {
        ADD_FAILURE() << name << " changed\n"
                      << table_line << "\n"
                      << (printed_chunk ? std::string() : records);
        printed_chunk = true;
      }
    }
  }
  EXPECT_EQ(digests.size(), golden.size());
}

// ---------------------------------------------------------------------------
// Nesting limits: the deepest input of each nesting shape that still parses.
// Each nesting level charges the parsers' depth guard exactly once, so these
// depths move only if some level starts charging twice (or not at all).
// ---------------------------------------------------------------------------

std::string Repeat(const std::string& s, int n) {
  std::string out;
  for (int i = 0; i < n; ++i) out += s;
  return out;
}

struct NestingShape {
  const char* name;
  bool is_oql;
  std::string (*text)(int n);
};

const NestingShape kNestingShapes[] = {
    {"aqua/paren", false,
     [](int n) { return Repeat("(", n) + "1" + Repeat(")", n); }},
    {"aqua/not", false, [](int n) { return Repeat("not ", n) + "true"; }},
    {"aqua/and", false, [](int n) { return "true" + Repeat(" and true", n); }},
    {"aqua/or", false, [](int n) { return "true" + Repeat(" or true", n); }},
    {"aqua/path", false, [](int n) { return "C" + Repeat(".a", n); }},
    {"aqua/set", false,
     [](int n) { return Repeat("{", n) + "1" + Repeat("}", n); }},
    {"aqua/tuple", false,
     [](int n) { return Repeat("[", n) + "1" + Repeat(", 1]", n); }},
    {"aqua/app", false,
     [](int n) { return Repeat("app(\\x. ", n) + "x" + Repeat(")(C)", n); }},
    {"aqua/if", false,
     [](int n) { return Repeat("if true then ", n) + "1" +
                        Repeat(" else 1", n); }},
    {"oql/paren", true,
     [](int n) {
       return "select x from x in C where " + Repeat("(", n) + "true" +
              Repeat(")", n);
     }},
    {"oql/not", true,
     [](int n) { return "select x from x in C where " + Repeat("not ", n) +
                        "true"; }},
    {"oql/and", true,
     [](int n) { return "select x from x in C where true" +
                        Repeat(" and true", n); }},
    {"oql/or", true,
     [](int n) { return "select x from x in C where true" +
                        Repeat(" or true", n); }},
    {"oql/path", true,
     [](int n) { return "select x" + Repeat(".a", n) + " from x in C"; }},
    {"oql/select-in-from", true,
     [](int n) {
       return Repeat("select x from x in (", n) + "select x from x in C" +
              Repeat(")", n);
     }},
    {"oql/select-in-list", true,
     [](int n) {
       return Repeat("select (", n) + "select x from x in C" +
              Repeat(") from y in C", n);
     }},
    {"oql/flatten-select", true,
     [](int n) {
       return "select x from x in " +
              Repeat("flatten(select x from x in ", n) + "C" +
              Repeat(")", n);
     }},
    {"oql/set", true,
     [](int n) {
       return "select x from x in C where x in " + Repeat("{", n) + "1" +
              Repeat("}", n);
     }},
    {"oql/tuple", true,
     [](int n) {
       return "select " + Repeat("[", n) + "x" + Repeat(", 1]", n) +
              " from x in C";
     }},
};

bool Parses(const NestingShape& shape, int n) {
  std::string text = shape.text(n);
  return shape.is_oql ? oql::ParseOql(text).ok() : aqua::ParseAqua(text).ok();
}

TEST(FrontEndGoldenTest, NestingLimitsMatchPinnedValues) {
  const std::map<std::string, int> golden = {
      {"aqua/paren", 255},
      {"aqua/not", 255},
      {"aqua/and", 255},
      {"aqua/or", 255},
      {"aqua/path", 255},
      {"aqua/set", 255},
      {"aqua/tuple", 255},
      {"aqua/app", 255},
      {"aqua/if", 255},
      {"oql/paren", 255},
      {"oql/not", 255},
      {"oql/and", 255},
      {"oql/or", 255},
      {"oql/path", 255},
      {"oql/select-in-from", 255},
      {"oql/select-in-list", 255},
      {"oql/flatten-select", 255},
      {"oql/set", 255},
      {"oql/tuple", 255},
  };
  for (const NestingShape& shape : kNestingShapes) {
    // Largest n that parses; every deeper input is rejected.
    int ok = 0, bad = 1024;
    ASSERT_TRUE(Parses(shape, ok)) << shape.name;
    ASSERT_FALSE(Parses(shape, bad)) << shape.name;
    while (bad - ok > 1) {
      int mid = (ok + bad) / 2;
      (Parses(shape, mid) ? ok : bad) = mid;
    }
    char line[96];
    std::snprintf(line, sizeof(line), "{\"%s\", %d},", shape.name, ok);
    auto it = golden.find(shape.name);
    if (it == golden.end()) {
      ADD_FAILURE() << "no pinned limit for " << shape.name << "\n" << line;
    } else {
      EXPECT_EQ(it->second, ok) << line;
    }
  }
  EXPECT_EQ(golden.size(), std::size(kNestingShapes));
}

}  // namespace
}  // namespace kola
