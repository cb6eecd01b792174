#ifndef KOLA_TRANSLATE_TRANSLATE_H_
#define KOLA_TRANSLATE_TRANSLATE_H_

#include <string>
#include <string_view>
#include <vector>

#include "aqua/expr.h"
#include "common/statusor.h"
#include "term/term.h"

namespace kola {

/// Translates variable-based AQUA queries into variable-free KOLA terms,
/// following the environment-passing scheme of the paper's companion
/// report [11] (also sketched in Section 3 and Section 4.2):
///
///  * a lambda body is translated relative to an ENVIRONMENT, the list of
///    enclosing lambda variables [x1..xk], represented at run time as the
///    left-nested pair [[..[x1,x2]..], xk];
///  * variable access becomes a pi1/pi2 projection chain;
///  * iteration under a non-empty environment uses `iter`, whose invocation
///    `iter(p,f) ! [e, B]` threads the environment pair e explicitly (the
///    paper: "e can be a representation of the environment that would be
///    implicit in a variable-based query representation");
///  * closed subexpressions become constants via Kf (which is where the
///    Garage Query's `Kf(P)` comes from).
///
/// The translation of the AQUA Garage Query is exactly KG1 of Figure 3
/// (tested).
/// Ablation switches (bench_translation measures their effect; both
/// default on, matching the paper's size observations).
struct TranslateOptions {
  /// Eliminate `id o f` / `f o id` while building (keeps access paths
  /// small).
  bool simplify_identities = true;
  /// Translate closed subexpressions to Kf(constant-query) instead of
  /// threading them through the environment.
  bool fold_closed_subqueries = true;
};

class Translator {
 public:
  Translator() = default;
  explicit Translator(TranslateOptions options) : options_(options) {}

  /// Translates a closed AQUA query to an object-sorted KOLA term.
  StatusOr<TermPtr> TranslateQuery(const aqua::ExprPtr& expr);

  /// Translates an expression to a KOLA *function* of the environment
  /// `env` (innermost variable last). `env` must not be empty.
  StatusOr<TermPtr> TranslateFn(const aqua::ExprPtr& expr,
                                const std::vector<std::string>& env);

  /// Translates a boolean expression to a KOLA *predicate* on `env`.
  StatusOr<TermPtr> TranslatePred(const aqua::ExprPtr& expr,
                                  const std::vector<std::string>& env);

  /// pi1/pi2 chain selecting variable index `i` (0-based) from a
  /// `k`-variable environment.
  static TermPtr AccessPath(size_t i, size_t k);

 private:
  TermPtr Seq(TermPtr f, TermPtr g) const;

  /// Guards the mutual TranslateQuery/TranslateFn/TranslatePred recursion
  /// the same way the parsers guard theirs: expressions that slip past a
  /// front-end bound (e.g. built programmatically) degrade to
  /// RESOURCE_EXHAUSTED instead of exhausting the native stack.
  Status EnterNesting(const aqua::ExprPtr& expr);
  struct DepthGuard {
    Translator* translator;
    ~DepthGuard() { --translator->depth_; }
  };

  TranslateOptions options_;
  int depth_ = 0;
};

/// Size metrics for the complexity claim of Section 4.2: translated
/// queries are O(m*n) with m the maximum environment depth, observed
/// less than 2x in practice.
struct TranslationSizes {
  size_t aqua_nodes = 0;
  size_t kola_nodes = 0;
  size_t max_env_depth = 0;
  double ratio() const {
    return aqua_nodes == 0 ? 0.0
                           : static_cast<double>(kola_nodes) /
                                 static_cast<double>(aqua_nodes);
  }
};

/// Translates and measures.
StatusOr<TranslationSizes> MeasureTranslation(
    const aqua::ExprPtr& expr, TranslateOptions options = TranslateOptions());

/// Maximum lambda-nesting depth of an AQUA expression (the paper's m).
size_t MaxEnvDepth(const aqua::ExprPtr& expr);

/// Which front end parses a query's text.
enum class QueryLanguage { kKola, kOql, kAqua };

/// "kola", "oql" or "aqua".
StatusOr<QueryLanguage> ParseQueryLanguage(std::string_view name);

/// Parses `text` to an object-sorted KOLA query: KOLA text directly, OQL
/// and AQUA through their parser and the Translator.
StatusOr<TermPtr> ParseQueryText(QueryLanguage language,
                                 std::string_view text);

}  // namespace kola

#endif  // KOLA_TRANSLATE_TRANSLATE_H_
