#include "frontend.h"

#include <string_view>

#include "aqua/eval.h"
#include "aqua/parser.h"
#include "eval/evaluator.h"
#include "oql/oql.h"
#include "term/parser.h"
#include "translate/translate.h"

namespace kolabench {

kola::StatusOr<kola::TermPtr> ParseAndTranslate(Lang lang,
                                                const std::string& text,
                                                Tracer* tracer) {
  if (lang == Lang::kKola) {
    ScopedSpan span(tracer, "term.parse");
    return kola::ParseQuery(text);
  }
  kola::StatusOr<kola::aqua::ExprPtr> expr = [&] {
    ScopedSpan span(tracer, lang == Lang::kOql ? "oql.parse" : "aqua.parse");
    return lang == Lang::kOql ? kola::oql::ParseOql(text)
                              : kola::aqua::ParseAqua(text);
  }();
  if (!expr.ok()) return expr.status();
  ScopedSpan span(tracer, "translate");
  kola::Translator translator;
  return translator.TranslateQuery(expr.value());
}

namespace {

uint64_t Fnv1a(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

uint64_t Fingerprint(const kola::Value& value) {
  return Fnv1a(value.ToString());
}

kola::StatusOr<uint64_t> Oracle::Expected(Lang lang, const std::string& text,
                                          const kola::Database& db) {
  auto found = memo_.find(text);
  if (found != memo_.end()) return found->second;
  kola::StatusOr<kola::Value> value = [&]() -> kola::StatusOr<kola::Value> {
    if (lang == Lang::kKola) {
      kola::StatusOr<kola::TermPtr> term = kola::ParseQuery(text);
      if (!term.ok()) return term.status();
      kola::EvalOptions options;
      options.physical_fastpaths = false;
      kola::Evaluator evaluator(&db, options);
      return evaluator.EvalObject(term.value());
    }
    kola::StatusOr<kola::aqua::ExprPtr> expr =
        lang == Lang::kOql ? kola::oql::ParseOql(text)
                           : kola::aqua::ParseAqua(text);
    if (!expr.ok()) return expr.status();
    kola::aqua::AquaEvaluator evaluator(&db);
    return evaluator.EvalQuery(expr.value());
  }();
  if (!value.ok()) return value.status();
  uint64_t fingerprint = Fingerprint(value.value());
  memo_.emplace(text, fingerprint);
  return fingerprint;
}

}  // namespace kolabench
