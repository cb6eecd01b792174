// Query text to KOLA term, and the independent reference each result is
// checked against.

#ifndef KOLABENCH_FRONTEND_H_
#define KOLABENCH_FRONTEND_H_

#include <cstdint>
#include <string>
#include <unordered_map>

#include "bench.h"
#include "common/statusor.h"
#include "corpus.h"
#include "term/term.h"
#include "values/database.h"

namespace kolabench {

/// Parses `text` with the language's front end and, for OQL and AQUA,
/// translates it to KOLA. Each layer call gets its own span.
kola::StatusOr<kola::TermPtr> ParseAndTranslate(Lang lang,
                                                const std::string& text,
                                                Tracer* tracer);

/// A result's fingerprint: FNV-1a of its canonical rendering.
uint64_t Fingerprint(const kola::Value& value);

/// Reference results, fingerprinted and memoized by text. OQL and
/// AQUA text is evaluated by the AQUA interpreter; KOLA text is evaluated
/// unoptimized with the evaluator's physical fast paths off.
class Oracle {
 public:
  kola::StatusOr<uint64_t> Expected(Lang lang, const std::string& text,
                                    const kola::Database& db);
  /// Distinct texts checked so far.
  size_t size() const { return memo_.size(); }

 private:
  std::unordered_map<std::string, uint64_t> memo_;
};

}  // namespace kolabench

#endif  // KOLABENCH_FRONTEND_H_
