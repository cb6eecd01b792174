#ifndef KOLA_AQUA_EXPR_PARSER_H_
#define KOLA_AQUA_EXPR_PARSER_H_

// The lexer and expression grammar shared by the AQUA and OQL front ends
// (aqua/parser.cc, oql/oql.cc): OQL's expressions are AQUA's. Only the two
// front ends include this header.

#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "aqua/expr.h"
#include "common/statusor.h"

namespace kola {
namespace aqua {

enum class Tok {
  kIdent,
  kInt,
  kString,
  kLParen,
  kRParen,
  kLBracket,
  kRBracket,
  kLBrace,
  kRBrace,
  kComma,
  kDot,
  kBackslash,
  kOp,  // == != < <= > >=
  kEnd,
};

struct Token {
  Tok kind;
  std::string text;
  size_t position;
};

/// Splits `text` into tokens, ending with one kEnd.
StatusOr<std::vector<Token>> Tokenize(std::string_view text);

/// Recursive-descent core for the levels both languages share:
///
///   expr     := and ('or' and)*
///   and      := not ('and' not)*
///   not      := 'not' not | operand (CMP operand)?
///   operand  := the language's primary (ParsePrimary)
///   common   := INT | STRING | 'true' | 'false'
///             | '{' (element (',' element)*)? '}'  -- constants only
///             | '[' element ',' element ']'
///             | IDENT ('.' IDENT)*
///
/// A language supplies its primary -- its keywords and its parenthesised
/// operand -- falling back to ParseCommon, and says what a set or tuple
/// element is.
class ExprParser {
 public:
  explicit ExprParser(std::vector<Token> tokens)
      : tokens_(std::move(tokens)) {}

 protected:
  const Token& Peek() const { return tokens_[index_]; }
  /// The token after Peek(); valid whenever Peek() is not kEnd.
  const Token& PeekNext() const { return tokens_[index_ + 1]; }
  const Token& Advance() { return tokens_[index_++]; }
  bool PeekIdent(const char* word) const {
    return Peek().kind == Tok::kIdent && Peek().text == word;
  }
  Status Expect(Tok kind, const char* what);
  Status ExpectKeyword(const char* word);
  /// Fails unless every token has been consumed.
  Status ExpectEnd() const;

  StatusOr<ExprPtr> ParseExpr();
  /// One nesting level: charges the depth guard, then ParsePrimary.
  StatusOr<ExprPtr> ParseOperand();
  /// Wraps `head` in one attribute call per `.IDENT` that follows.
  StatusOr<ExprPtr> ParsePath(ExprPtr head);
  StatusOr<ExprPtr> ParseCommon();

  virtual StatusOr<ExprPtr> ParsePrimary() = 0;
  virtual StatusOr<ExprPtr> ParseElement() = 0;

  // Names bound by enclosing binders; a multiset, so binders may shadow.
  void Bind(const std::string& name) { bound_.insert(name); }
  void Unbind(const std::string& name) { bound_.erase(bound_.find(name)); }

  size_t index_ = 0;

 private:
  // Nesting bound for the recursive descent: adversarially deep inputs --
  // a 100k-deep paren spine off the wire -- must fail with
  // RESOURCE_EXHAUSTED before the native stack runs out, in every build.
  // Each nesting level charges once: an operand, a `not`, an `and`/`or`
  // link, a `.` (chains and paths deepen the tree without recursing). The
  // costliest level, an AQUA set or tuple element, takes about 14.6 KB of
  // stack under AddressSanitizer (DESIGN.md §8), so 256 levels stay under
  // 4 MB, half a default 8 MiB thread stack. Real queries nest far below
  // this.
  static constexpr int kMaxNestingDepth = 256;

  // Restores the depth a function entered with, so loop iterations can
  // charge EnterNesting once per constructed level and the whole frame's
  // charge is released on exit.
  struct DepthGuard {
    ExprParser* parser;
    int saved;
    ~DepthGuard() { parser->depth_ = saved; }
  };
  Status EnterNesting();

  StatusOr<ExprPtr> ParseAnd();
  StatusOr<ExprPtr> ParseNot();

  std::vector<Token> tokens_;
  int depth_ = 0;
  std::multiset<std::string> bound_;
};

}  // namespace aqua
}  // namespace kola

#endif  // KOLA_AQUA_EXPR_PARSER_H_
