#include "oql/oql.h"

#include <vector>

#include "aqua/expr_parser.h"
#include "common/macros.h"
#include "common/string_util.h"

namespace kola {
namespace oql {

namespace {

using aqua::Expr;
using aqua::ExprKind;
using aqua::ExprPtr;
using aqua::Tok;
using aqua::Token;

/// OQL's own productions on top of the shared expression grammar: the
/// select block and its lowering, sub-selects in parentheses and under
/// `flatten(`, and set and tuple elements that are operands.
class OqlParser : public aqua::ExprParser {
 public:
  using ExprParser::ExprParser;

  StatusOr<ExprPtr> ParseAll() {
    KOLA_ASSIGN_OR_RETURN(ExprPtr query, ParseSelect());
    KOLA_RETURN_IF_ERROR(ExpectEnd());
    return query;
  }

 private:
  StatusOr<ExprPtr> ParseElement() override { return ParseOperand(); }

  StatusOr<ExprPtr> ParsePrimary() override {
    if (Peek().kind == Tok::kLParen) {
      Advance();
      KOLA_ASSIGN_OR_RETURN(ExprPtr inner,
                            PeekIdent("select") ? ParseSelect() : ParseExpr());
      KOLA_RETURN_IF_ERROR(Expect(Tok::kRParen, "')'"));
      return inner;
    }
    if (PeekIdent("flatten") && PeekNext().kind == Tok::kLParen) {
      Advance();  // flatten
      Advance();  // (
      KOLA_ASSIGN_OR_RETURN(
          ExprPtr inner, PeekIdent("select") ? ParseSelect() : ParseOperand());
      KOLA_RETURN_IF_ERROR(Expect(Tok::kRParen, "')'"));
      return Expr::Flatten(std::move(inner));
    }
    return ParseCommon();
  }

  /// select E from x1 in C1, ... where Q
  StatusOr<ExprPtr> ParseSelect() {
    KOLA_RETURN_IF_ERROR(ExpectKeyword("select"));
    // Every FROM variable is in scope of the select list, so its tokens
    // are skipped here and parsed once the bindings are known.
    size_t projection_start = index_;
    KOLA_RETURN_IF_ERROR(SkipExprTokens());
    size_t projection_end = index_;

    KOLA_RETURN_IF_ERROR(ExpectKeyword("from"));
    struct Binding {
      std::string var;
      ExprPtr source;
    };
    std::vector<Binding> bindings;
    while (true) {
      if (Peek().kind != Tok::kIdent) {
        return InvalidArgumentError("expected binding variable at " +
                                    std::to_string(Peek().position));
      }
      std::string var = Advance().text;
      KOLA_RETURN_IF_ERROR(ExpectKeyword("in"));
      KOLA_ASSIGN_OR_RETURN(ExprPtr source, ParseOperand());
      bindings.push_back(Binding{var, std::move(source)});
      Bind(bindings.back().var);
      if (Peek().kind != Tok::kComma) break;
      Advance();
    }

    ExprPtr predicate;  // may stay null
    if (PeekIdent("where")) {
      Advance();
      KOLA_ASSIGN_OR_RETURN(predicate, ParseExpr());
    }

    size_t saved = index_;
    index_ = projection_start;
    KOLA_ASSIGN_OR_RETURN(ExprPtr projection, ParseOperand());
    if (index_ != projection_end) {
      return InvalidArgumentError("malformed select list");
    }
    index_ = saved;

    for (const Binding& b : bindings) Unbind(b.var);

    // Lower: innermost binding gets app/sel; outer bindings wrap
    // flatten(app(...)).
    const Binding& innermost = bindings.back();
    ExprPtr source = innermost.source;
    if (predicate != nullptr) {
      source = Expr::Sel(Expr::Lambda({innermost.var}, predicate),
                         std::move(source));
    }
    // `select x from x in S ...` needs no identity map over S.
    bool trivial_projection = projection->kind() == ExprKind::kVar &&
                              projection->name() == innermost.var;
    ExprPtr lowered =
        trivial_projection
            ? std::move(source)
            : Expr::App(Expr::Lambda({innermost.var}, projection),
                        std::move(source));
    for (size_t i = bindings.size() - 1; i-- > 0;) {
      lowered = Expr::Flatten(Expr::App(
          Expr::Lambda({bindings[i].var}, std::move(lowered)),
          bindings[i].source));
    }
    return lowered;
  }

  /// Skips one expression's tokens (balanced brackets) up to the keyword
  /// `from` at depth 0.
  Status SkipExprTokens() {
    int depth = 0;
    while (true) {
      const Token& tok = Peek();
      if (tok.kind == Tok::kEnd) {
        return InvalidArgumentError("unterminated select list");
      }
      if (depth == 0 && tok.kind == Tok::kIdent && tok.text == "from") {
        return Status::OK();
      }
      if (tok.kind == Tok::kLParen || tok.kind == Tok::kLBracket ||
          tok.kind == Tok::kLBrace) {
        ++depth;
      }
      if (tok.kind == Tok::kRParen || tok.kind == Tok::kRBracket ||
          tok.kind == Tok::kRBrace) {
        --depth;
        if (depth < 0) return InvalidArgumentError("unbalanced brackets");
      }
      Advance();
    }
  }
};

/// OQL's tokens are AQUA's without lambdas' `\` and primed identifiers.
/// Like the lexer's own errors they are rejected before parsing, so no
/// later syntax or nesting error can stand in for them.
Status RejectAquaOnlyTokens(const std::vector<Token>& tokens,
                            std::string_view text) {
  for (const Token& token : tokens) {
    size_t at = token.position;
    if (token.kind == Tok::kIdent) {
      size_t prime = token.text.find('\'');
      if (prime == std::string::npos) continue;
      at += prime;
    } else if (token.kind != Tok::kBackslash) {
      continue;
    }
    return InvalidArgumentError(std::string("unexpected character '") +
                                text[at] + "' at " + std::to_string(at));
  }
  return Status::OK();
}

}  // namespace

StatusOr<aqua::ExprPtr> ParseOql(std::string_view text) {
  KOLA_ASSIGN_OR_RETURN(std::vector<Token> tokens, aqua::Tokenize(text));
  KOLA_RETURN_IF_ERROR(RejectAquaOnlyTokens(tokens, text));
  OqlParser parser(std::move(tokens));
  auto expr = parser.ParseAll();
  if (!expr.ok()) {
    return expr.status().WithContext("while parsing OQL " +
                                     QuoteForError(text));
  }
  return expr;
}

}  // namespace oql
}  // namespace kola
