#include "aqua/parser.h"

#include "aqua/expr_parser.h"
#include "common/macros.h"
#include "common/string_util.h"

namespace kola {
namespace aqua {

namespace {

/// AQUA's own productions: the lambda-taking calls, `if`, a parenthesised
/// expression, and paths off any primary.
class AquaParser : public ExprParser {
 public:
  using ExprParser::ExprParser;

  StatusOr<ExprPtr> ParseAll() {
    KOLA_ASSIGN_OR_RETURN(ExprPtr expr, ParseExpr());
    KOLA_RETURN_IF_ERROR(ExpectEnd());
    return expr;
  }

 private:
  StatusOr<ExprPtr> ParseElement() override { return ParseExpr(); }

  StatusOr<ExprPtr> ParsePrimary() override {
    ExprPtr head;
    if (Peek().kind == Tok::kLParen) {
      Advance();
      KOLA_ASSIGN_OR_RETURN(head, ParseExpr());
      KOLA_RETURN_IF_ERROR(Expect(Tok::kRParen, "')'"));
    } else if (PeekIdent("app") || PeekIdent("sel")) {
      bool is_app = Advance().text == "app";
      KOLA_RETURN_IF_ERROR(Expect(Tok::kLParen, "'('"));
      KOLA_ASSIGN_OR_RETURN(ExprPtr lambda, ParseLambda());
      KOLA_RETURN_IF_ERROR(Expect(Tok::kRParen, "')'"));
      KOLA_ASSIGN_OR_RETURN(ExprPtr set, ParseArguments());
      head = is_app ? Expr::App(std::move(lambda), std::move(set))
                    : Expr::Sel(std::move(lambda), std::move(set));
    } else if (PeekIdent("flatten")) {
      Advance();
      KOLA_ASSIGN_OR_RETURN(ExprPtr set, ParseArguments());
      head = Expr::Flatten(std::move(set));
    } else if (PeekIdent("join")) {
      Advance();
      KOLA_RETURN_IF_ERROR(Expect(Tok::kLParen, "'('"));
      KOLA_ASSIGN_OR_RETURN(ExprPtr pred, ParseLambda());
      KOLA_RETURN_IF_ERROR(Expect(Tok::kComma, "','"));
      KOLA_ASSIGN_OR_RETURN(ExprPtr fn, ParseLambda());
      KOLA_RETURN_IF_ERROR(Expect(Tok::kRParen, "')'"));
      ExprPtr rhs;
      KOLA_ASSIGN_OR_RETURN(ExprPtr lhs, ParseArguments(&rhs));
      head = Expr::Join(std::move(pred), std::move(fn), std::move(lhs),
                        std::move(rhs));
    } else if (PeekIdent("if")) {
      Advance();
      KOLA_ASSIGN_OR_RETURN(ExprPtr cond, ParseExpr());
      KOLA_RETURN_IF_ERROR(ExpectKeyword("then"));
      KOLA_ASSIGN_OR_RETURN(ExprPtr then_branch, ParseExpr());
      KOLA_RETURN_IF_ERROR(ExpectKeyword("else"));
      KOLA_ASSIGN_OR_RETURN(ExprPtr else_branch, ParseExpr());
      head = Expr::IfThenElse(std::move(cond), std::move(then_branch),
                              std::move(else_branch));
    } else {
      KOLA_ASSIGN_OR_RETURN(head, ParseCommon());
    }
    return ParsePath(std::move(head));
  }

  /// '(' expr ')', or '(' expr ',' expr ')' when `second` is given.
  StatusOr<ExprPtr> ParseArguments(ExprPtr* second = nullptr) {
    KOLA_RETURN_IF_ERROR(Expect(Tok::kLParen, "'('"));
    KOLA_ASSIGN_OR_RETURN(ExprPtr first, ParseExpr());
    if (second != nullptr) {
      KOLA_RETURN_IF_ERROR(Expect(Tok::kComma, "','"));
      KOLA_ASSIGN_OR_RETURN(*second, ParseExpr());
    }
    KOLA_RETURN_IF_ERROR(Expect(Tok::kRParen, "')'"));
    return first;
  }

  StatusOr<ExprPtr> ParseLambda() {
    KOLA_RETURN_IF_ERROR(Expect(Tok::kBackslash, "'\\'"));
    std::vector<std::string> params;
    while (Peek().kind == Tok::kIdent) params.push_back(Advance().text);
    if (params.empty() || params.size() > 2) {
      return InvalidArgumentError("lambda takes one or two parameters");
    }
    KOLA_RETURN_IF_ERROR(Expect(Tok::kDot, "'.'"));
    for (const std::string& p : params) Bind(p);
    auto body = ParseExpr();
    for (const std::string& p : params) Unbind(p);
    if (!body.ok()) return body.status();
    return Expr::Lambda(std::move(params), std::move(body).value());
  }
};

}  // namespace

StatusOr<ExprPtr> ParseAqua(std::string_view text) {
  KOLA_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  AquaParser parser(std::move(tokens));
  auto expr = parser.ParseAll();
  if (!expr.ok()) {
    return expr.status().WithContext("while parsing AQUA " +
                                     QuoteForError(text));
  }
  return expr;
}

}  // namespace aqua
}  // namespace kola
