#include "aqua/expr_parser.h"

#include <cctype>

#include "common/macros.h"
#include "common/parse_number.h"
#include "common/string_util.h"

namespace kola {
namespace aqua {

StatusOr<std::vector<Token>> Tokenize(std::string_view text) {
  std::vector<Token> tokens;
  size_t pos = 0;
  while (true) {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
    size_t at = pos;
    if (pos >= text.size()) {
      tokens.push_back({Tok::kEnd, "", at});
      return tokens;
    }
    char c = text[pos];
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '-' && pos + 1 < text.size() &&
         std::isdigit(static_cast<unsigned char>(text[pos + 1])))) {
      size_t start = pos++;
      while (pos < text.size() &&
             std::isdigit(static_cast<unsigned char>(text[pos]))) {
        ++pos;
      }
      tokens.push_back(
          {Tok::kInt, std::string(text.substr(start, pos - start)), at});
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = pos;
      while (pos < text.size() &&
             (std::isalnum(static_cast<unsigned char>(text[pos])) ||
              text[pos] == '_' || text[pos] == '\'')) {
        ++pos;
      }
      tokens.push_back(
          {Tok::kIdent, std::string(text.substr(start, pos - start)), at});
      continue;
    }
    switch (c) {
      case '"': {
        ++pos;
        size_t start = pos;
        while (pos < text.size() && text[pos] != '"') ++pos;
        if (pos >= text.size()) {
          return InvalidArgumentError("unterminated string at " +
                                      std::to_string(at));
        }
        tokens.push_back(
            {Tok::kString, std::string(text.substr(start, pos - start)),
             at});
        ++pos;
        continue;
      }
      case '(': tokens.push_back({Tok::kLParen, "(", at}); break;
      case ')': tokens.push_back({Tok::kRParen, ")", at}); break;
      case '[': tokens.push_back({Tok::kLBracket, "[", at}); break;
      case ']': tokens.push_back({Tok::kRBracket, "]", at}); break;
      case '{': tokens.push_back({Tok::kLBrace, "{", at}); break;
      case '}': tokens.push_back({Tok::kRBrace, "}", at}); break;
      case ',': tokens.push_back({Tok::kComma, ",", at}); break;
      case '.': tokens.push_back({Tok::kDot, ".", at}); break;
      case '\\': tokens.push_back({Tok::kBackslash, "\\", at}); break;
      case '=':
      case '!':
      case '<':
      case '>': {
        std::string op(1, c);
        if (pos + 1 < text.size() && text[pos + 1] == '=') {
          op += '=';
          ++pos;
        }
        if (op == "=" || op == "!") {
          return InvalidArgumentError("unknown operator '" + op + "' at " +
                                      std::to_string(at));
        }
        tokens.push_back({Tok::kOp, op, at});
        break;
      }
      default:
        return InvalidArgumentError(std::string("unexpected character '") +
                                    c + "' at " + std::to_string(at));
    }
    ++pos;
  }
}

Status ExprParser::Expect(Tok kind, const char* what) {
  if (Peek().kind != kind) {
    return InvalidArgumentError(std::string("expected ") + what + " at " +
                                std::to_string(Peek().position) + ", got '" +
                                Peek().text + "'");
  }
  Advance();
  return Status::OK();
}

Status ExprParser::ExpectKeyword(const char* word) {
  if (!PeekIdent(word)) {
    return InvalidArgumentError(std::string("expected '") + word + "' at " +
                                std::to_string(Peek().position) + ", got '" +
                                Peek().text + "'");
  }
  Advance();
  return Status::OK();
}

Status ExprParser::ExpectEnd() const {
  if (Peek().kind != Tok::kEnd) {
    return InvalidArgumentError("trailing input at " +
                                std::to_string(Peek().position) + ": '" +
                                Peek().text + "'");
  }
  return Status::OK();
}

Status ExprParser::EnterNesting() {
  if (depth_ >= kMaxNestingDepth) {
    return ResourceExhaustedError(
        "expression nesting exceeds " + std::to_string(kMaxNestingDepth) +
        " levels at " + std::to_string(Peek().position));
  }
  ++depth_;
  return Status::OK();
}

StatusOr<ExprPtr> ExprParser::ParseExpr() {
  DepthGuard guard{this, depth_};
  KOLA_ASSIGN_OR_RETURN(ExprPtr left, ParseAnd());
  while (PeekIdent("or")) {
    KOLA_RETURN_IF_ERROR(EnterNesting());
    Advance();
    KOLA_ASSIGN_OR_RETURN(ExprPtr right, ParseAnd());
    left = Expr::Or(std::move(left), std::move(right));
  }
  return left;
}

StatusOr<ExprPtr> ExprParser::ParseAnd() {
  DepthGuard guard{this, depth_};
  KOLA_ASSIGN_OR_RETURN(ExprPtr left, ParseNot());
  while (PeekIdent("and")) {
    KOLA_RETURN_IF_ERROR(EnterNesting());
    Advance();
    KOLA_ASSIGN_OR_RETURN(ExprPtr right, ParseNot());
    left = Expr::And(std::move(left), std::move(right));
  }
  return left;
}

StatusOr<ExprPtr> ExprParser::ParseNot() {
  if (PeekIdent("not")) {
    DepthGuard guard{this, depth_};
    KOLA_RETURN_IF_ERROR(EnterNesting());
    Advance();
    KOLA_ASSIGN_OR_RETURN(ExprPtr operand, ParseNot());
    return Expr::Not(std::move(operand));
  }
  KOLA_ASSIGN_OR_RETURN(ExprPtr left, ParseOperand());
  BinOp op;
  if (Peek().kind == Tok::kOp) {
    const std::string& text = Peek().text;
    if (text == "==") op = BinOp::kEq;
    else if (text == "!=") op = BinOp::kNeq;
    else if (text == "<") op = BinOp::kLt;
    else if (text == "<=") op = BinOp::kLeq;
    else if (text == ">") op = BinOp::kGt;
    else op = BinOp::kGeq;
    Advance();
  } else if (PeekIdent("in")) {
    Advance();
    op = BinOp::kIn;
  } else {
    return left;
  }
  KOLA_ASSIGN_OR_RETURN(ExprPtr right, ParseOperand());
  return Expr::MakeBinOp(op, std::move(left), std::move(right));
}

StatusOr<ExprPtr> ExprParser::ParseOperand() {
  DepthGuard guard{this, depth_};
  KOLA_RETURN_IF_ERROR(EnterNesting());
  return ParsePrimary();
}

StatusOr<ExprPtr> ExprParser::ParsePath(ExprPtr head) {
  while (Peek().kind == Tok::kDot) {
    KOLA_RETURN_IF_ERROR(EnterNesting());
    Advance();
    if (Peek().kind != Tok::kIdent) {
      return InvalidArgumentError("expected attribute name after '.'");
    }
    head = Expr::FunCall(Advance().text, std::move(head));
  }
  return head;
}

StatusOr<ExprPtr> ExprParser::ParseCommon() {
  const Token& tok = Peek();
  switch (tok.kind) {
    case Tok::kInt: {
      Advance();
      // A lexed integer can still be overlong; reject instead of letting
      // std::stoll throw out of the parser.
      KOLA_ASSIGN_OR_RETURN(int64_t value, ParseInt64(tok.text));
      return Expr::Const(Value::Int(value));
    }
    case Tok::kString:
      Advance();
      return Expr::Const(Value::Str(tok.text));
    case Tok::kLBrace: {
      Advance();
      std::vector<Value> elements;
      if (Peek().kind != Tok::kRBrace) {
        while (true) {
          KOLA_ASSIGN_OR_RETURN(ExprPtr element, ParseElement());
          if (element->kind() != ExprKind::kConst) {
            return InvalidArgumentError(
                "set literals may only contain constants");
          }
          elements.push_back(element->literal());
          if (Peek().kind != Tok::kComma) break;
          Advance();
        }
      }
      KOLA_RETURN_IF_ERROR(Expect(Tok::kRBrace, "'}'"));
      return Expr::Const(Value::MakeSet(std::move(elements)));
    }
    case Tok::kLBracket: {
      Advance();
      KOLA_ASSIGN_OR_RETURN(ExprPtr a, ParseElement());
      KOLA_RETURN_IF_ERROR(Expect(Tok::kComma, "','"));
      KOLA_ASSIGN_OR_RETURN(ExprPtr b, ParseElement());
      KOLA_RETURN_IF_ERROR(Expect(Tok::kRBracket, "']'"));
      return Expr::Tuple(std::move(a), std::move(b));
    }
    case Tok::kIdent:
      Advance();
      if (tok.text == "true" || tok.text == "false") {
        return Expr::Const(Value::Bool(tok.text == "true"));
      }
      return ParsePath(bound_.count(tok.text) > 0
                           ? Expr::Var(tok.text)
                           : Expr::Collection(tok.text));
    default:
      return InvalidArgumentError("unexpected token " +
                                  QuoteForError(tok.text) + " at " +
                                  std::to_string(tok.position));
  }
}

}  // namespace aqua
}  // namespace kola
