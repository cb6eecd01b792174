#include "term/parser.h"

#include <cctype>
#include <memory>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/parse_number.h"
#include "common/string_util.h"

namespace kola {

namespace {

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

enum class TokKind {
  kIdent,
  kInt,
  kString,
  kMetaVar,  // ?name
  kObjRef,   // obj<classid>#objid (text is "classid#objid")
  kLParen,
  kRParen,
  kLBracket,
  kRBracket,
  kLBrace,
  kRBrace,
  kLBagBrace,  // {|  (bag literal open, must be adjacent)
  kRBagBrace,  // |}  (bag literal close)
  kComma,
  kBang,     // !
  kQuestion, // ? (as operator; disambiguated from metavars in the lexer)
  kPipe,
  kAmp,
  kAt,
  kEnd,
};

struct Token {
  TokKind kind;
  std::string text;
  size_t position;
};

class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  StatusOr<std::vector<Token>> Tokenize() {
    std::vector<Token> tokens;
    while (true) {
      SkipWhitespace();
      size_t at = pos_;
      if (pos_ >= text_.size()) {
        tokens.push_back({TokKind::kEnd, "", at});
        return tokens;
      }
      char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c)) ||
          (c == '-' && pos_ + 1 < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_ + 1])))) {
        size_t start = pos_;
        ++pos_;
        while (pos_ < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
          ++pos_;
        }
        tokens.push_back(
            {TokKind::kInt, std::string(text_.substr(start, pos_ - start)),
             at});
        continue;
      }
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '_')) {
          ++pos_;
        }
        std::string ident(text_.substr(start, pos_ - start));
        // `obj<classid>#objid` is how Value prints object references; accept
        // it back so shrunk soundness repros replay verbatim.
        if (ident == "obj" && pos_ < text_.size() && text_[pos_] == '<') {
          ++pos_;  // <
          KOLA_ASSIGN_OR_RETURN(std::string class_id, LexDigits(at));
          if (pos_ >= text_.size() || text_[pos_] != '>') {
            return InvalidArgumentError("expected '>' in object literal at " +
                                        std::to_string(at));
          }
          ++pos_;  // >
          if (pos_ >= text_.size() || text_[pos_] != '#') {
            return InvalidArgumentError("expected '#' in object literal at " +
                                        std::to_string(at));
          }
          ++pos_;  // #
          KOLA_ASSIGN_OR_RETURN(std::string object_id, LexDigits(at));
          tokens.push_back({TokKind::kObjRef, class_id + "#" + object_id, at});
          continue;
        }
        tokens.push_back({TokKind::kIdent, std::move(ident), at});
        continue;
      }
      switch (c) {
        case '"': {
          ++pos_;
          size_t start = pos_;
          while (pos_ < text_.size() && text_[pos_] != '"') ++pos_;
          if (pos_ >= text_.size()) {
            return InvalidArgumentError("unterminated string literal at " +
                                        std::to_string(at));
          }
          tokens.push_back(
              {TokKind::kString,
               std::string(text_.substr(start, pos_ - start)), at});
          ++pos_;
          continue;
        }
        case '?': {
          // `?name` immediately followed by a letter is a metavariable;
          // otherwise `?` is the predicate-apply operator.
          if (pos_ + 1 < text_.size() &&
              (std::isalpha(static_cast<unsigned char>(text_[pos_ + 1])) ||
               text_[pos_ + 1] == '_')) {
            ++pos_;
            size_t start = pos_;
            while (pos_ < text_.size() &&
                   (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
                    text_[pos_] == '_')) {
              ++pos_;
            }
            tokens.push_back(
                {TokKind::kMetaVar,
                 std::string(text_.substr(start, pos_ - start)), at});
          } else {
            ++pos_;
            tokens.push_back({TokKind::kQuestion, "?", at});
          }
          continue;
        }
        case '(': tokens.push_back({TokKind::kLParen, "(", at}); break;
        case ')': tokens.push_back({TokKind::kRParen, ")", at}); break;
        case '[': tokens.push_back({TokKind::kLBracket, "[", at}); break;
        case ']': tokens.push_back({TokKind::kRBracket, "]", at}); break;
        case '{':
          if (pos_ + 1 < text_.size() && text_[pos_ + 1] == '|') {
            tokens.push_back({TokKind::kLBagBrace, "{|", at});
            ++pos_;
          } else {
            tokens.push_back({TokKind::kLBrace, "{", at});
          }
          break;
        case '}': tokens.push_back({TokKind::kRBrace, "}", at}); break;
        case ',': tokens.push_back({TokKind::kComma, ",", at}); break;
        case '!': tokens.push_back({TokKind::kBang, "!", at}); break;
        case '|':
          if (pos_ + 1 < text_.size() && text_[pos_ + 1] == '}') {
            tokens.push_back({TokKind::kRBagBrace, "|}", at});
            ++pos_;
          } else {
            tokens.push_back({TokKind::kPipe, "|", at});
          }
          break;
        case '&': tokens.push_back({TokKind::kAmp, "&", at}); break;
        case '@': tokens.push_back({TokKind::kAt, "@", at}); break;
        default:
          return InvalidArgumentError(std::string("unexpected character '") +
                                      c + "' at " + std::to_string(at));
      }
      ++pos_;
    }
  }

 private:
  StatusOr<std::string> LexDigits(size_t at) {
    size_t start = pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (pos_ == start) {
      return InvalidArgumentError("expected digits in object literal at " +
                                  std::to_string(at));
    }
    return std::string(text_.substr(start, pos_ - start));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Untyped CST. Elaboration to sorted Terms happens in a second pass because
// the sort of an identifier leaf depends on its context.
// ---------------------------------------------------------------------------

struct Cst;
using CstPtr = std::unique_ptr<Cst>;

enum class CstKind {
  kIdent,
  kInt,
  kString,
  kMetaVar,
  kObjRef,   // obj<classid>#objid (text is "classid#objid")
  kCall,     // former(args...)
  kPair,     // (a, b) -- function pair former
  kBracket,  // [a, b] -- object pair
  kSet,      // {a, b, ...} literal
  kBag,      // {|a, b, ...|} literal (multiset)
  kBinary,   // op in { o x @ & | ! ? }
};

struct Cst {
  CstKind kind;
  std::string text;  // ident name / int text / string body / operator
  std::vector<CstPtr> children;
  size_t position = 0;
};

CstPtr MakeCst(CstKind kind, std::string text, size_t position) {
  auto node = std::make_unique<Cst>();
  node->kind = kind;
  node->text = std::move(text);
  node->position = position;
  return node;
}

bool IsFormer(const std::string& name) {
  return name == "Kf" || name == "Cf" || name == "con" || name == "Kp" ||
         name == "Cp" || name == "inv" || name == "not" ||
         name == "iterate" || name == "iter" || name == "join" ||
         name == "nest" || name == "unnest";
}

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  StatusOr<CstPtr> ParseAll() {
    KOLA_ASSIGN_OR_RETURN(CstPtr expr, ParseApply());
    if (Peek().kind != TokKind::kEnd) {
      return InvalidArgumentError("trailing input at position " +
                                  std::to_string(Peek().position) + ": '" +
                                  Peek().text + "'");
    }
    return expr;
  }

 private:
  // Nesting bound for the recursive descent. Every nesting level of the
  // input (parentheses, `!`/`o` right recursion) costs a handful of native
  // frames, so adversarially deep inputs -- like the printed form of a
  // 100k-node spine -- must fail with RESOURCE_EXHAUSTED well before the
  // native stack runs out. Real queries and shrunk repros nest far below
  // this.
  static constexpr int kMaxNestingDepth = 1'000;

  struct DepthGuard {
    Parser* parser;
    ~DepthGuard() { --parser->depth_; }
  };

  Status EnterNesting() {
    if (depth_ >= kMaxNestingDepth) {
      return ResourceExhaustedError(
          "term nesting exceeds " + std::to_string(kMaxNestingDepth) +
          " levels at position " + std::to_string(Peek().position));
    }
    ++depth_;
    return Status::OK();
  }

  const Token& Peek() const { return tokens_[index_]; }
  Token Advance() { return tokens_[index_++]; }
  bool PeekIsIdent(const char* name) const {
    return Peek().kind == TokKind::kIdent && Peek().text == name;
  }

  // Level 0: apply (right associative).
  StatusOr<CstPtr> ParseApply() {
    KOLA_RETURN_IF_ERROR(EnterNesting());
    DepthGuard guard{this};
    KOLA_ASSIGN_OR_RETURN(CstPtr left, ParseOr());
    if (Peek().kind == TokKind::kBang || Peek().kind == TokKind::kQuestion) {
      Token op = Advance();
      KOLA_ASSIGN_OR_RETURN(CstPtr right, ParseApply());
      CstPtr node = MakeCst(CstKind::kBinary,
                            op.kind == TokKind::kBang ? "!" : "?",
                            op.position);
      node->children.push_back(std::move(left));
      node->children.push_back(std::move(right));
      return node;
    }
    return left;
  }

  StatusOr<CstPtr> ParseOr() {
    KOLA_ASSIGN_OR_RETURN(CstPtr left, ParseAnd());
    while (Peek().kind == TokKind::kPipe) {
      Token op = Advance();
      KOLA_ASSIGN_OR_RETURN(CstPtr right, ParseAnd());
      CstPtr node = MakeCst(CstKind::kBinary, "|", op.position);
      node->children.push_back(std::move(left));
      node->children.push_back(std::move(right));
      left = std::move(node);
    }
    return left;
  }

  StatusOr<CstPtr> ParseAnd() {
    KOLA_ASSIGN_OR_RETURN(CstPtr left, ParseOplus());
    while (Peek().kind == TokKind::kAmp) {
      Token op = Advance();
      KOLA_ASSIGN_OR_RETURN(CstPtr right, ParseOplus());
      CstPtr node = MakeCst(CstKind::kBinary, "&", op.position);
      node->children.push_back(std::move(left));
      node->children.push_back(std::move(right));
      left = std::move(node);
    }
    return left;
  }

  StatusOr<CstPtr> ParseOplus() {
    KOLA_ASSIGN_OR_RETURN(CstPtr left, ParseProduct());
    while (Peek().kind == TokKind::kAt) {
      Token op = Advance();
      KOLA_ASSIGN_OR_RETURN(CstPtr right, ParseProduct());
      CstPtr node = MakeCst(CstKind::kBinary, "@", op.position);
      node->children.push_back(std::move(left));
      node->children.push_back(std::move(right));
      left = std::move(node);
    }
    return left;
  }

  StatusOr<CstPtr> ParseProduct() {
    KOLA_ASSIGN_OR_RETURN(CstPtr left, ParseCompose());
    while (PeekIsIdent("x")) {
      Token op = Advance();
      KOLA_ASSIGN_OR_RETURN(CstPtr right, ParseCompose());
      CstPtr node = MakeCst(CstKind::kBinary, "x", op.position);
      node->children.push_back(std::move(left));
      node->children.push_back(std::move(right));
      left = std::move(node);
    }
    return left;
  }

  // Right associative: `f o g o h` parses as f o (g o h).
  StatusOr<CstPtr> ParseCompose() {
    KOLA_RETURN_IF_ERROR(EnterNesting());
    DepthGuard guard{this};
    KOLA_ASSIGN_OR_RETURN(CstPtr left, ParseAtom());
    if (PeekIsIdent("o")) {
      Token op = Advance();
      KOLA_ASSIGN_OR_RETURN(CstPtr right, ParseCompose());
      CstPtr node = MakeCst(CstKind::kBinary, "o", op.position);
      node->children.push_back(std::move(left));
      node->children.push_back(std::move(right));
      return node;
    }
    return left;
  }

  StatusOr<CstPtr> ParseAtom() {
    Token tok = Peek();
    switch (tok.kind) {
      case TokKind::kInt:
        Advance();
        return MakeCst(CstKind::kInt, tok.text, tok.position);
      case TokKind::kString:
        Advance();
        return MakeCst(CstKind::kString, tok.text, tok.position);
      case TokKind::kMetaVar:
        Advance();
        return MakeCst(CstKind::kMetaVar, tok.text, tok.position);
      case TokKind::kObjRef:
        Advance();
        return MakeCst(CstKind::kObjRef, tok.text, tok.position);
      case TokKind::kIdent: {
        Advance();
        if (IsFormer(tok.text) && Peek().kind == TokKind::kLParen) {
          Advance();  // (
          CstPtr node = MakeCst(CstKind::kCall, tok.text, tok.position);
          if (Peek().kind != TokKind::kRParen) {
            while (true) {
              KOLA_ASSIGN_OR_RETURN(CstPtr arg, ParseApply());
              node->children.push_back(std::move(arg));
              if (Peek().kind != TokKind::kComma) break;
              Advance();
            }
          }
          if (Peek().kind != TokKind::kRParen) {
            return InvalidArgumentError("expected ')' at position " +
                                        std::to_string(Peek().position));
          }
          Advance();
          return node;
        }
        return MakeCst(CstKind::kIdent, tok.text, tok.position);
      }
      case TokKind::kLParen: {
        Advance();
        KOLA_ASSIGN_OR_RETURN(CstPtr first, ParseApply());
        if (Peek().kind == TokKind::kComma) {
          Advance();
          KOLA_ASSIGN_OR_RETURN(CstPtr second, ParseApply());
          if (Peek().kind != TokKind::kRParen) {
            return InvalidArgumentError("expected ')' in pair at position " +
                                        std::to_string(Peek().position));
          }
          Advance();
          CstPtr node = MakeCst(CstKind::kPair, "", tok.position);
          node->children.push_back(std::move(first));
          node->children.push_back(std::move(second));
          return node;
        }
        if (Peek().kind != TokKind::kRParen) {
          return InvalidArgumentError("expected ')' at position " +
                                      std::to_string(Peek().position));
        }
        Advance();
        return first;
      }
      case TokKind::kLBracket: {
        Advance();
        KOLA_ASSIGN_OR_RETURN(CstPtr first, ParseApply());
        if (Peek().kind != TokKind::kComma) {
          return InvalidArgumentError("expected ',' in object pair");
        }
        Advance();
        KOLA_ASSIGN_OR_RETURN(CstPtr second, ParseApply());
        if (Peek().kind != TokKind::kRBracket) {
          return InvalidArgumentError("expected ']' at position " +
                                      std::to_string(Peek().position));
        }
        Advance();
        CstPtr node = MakeCst(CstKind::kBracket, "", tok.position);
        node->children.push_back(std::move(first));
        node->children.push_back(std::move(second));
        return node;
      }
      case TokKind::kLBrace:
      case TokKind::kLBagBrace: {
        bool is_bag = tok.kind == TokKind::kLBagBrace;
        TokKind closer = is_bag ? TokKind::kRBagBrace : TokKind::kRBrace;
        Advance();
        CstPtr node = MakeCst(is_bag ? CstKind::kBag : CstKind::kSet, "",
                              tok.position);
        if (Peek().kind != closer) {
          while (true) {
            KOLA_ASSIGN_OR_RETURN(CstPtr element, ParseApply());
            node->children.push_back(std::move(element));
            if (Peek().kind != TokKind::kComma) break;
            Advance();
          }
        }
        if (Peek().kind != closer) {
          return InvalidArgumentError(
              std::string("expected '") + (is_bag ? "|}" : "}") +
              "' at position " + std::to_string(Peek().position));
        }
        Advance();
        return node;
      }
      default:
        return InvalidArgumentError("unexpected token " +
                                    QuoteForError(tok.text) +
                                    " at position " +
                                    std::to_string(tok.position));
    }
  }

  std::vector<Token> tokens_;
  size_t index_ = 0;
  int depth_ = 0;  // current nesting depth, see EnterNesting()
};

// ---------------------------------------------------------------------------
// Elaboration (sort-directed CST -> Term)
// ---------------------------------------------------------------------------

Sort MetaVarSort(const std::string& name) {
  switch (name[0]) {
    case 'f':
    case 'g':
    case 'h':
    case 'j':
      return Sort::kFunction;
    case 'p':
    case 'q':
      return Sort::kPredicate;
    case 'b':
      return Sort::kBool;
    default:
      return Sort::kObject;
  }
}

StatusOr<TermPtr> Elaborate(const Cst& cst, Sort expected);

/// Decodes the "classid#objid" payload of an object-reference token.
/// Both halves are validated: an overlong id is a parse error, not an
/// abort, and the class id must fit the int32 Value::Object carries.
StatusOr<Value> ObjRefValue(const std::string& text) {
  size_t hash = text.find('#');
  if (hash == std::string::npos) {
    return InvalidArgumentError("malformed object literal '" + text + "'");
  }
  KOLA_ASSIGN_OR_RETURN(
      int64_t class_id,
      ParseInt64InRange(std::string_view(text).substr(0, hash),
                        "object class id", 0, INT32_MAX));
  KOLA_ASSIGN_OR_RETURN(int64_t obj_id,
                        ParseInt64(std::string_view(text).substr(hash + 1)));
  return Value::Object(static_cast<int32_t>(class_id), obj_id);
}

/// Evaluates a CST that must denote a compile-time literal Value (set
/// elements).
StatusOr<Value> LiteralValue(const Cst& cst) {
  switch (cst.kind) {
    case CstKind::kInt: {
      KOLA_ASSIGN_OR_RETURN(int64_t value, ParseInt64(cst.text));
      return Value::Int(value);
    }
    case CstKind::kObjRef:
      return ObjRefValue(cst.text);
    case CstKind::kString:
      return Value::Str(cst.text);
    case CstKind::kIdent:
      if (cst.text == "true") return Value::Bool(true);
      if (cst.text == "false") return Value::Bool(false);
      return InvalidArgumentError("set literals may only contain literals; "
                                  "got identifier '" +
                                  cst.text + "'");
    case CstKind::kSet:
    case CstKind::kBag: {
      std::vector<Value> elements;
      for (const CstPtr& c : cst.children) {
        KOLA_ASSIGN_OR_RETURN(Value v, LiteralValue(*c));
        elements.push_back(std::move(v));
      }
      return cst.kind == CstKind::kSet
                 ? Value::MakeSet(std::move(elements))
                 : Value::MakeBag(std::move(elements));
    }
    case CstKind::kBracket: {
      KOLA_ASSIGN_OR_RETURN(Value a, LiteralValue(*cst.children[0]));
      KOLA_ASSIGN_OR_RETURN(Value b, LiteralValue(*cst.children[1]));
      return Value::MakePair(std::move(a), std::move(b));
    }
    default:
      return InvalidArgumentError("expected a literal value");
  }
}

StatusOr<TermPtr> ElaborateCall(const Cst& cst, Sort expected) {
  const std::string& f = cst.text;
  auto need = [&](size_t n) -> Status {
    if (cst.children.size() != n) {
      return InvalidArgumentError(f + " takes " + std::to_string(n) +
                                  " arguments, got " +
                                  std::to_string(cst.children.size()));
    }
    return Status::OK();
  };
  auto check_sort = [&](Sort produced) -> Status {
    if (!SortMatches(expected, produced)) {
      return InvalidArgumentError(f + " produces a " +
                                  SortToString(produced) + " but a " +
                                  SortToString(expected) + " was expected");
    }
    return Status::OK();
  };

  if (f == "Kf") {
    KOLA_RETURN_IF_ERROR(need(1));
    KOLA_RETURN_IF_ERROR(check_sort(Sort::kFunction));
    KOLA_ASSIGN_OR_RETURN(TermPtr x, Elaborate(*cst.children[0], Sort::kObject));
    return Term::Make(TermKind::kConstFn, {std::move(x)});
  }
  if (f == "Cf") {
    KOLA_RETURN_IF_ERROR(need(2));
    KOLA_RETURN_IF_ERROR(check_sort(Sort::kFunction));
    KOLA_ASSIGN_OR_RETURN(TermPtr a, Elaborate(*cst.children[0], Sort::kFunction));
    KOLA_ASSIGN_OR_RETURN(TermPtr b, Elaborate(*cst.children[1], Sort::kObject));
    return Term::Make(TermKind::kCurryFn, {std::move(a), std::move(b)});
  }
  if (f == "con") {
    KOLA_RETURN_IF_ERROR(need(3));
    KOLA_RETURN_IF_ERROR(check_sort(Sort::kFunction));
    KOLA_ASSIGN_OR_RETURN(TermPtr p, Elaborate(*cst.children[0], Sort::kPredicate));
    KOLA_ASSIGN_OR_RETURN(TermPtr a, Elaborate(*cst.children[1], Sort::kFunction));
    KOLA_ASSIGN_OR_RETURN(TermPtr b, Elaborate(*cst.children[2], Sort::kFunction));
    return Term::Make(TermKind::kCond, {std::move(p), std::move(a), std::move(b)});
  }
  if (f == "Kp") {
    KOLA_RETURN_IF_ERROR(need(1));
    KOLA_RETURN_IF_ERROR(check_sort(Sort::kPredicate));
    KOLA_ASSIGN_OR_RETURN(TermPtr b, Elaborate(*cst.children[0], Sort::kBool));
    return Term::Make(TermKind::kConstPred, {std::move(b)});
  }
  if (f == "Cp") {
    KOLA_RETURN_IF_ERROR(need(2));
    KOLA_RETURN_IF_ERROR(check_sort(Sort::kPredicate));
    KOLA_ASSIGN_OR_RETURN(TermPtr p, Elaborate(*cst.children[0], Sort::kPredicate));
    KOLA_ASSIGN_OR_RETURN(TermPtr x, Elaborate(*cst.children[1], Sort::kObject));
    return Term::Make(TermKind::kCurryPred, {std::move(p), std::move(x)});
  }
  if (f == "inv" || f == "not") {
    KOLA_RETURN_IF_ERROR(need(1));
    KOLA_RETURN_IF_ERROR(check_sort(Sort::kPredicate));
    KOLA_ASSIGN_OR_RETURN(TermPtr p, Elaborate(*cst.children[0], Sort::kPredicate));
    return Term::Make(f == "inv" ? TermKind::kInvP : TermKind::kNotP,
                      {std::move(p)});
  }
  if (f == "iterate" || f == "iter" || f == "join") {
    KOLA_RETURN_IF_ERROR(need(2));
    KOLA_RETURN_IF_ERROR(check_sort(Sort::kFunction));
    KOLA_ASSIGN_OR_RETURN(TermPtr p, Elaborate(*cst.children[0], Sort::kPredicate));
    KOLA_ASSIGN_OR_RETURN(TermPtr fn, Elaborate(*cst.children[1], Sort::kFunction));
    TermKind kind = f == "iterate" ? TermKind::kIterate
                    : f == "iter"  ? TermKind::kIter
                                   : TermKind::kJoin;
    return Term::Make(kind, {std::move(p), std::move(fn)});
  }
  if (f == "nest" || f == "unnest") {
    KOLA_RETURN_IF_ERROR(need(2));
    KOLA_RETURN_IF_ERROR(check_sort(Sort::kFunction));
    KOLA_ASSIGN_OR_RETURN(TermPtr a, Elaborate(*cst.children[0], Sort::kFunction));
    KOLA_ASSIGN_OR_RETURN(TermPtr b, Elaborate(*cst.children[1], Sort::kFunction));
    return Term::Make(f == "nest" ? TermKind::kNest : TermKind::kUnnest,
                      {std::move(a), std::move(b)});
  }
  return InvalidArgumentError("unknown former: " + f);
}

StatusOr<TermPtr> ElaborateBinary(const Cst& cst, Sort expected) {
  const std::string& op = cst.text;
  struct OpSig {
    Sort left;
    Sort right;
    Sort result;
    TermKind kind;
  };
  OpSig sig;
  if (op == "o") {
    sig = {Sort::kFunction, Sort::kFunction, Sort::kFunction,
           TermKind::kCompose};
  } else if (op == "x") {
    sig = {Sort::kFunction, Sort::kFunction, Sort::kFunction,
           TermKind::kProduct};
  } else if (op == "@") {
    sig = {Sort::kPredicate, Sort::kFunction, Sort::kPredicate,
           TermKind::kOplus};
  } else if (op == "&") {
    sig = {Sort::kPredicate, Sort::kPredicate, Sort::kPredicate,
           TermKind::kAndP};
  } else if (op == "|") {
    sig = {Sort::kPredicate, Sort::kPredicate, Sort::kPredicate,
           TermKind::kOrP};
  } else if (op == "!") {
    sig = {Sort::kFunction, Sort::kObject, Sort::kObject, TermKind::kApplyFn};
  } else if (op == "?") {
    sig = {Sort::kPredicate, Sort::kObject, Sort::kBool,
           TermKind::kApplyPred};
  } else {
    return InternalError("unknown binary operator " + op);
  }
  if (!SortMatches(expected, sig.result)) {
    return InvalidArgumentError("operator '" + op + "' produces a " +
                                SortToString(sig.result) + " but a " +
                                SortToString(expected) + " was expected");
  }
  KOLA_ASSIGN_OR_RETURN(TermPtr left, Elaborate(*cst.children[0], sig.left));
  KOLA_ASSIGN_OR_RETURN(TermPtr right, Elaborate(*cst.children[1], sig.right));
  return Term::Make(sig.kind, {std::move(left), std::move(right)});
}

StatusOr<TermPtr> Elaborate(const Cst& cst, Sort expected) {
  switch (cst.kind) {
    case CstKind::kIdent: {
      if (expected == Sort::kFunction) {
        return Term::Make(TermKind::kPrimFn, {}, cst.text);
      }
      if (expected == Sort::kPredicate) {
        return Term::Make(TermKind::kPrimPred, {}, cst.text);
      }
      if (expected == Sort::kBool) {
        if (cst.text == "T") {
          return Term::Make(TermKind::kBoolConst, {}, "", Value::Null(), true);
        }
        if (cst.text == "F") {
          return Term::Make(TermKind::kBoolConst, {}, "", Value::Null(),
                            false);
        }
        return InvalidArgumentError("expected T or F, got '" + cst.text + "'");
      }
      // Object position: `T`/`F` still mean the boolean constants (Bool is a
      // subsort of Object); any other identifier is a collection reference.
      if (cst.text == "T" || cst.text == "F") {
        return Term::Make(TermKind::kBoolConst, {}, "", Value::Null(),
                          cst.text == "T");
      }
      if (cst.text == "true" || cst.text == "false") {
        return Term::Make(TermKind::kLiteral, {}, "",
                          Value::Bool(cst.text == "true"));
      }
      return Term::Make(TermKind::kCollection, {}, cst.text);
    }
    case CstKind::kInt: {
      if (!SortMatches(expected, Sort::kObject)) {
        return InvalidArgumentError("integer literal in " +
                                    std::string(SortToString(expected)) +
                                    " position");
      }
      KOLA_ASSIGN_OR_RETURN(int64_t value, ParseInt64(cst.text));
      return Term::Make(TermKind::kLiteral, {}, "", Value::Int(value));
    }
    case CstKind::kString: {
      if (!SortMatches(expected, Sort::kObject)) {
        return InvalidArgumentError("string literal in " +
                                    std::string(SortToString(expected)) +
                                    " position");
      }
      return Term::Make(TermKind::kLiteral, {}, "", Value::Str(cst.text));
    }
    case CstKind::kObjRef: {
      if (!SortMatches(expected, Sort::kObject)) {
        return InvalidArgumentError("object literal in " +
                                    std::string(SortToString(expected)) +
                                    " position");
      }
      KOLA_ASSIGN_OR_RETURN(Value ref, ObjRefValue(cst.text));
      return Term::Make(TermKind::kLiteral, {}, "", std::move(ref));
    }
    case CstKind::kMetaVar: {
      Sort sort = MetaVarSort(cst.text);
      if (!SortMatches(expected, sort)) {
        return InvalidArgumentError(
            "metavariable ?" + cst.text + " has sort " + SortToString(sort) +
            " (by naming convention) but " + SortToString(expected) +
            " was expected");
      }
      return Term::Make(TermKind::kMetaVar, {}, cst.text, Value::Null(),
                        false, sort);
    }
    case CstKind::kCall:
      return ElaborateCall(cst, expected);
    case CstKind::kPair: {
      if (expected == Sort::kFunction) {
        KOLA_ASSIGN_OR_RETURN(TermPtr a,
                              Elaborate(*cst.children[0], Sort::kFunction));
        KOLA_ASSIGN_OR_RETURN(TermPtr b,
                              Elaborate(*cst.children[1], Sort::kFunction));
        return Term::Make(TermKind::kPairFn, {std::move(a), std::move(b)});
      }
      return InvalidArgumentError(
          "(f, g) is the function-pair former; in object position use "
          "[x, y]");
    }
    case CstKind::kBracket: {
      if (!SortMatches(expected, Sort::kObject)) {
        return InvalidArgumentError("[x, y] is an object pair but a " +
                                    std::string(SortToString(expected)) +
                                    " was expected");
      }
      KOLA_ASSIGN_OR_RETURN(TermPtr a,
                            Elaborate(*cst.children[0], Sort::kObject));
      KOLA_ASSIGN_OR_RETURN(TermPtr b,
                            Elaborate(*cst.children[1], Sort::kObject));
      // A pair of literals is a literal pair (so pair-valued literals
      // round-trip through the printer as single nodes).
      if (a->kind() == TermKind::kLiteral &&
          b->kind() == TermKind::kLiteral) {
        return Term::Make(TermKind::kLiteral, {}, "",
                          Value::MakePair(a->literal(), b->literal()));
      }
      return Term::Make(TermKind::kPairObj, {std::move(a), std::move(b)});
    }
    case CstKind::kSet:
    case CstKind::kBag: {
      if (!SortMatches(expected, Sort::kObject)) {
        return InvalidArgumentError("collection literal in " +
                                    std::string(SortToString(expected)) +
                                    " position");
      }
      std::vector<Value> elements;
      for (const CstPtr& c : cst.children) {
        KOLA_ASSIGN_OR_RETURN(Value v, LiteralValue(*c));
        elements.push_back(std::move(v));
      }
      return Term::Make(TermKind::kLiteral, {}, "",
                        cst.kind == CstKind::kSet
                            ? Value::MakeSet(std::move(elements))
                            : Value::MakeBag(std::move(elements)));
    }
    case CstKind::kBinary:
      return ElaborateBinary(cst, expected);
  }
  return InternalError("unhandled CST kind");
}

}  // namespace

StatusOr<TermPtr> ParseTerm(std::string_view text, Sort expected) {
  Lexer lexer(text);
  KOLA_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Tokenize());
  Parser parser(std::move(tokens));
  KOLA_ASSIGN_OR_RETURN(CstPtr cst, parser.ParseAll());
  auto term = Elaborate(*cst, expected);
  if (!term.ok()) {
    return term.status().WithContext("while parsing " +
                                     QuoteForError(text));
  }
  return term;
}

StatusOr<TermPtr> ParseFunction(std::string_view text) {
  return ParseTerm(text, Sort::kFunction);
}

StatusOr<TermPtr> ParsePredicate(std::string_view text) {
  return ParseTerm(text, Sort::kPredicate);
}

StatusOr<TermPtr> ParseQuery(std::string_view text) {
  return ParseTerm(text, Sort::kObject);
}

}  // namespace kola
