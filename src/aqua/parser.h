#ifndef KOLA_AQUA_PARSER_H_
#define KOLA_AQUA_PARSER_H_

#include <string_view>

#include "aqua/expr.h"
#include "common/statusor.h"

namespace kola {
namespace aqua {

/// Parses AQUA concrete syntax:
///
///   expr    := and ('or' and)*
///   and     := not ('and' not)*
///   not     := 'not' not | primary (CMP primary)?
///   CMP     := '==' | '!=' | '<' | '<=' | '>' | '>=' | 'in'
///   primary := head ('.' IDENT)*
///   head    := INT | STRING | 'true' | 'false' | IDENT
///            | '{' (expr (',' expr)*)? '}'        -- constants only
///            | '[' expr ',' expr ']' | '(' expr ')'
///            | 'app' '(' lambda ')' '(' expr ')'
///            | 'sel' '(' lambda ')' '(' expr ')'
///            | 'flatten' '(' expr ')'
///            | 'join' '(' lambda ',' lambda ')' '(' expr ',' expr ')'
///            | 'if' expr 'then' expr 'else' expr
///   lambda  := '\' IDENT IDENT? '.' expr
///
/// Identifiers may contain primes (`p'`). An identifier is a variable
/// reference when bound by an enclosing lambda, otherwise a collection
/// name. Everything but `head`'s lambda calls, `if` and parens is the
/// expression core OQL shares (aqua/expr_parser.h). Example (the paper's
/// A4):
///
///   app(\p. [p, sel(\c. p.age > 25)(p.child)])(P)
StatusOr<ExprPtr> ParseAqua(std::string_view text);

}  // namespace aqua
}  // namespace kola

#endif  // KOLA_AQUA_PARSER_H_
