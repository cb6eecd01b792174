#ifndef KOLA_COKO_PARSER_H_
#define KOLA_COKO_PARSER_H_

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/statusor.h"
#include "coko/strategy.h"
#include "rewrite/rule.h"

namespace kola {

/// A parsed COKO module: named rule blocks in definition order.
struct CokoModule {
  std::vector<RuleBlock> blocks;

  /// Pointer into `blocks`; nullptr when absent.
  const RuleBlock* Find(const std::string& name) const;
};

/// Parses the COKO rule-block language -- the "[C]ontrol [O]f [K]OLA
/// [O]ptimizations" companion the paper leaves to future work
/// (Section 4.2): "rule blocks; sets of rules that are used together,
/// together with strategies for their firing".
///
///   module  := block*
///   block   := 'block' NAME '{' stmt* '}'
///   stmt    := 'exhaust' rules ';'        -- apply to fixpoint
///            | 'once' rules ';'           -- first rule that fires, once
///            | 'everywhere' rules ';'     -- one bottom-up sweep
///            | 'repeat' '{' stmt* '}'     -- loop body while it changes
///            | 'use' NAME ';'             -- run a previously defined block
///   rules   := ruleref (',' ruleref)*
///   ruleref := RULE-ID modifier*   with modifier '~' (right-to-left
///              reading) or '!' (apply-level variant)
///
/// Rule ids are resolved against `catalog` (e.g. AllCatalogRules()).
/// Comments run from '#' to end of line. Example:
///
///   # the five-step hidden-join strategy
///   block break-up { exhaust 17!, 17b!, 2, 4, 18, norm.id-apply; }
///   block pipeline { use break-up; once 19; }
StatusOr<CokoModule> ParseCoko(std::string_view text,
                               const std::vector<Rule>& catalog);

/// The five-step hidden-join strategy written in COKO. The Catalog
/// (rules/catalog.h) parses it, with every other phase's blocks, into the
/// optimizer's rule blocks.
extern const char kHiddenJoinCoko[];

}  // namespace kola

#endif  // KOLA_COKO_PARSER_H_
