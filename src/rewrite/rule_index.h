#ifndef KOLA_REWRITE_RULE_INDEX_H_
#define KOLA_REWRITE_RULE_INDEX_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "rewrite/rule.h"
#include "term/term.h"

namespace kola {

/// A discrimination-tree index over one rule set: top symbol first, then a
/// per-child symbol/metavar branch, compiled once and consulted per term
/// node. `CandidatesAt` maps a node to the few rules whose lhs could match
/// at that node -- an exact superset of what MatchTerm accepts, enumerated
/// in ascending rule order so an indexed scan fires the same rule, at the
/// same position, as the O(rules x nodes) linear scan it replaces.
///
/// Shape: rules bucket by the lhs root's discriminator (kind + name for
/// named leaves + value for bool constants); inside a bucket each entry
/// carries one discriminator per lhs-root child, with metavariable children
/// as wildcards. Rules whose whole lhs is a metavariable live on a side
/// list and are candidates everywhere; rules rooted at a pair pattern are
/// additionally candidates at pair-valued literal nodes (the parser folds
/// literal pairs into single literal leaves, and MatchTerm decomposes them
/// back).
///
/// Determinism: lookups only ever FILTER the linear probe order -- every
/// candidate list is produced by an ascending merge of the bucket, the
/// wildcard list and (for pair literals) the pair list -- so rewrite
/// results and traces are byte-identical with the index on or off. A rule
/// the index drops is one whose lhs root provably cannot match the node,
/// which the linear scan would also have rejected (in O(1) inside
/// MatchTerm rather than before calling it).
///
/// Immutable after Build and safe to share across threads; every holder
/// of an equal rule set shares one compiled copy (see AcquireRuleIndex).
class RuleIndex {
 public:
  /// Compiles the index. `fingerprint` is RuleSetFingerprint(rules),
  /// passed in so callers that already computed it do not pay twice.
  static std::shared_ptr<const RuleIndex> Build(const std::vector<Rule>& rules,
                                                uint64_t fingerprint);

  uint64_t fingerprint() const { return fingerprint_; }
  size_t rule_count() const { return rule_count_; }

  /// Estimated heap bytes held by the compiled tree; the unit of
  /// MemoryCategory::kRuleIndex charges.
  int64_t footprint_bytes() const { return footprint_bytes_; }

  /// Clears `out` and fills it with every rule index whose lhs could match
  /// at the root of `term`, in ascending rule order. Never omits a rule
  /// that MatchTerm would accept; may include rules that still fail the
  /// full match or their conditions.
  void CandidatesAt(const Term& term, std::vector<uint32_t>* out) const;

 private:
  RuleIndex() = default;

  /// One per-child lhs discriminator.
  struct ChildKey {
    uint64_t sym = 0;        // discriminator; unused when wildcard
    bool wildcard = false;   // metavariable child: matches any subterm
    bool pair_pattern = false;  // [x,y] child: also matches pair literals
  };

  /// One rule in a top-symbol bucket.
  struct Entry {
    uint32_t rule = 0;
    uint32_t arity = 0;
    std::vector<ChildKey> children;
  };

  struct Bucket {
    std::vector<Entry> entries;  // ascending rule order
  };

  bool EntryCompatible(const Entry& entry, const Term& term) const;

  uint64_t fingerprint_ = 0;
  size_t rule_count_ = 0;
  int64_t footprint_bytes_ = 0;
  std::unordered_map<uint64_t, Bucket> buckets_;
  /// Rules whose lhs is a bare metavariable: candidates at every node.
  std::vector<uint32_t> wildcard_roots_;
  /// Rules whose lhs root is a pair pattern: also candidates at
  /// pair-valued literal nodes (child keys do not apply there).
  std::vector<uint32_t> pair_roots_;
};

/// A rule set compiled once for matching: the rules in probe order, their
/// RuleSetFingerprint and the RuleIndex over them, all fixed at
/// construction. Strategy leaves and the Catalog (rules/catalog.h) hold
/// these, so applying a rule block neither re-fingerprints its rules nor
/// looks an index up. Immutable; safe to share across threads.
class CompiledRuleSet {
 public:
  explicit CompiledRuleSet(std::vector<Rule> rules);

  const std::vector<Rule>& rules() const { return rules_; }
  uint64_t fingerprint() const { return fingerprint_; }
  /// The compiled index (shared through AcquireRuleIndex); null only for an
  /// empty set.
  const RuleIndex* index() const { return index_.get(); }

 private:
  std::vector<Rule> rules_;
  uint64_t fingerprint_;
  std::shared_ptr<const RuleIndex> index_;
};

/// Aggregate stats of the process-wide compiled-index cache (kolash
/// :stats).
struct RuleIndexCacheStats {
  size_t indexes = 0;   // distinct fingerprints compiled
  size_t rules = 0;     // rules across all compiled indexes
  int64_t bytes = 0;    // summed footprint_bytes
  uint64_t hits = 0;    // acquisitions served from the cache
  uint64_t misses = 0;  // acquisitions that compiled
};

/// Returns the process-wide compiled index for this rule set, building and
/// caching it on first use. Keyed by `fingerprint` (already computed by
/// the caller); a fingerprint collision with a different rule count is
/// detected and served an uncached fresh build. Thread-safe; every caller
/// receives the same immutable compiled copy.
std::shared_ptr<const RuleIndex> AcquireRuleIndex(
    const std::vector<Rule>& rules, uint64_t fingerprint);

RuleIndexCacheStats GetRuleIndexCacheStats();

/// True when KOLA_NO_RULE_INDEX is set truthy (latched on first read):
/// the process-wide kill switch that forces every Rewriter back to the
/// linear scan regardless of RewriterOptions::use_rule_index, so the CI
/// soundness sweep can diff indexed-vs-linear reports byte-for-byte.
bool RuleIndexDisabledByEnv();

}  // namespace kola

#endif  // KOLA_REWRITE_RULE_INDEX_H_
