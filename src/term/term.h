#ifndef KOLA_TERM_TERM_H_
#define KOLA_TERM_TERM_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/statusor.h"
#include "values/value.h"

namespace kola {

class Term;
class TermInterner;
/// Terms are immutable and shared; rewriting builds new spines over shared
/// subtrees.
using TermPtr = std::shared_ptr<const Term>;

/// Dense identifier assigned by a TermInterner; 0 means "not interned".
/// Stable for the lifetime of the arena that assigned it.
using TermId = uint64_t;

/// Sort (algebraic type) of a KOLA term. `Bool` is a subsort of `Object`
/// (a boolean result like `p ? x` can stand wherever an object is expected).
enum class Sort {
  kFunction,
  kPredicate,
  kObject,
  kBool,
};

const char* SortToString(Sort sort);

/// True when a term of sort `actual` may appear where `expected` is
/// required (identity, or Bool where Object is expected).
bool SortMatches(Sort expected, Sort actual);

/// Every syntactic construct of the KOLA algebra (Tables 1 and 2 of the
/// paper), plus invocation (`!`, `?`), object pairs, literals, collection
/// references, and the metavariables used by rewrite-rule patterns.
enum class TermKind {
  // ----- Leaves -----
  kPrimFn,     // named primitive function: id, pi1, pi2, flat, age, addr, ...
  kPrimPred,   // named primitive predicate: eq, lt, leq, gt, in, ...
  kLiteral,    // embedded runtime Value (int, string, set, ...)
  kCollection, // named database extent: P, V, ...
  kBoolConst,  // T or F (argument of Kp)
  kMetaVar,    // sorted pattern variable; only valid inside rule patterns

  // ----- Function formers (Table 1) -----
  kCompose,    // f o g          (f o g) ! x = f ! (g ! x)
  kPairFn,     // (f, g)         (f, g) ! x = [f!x, g!x]
  kProduct,    // f x g          (f x g) ! [x,y] = [f!x, g!y]
  kConstFn,    // Kf(v)          Kf(v) ! y = v
  kCurryFn,    // Cf(f, v)       Cf(f, v) ! y = f ! [v, y]
  kCond,       // con(p, f, g)   con(p,f,g) ! x = p?x ? f!x : g!x

  // ----- Predicate formers (Table 1) -----
  kOplus,      // p @ f          (p @ f) ? x = p ? (f ! x)
  kAndP,       // p & q
  kOrP,        // p | q
  kInvP,       // inv(p)         inv(p) ? [x,y] = p ? [y,x]
  kNotP,       // not(p)         negation (extension used by the CNF block)
  kConstPred,  // Kp(b)          Kp(b) ? x = b
  kCurryPred,  // Cp(p, v)       Cp(p, v) ? y = p ? [v, y]

  // ----- Query formers (Table 2) -----
  kIterate,    // iterate(p, f) ! A     = { f!x   | x in A, p?x }
  kIter,       // iter(p, f) ! [e, B]   = { f![e,y] | y in B, p?[e,y] }
  kJoin,       // join(p, f) ! [A, B]   = { f![x,y] | x in A, y in B, p?[x,y] }
  kNest,       // nest(f, g) ! [A, B]   = { [y, {g!x | x in A, f!x = y}] | y in B }
  kUnnest,     // unnest(f, g) ! A      = { [f!x, y] | x in A, y in g!x }

  // ----- Object-level constructs -----
  kApplyFn,    // f ! x
  kApplyPred,  // p ? x
  kPairObj,    // [x, y]
};

const char* TermKindToString(TermKind kind);

/// An immutable node of a KOLA term tree. Construct via the checked factory
/// Term::Make (parser, generic code) or via the builder functions below
/// (library code; they KOLA_CHECK well-sortedness).
class Term {
 public:
  /// Validated construction. `name` is used by kPrimFn/kPrimPred/
  /// kCollection/kMetaVar; `literal` by kLiteral; `bool_const` by
  /// kBoolConst; `sort_hint` gives a kMetaVar its sort. Children must match
  /// the arity and sorts of `kind`.
  static StatusOr<TermPtr> Make(TermKind kind, std::vector<TermPtr> children,
                                std::string name = "",
                                Value literal = Value::Null(),
                                bool bool_const = false,
                                Sort sort_hint = Sort::kObject);

  TermKind kind() const { return kind_; }
  Sort sort() const { return sort_; }
  const std::string& name() const { return name_; }
  const Value& literal() const { return literal_; }
  bool bool_const() const { return bool_const_; }
  const std::vector<TermPtr>& children() const { return children_; }
  const TermPtr& child(size_t i) const { return children_[i]; }
  size_t arity() const { return children_.size(); }

  bool is_leaf() const { return children_.empty(); }
  bool is_metavar() const { return kind_ == TermKind::kMetaVar; }

  /// True for the primitive function/predicate with this exact name.
  bool IsPrimFn(const std::string& name) const {
    return kind_ == TermKind::kPrimFn && name_ == name;
  }
  bool IsPrimPred(const std::string& name) const {
    return kind_ == TermKind::kPrimPred && name_ == name;
  }

  /// Cached structural hash (consistent with Equal).
  size_t hash() const { return hash_; }

  /// Platform-stable structural hash: explicit FNV-1a/mix steps over kind /
  /// sort / name / payload / children, with literals hashed through their
  /// rendered form (Value::ToString is deterministic). Unlike hash() it
  /// never routes through std::hash, so the value is identical across
  /// platforms and standard libraries and safe to persist (it seeds
  /// RuleSetFingerprint, the key of the rule-index cache). Computed on
  /// first call and cached on the node (terms are immutable); the walk is
  /// iterative, so deep spines are safe.
  uint64_t stable_hash() const;

  /// Cached number of nodes in this subtree (the paper's size metric).
  size_t node_count() const { return node_count_; }

  /// True when the subtree contains at least one metavariable (i.e. is a
  /// pattern rather than a ground term).
  bool has_metavars() const { return has_metavars_; }

  /// Deep structural equality (pointer and hash fast paths; O(1) between
  /// terms canonicalized by the same TermInterner arena).
  static bool Equal(const TermPtr& a, const TermPtr& b);

  /// Rebuilds this node over new children (same kind/name/literal).
  /// Aborts if the result would be ill-sorted; callers guarantee
  /// sort-preserving children (rewrite spines). For data-driven rebuilds
  /// where ill-sorted children are possible, use TryWithChildren.
  TermPtr WithChildren(std::vector<TermPtr> children) const;

  /// As WithChildren, but surfaces an InvalidArgument/TypeError Status on an
  /// ill-sorted rebuild instead of aborting. The entry point for callers
  /// whose replacement children come from outside the library (e.g. the
  /// soundness shrinker's candidate reductions).
  StatusOr<TermPtr> TryWithChildren(std::vector<TermPtr> children) const;

  /// Renders in the library's concrete syntax (parseable by ParseTerm).
  std::string ToString() const;

  /// Iterative teardown: deep chains are destroyed with an explicit
  /// worklist so the recursive ~shared_ptr cascade cannot overflow the
  /// native stack. Public because the shared_ptr control block disposes
  /// of nodes; terms are only created through Make/NewNode.
  ~Term();

 private:
  friend class TermInterner;
  Term() = default;

  /// Builds a node without sort validation (callers guarantee
  /// well-sortedness). Used by Make after validation and by TermInterner
  /// when rebuilding a spine over canonical children.
  static TermPtr NewNode(TermKind kind, Sort sort, std::string name,
                         Value literal, bool bool_const,
                         std::vector<TermPtr> children);

  TermKind kind_ = TermKind::kLiteral;
  Sort sort_ = Sort::kObject;
  std::string name_;
  Value literal_;
  bool bool_const_ = false;
  std::vector<TermPtr> children_;
  size_t hash_ = 0;
  size_t node_count_ = 1;
  bool has_metavars_ = false;
  /// Interning bookkeeping, written once by the first TermInterner that
  /// canonicalizes this node ("first tag wins"). Two distinct pointers with
  /// the same non-zero epoch are structurally distinct by construction.
  /// Atomics because terms are shared read-only across worker threads while
  /// interners tag them: writes are serialized by the interner's tag lock
  /// (id first, then epoch with release), and a tag never changes once its
  /// epoch is non-zero, so any non-zero epoch a reader observes is final.
  mutable std::atomic<uint64_t> intern_epoch_{0};
  mutable std::atomic<TermId> intern_id_{0};
  /// Lazily computed stable_hash() cache; 0 means "not computed yet".
  /// Atomic because shared terms are hashed from concurrent workers; every
  /// writer stores the same content-determined value, so races are benign.
  mutable std::atomic<uint64_t> stable_hash_{0};
};

std::ostream& operator<<(std::ostream& os, const TermPtr& term);

/// FNV-1a 64 over the bytes of `s`: the stable string hash every
/// fingerprint-like value in the library is built from (see
/// Term::stable_hash and RuleSetFingerprint).
uint64_t StableStringHash(const std::string& s);

/// The stable mixing step fingerprints are folded with (boost-style
/// hash_combine on explicit 64-bit constants).
inline uint64_t StableHashCombine(uint64_t seed, uint64_t h) {
  return seed ^ (h + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

// ---------------------------------------------------------------------------
// Builder functions. These KOLA_CHECK well-sortedness: passing an ill-sorted
// argument is a programming error. Use Term::Make for data-driven paths.
// ---------------------------------------------------------------------------

// Leaves.
TermPtr Id();
TermPtr Pi1();
TermPtr Pi2();
TermPtr Flat();
TermPtr PrimFn(const std::string& name);
TermPtr EqP();
TermPtr LtP();
TermPtr LeqP();
TermPtr GtP();
TermPtr InP();
TermPtr PrimPred(const std::string& name);
TermPtr Lit(Value value);
TermPtr LitInt(int64_t value);
TermPtr Collection(const std::string& name);
TermPtr BoolConst(bool value);
/// Sorted metavariables for rule patterns.
TermPtr FnVar(const std::string& name);
TermPtr PredVar(const std::string& name);
TermPtr ObjVar(const std::string& name);
TermPtr BoolVar(const std::string& name);

// Function formers.
TermPtr Compose(TermPtr f, TermPtr g);
/// Right-nested composition of a whole chain: ComposeChain({f,g,h}) =
/// f o (g o h). Requires at least one element.
TermPtr ComposeChain(std::vector<TermPtr> fns);
TermPtr PairFn(TermPtr f, TermPtr g);
TermPtr Product(TermPtr f, TermPtr g);
TermPtr ConstFn(TermPtr object);
TermPtr CurryFn(TermPtr f, TermPtr object);
TermPtr Cond(TermPtr p, TermPtr f, TermPtr g);

// Predicate formers.
TermPtr Oplus(TermPtr p, TermPtr f);
TermPtr AndP(TermPtr p, TermPtr q);
TermPtr OrP(TermPtr p, TermPtr q);
TermPtr InvP(TermPtr p);
TermPtr NotP(TermPtr p);
TermPtr ConstPred(TermPtr bool_term);
TermPtr ConstPredTrue();
TermPtr ConstPredFalse();
TermPtr CurryPred(TermPtr p, TermPtr object);

// Query formers.
TermPtr Iterate(TermPtr p, TermPtr f);
TermPtr Iter(TermPtr p, TermPtr f);
TermPtr Join(TermPtr p, TermPtr f);
TermPtr Nest(TermPtr f, TermPtr g);
TermPtr Unnest(TermPtr f, TermPtr g);

// Object-level constructs.
TermPtr Apply(TermPtr f, TermPtr x);
TermPtr TestPred(TermPtr p, TermPtr x);
TermPtr PairObj(TermPtr x, TermPtr y);

}  // namespace kola

#endif  // KOLA_TERM_TERM_H_
