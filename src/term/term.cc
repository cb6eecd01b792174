#include "term/term.h"

#include <functional>

#include "common/macros.h"

namespace kola {

namespace {

struct KindSignature {
  size_t arity;
  Sort child_sorts[3];
  Sort result;
};

/// Signature table for all non-leaf kinds.
StatusOr<KindSignature> SignatureFor(TermKind kind) {
  using S = Sort;
  switch (kind) {
    case TermKind::kCompose:
      return KindSignature{2, {S::kFunction, S::kFunction}, S::kFunction};
    case TermKind::kPairFn:
      return KindSignature{2, {S::kFunction, S::kFunction}, S::kFunction};
    case TermKind::kProduct:
      return KindSignature{2, {S::kFunction, S::kFunction}, S::kFunction};
    case TermKind::kConstFn:
      return KindSignature{1, {S::kObject}, S::kFunction};
    case TermKind::kCurryFn:
      return KindSignature{2, {S::kFunction, S::kObject}, S::kFunction};
    case TermKind::kCond:
      return KindSignature{
          3, {S::kPredicate, S::kFunction, S::kFunction}, S::kFunction};
    case TermKind::kOplus:
      return KindSignature{2, {S::kPredicate, S::kFunction}, S::kPredicate};
    case TermKind::kAndP:
    case TermKind::kOrP:
      return KindSignature{2, {S::kPredicate, S::kPredicate}, S::kPredicate};
    case TermKind::kInvP:
    case TermKind::kNotP:
      return KindSignature{1, {S::kPredicate}, S::kPredicate};
    case TermKind::kConstPred:
      return KindSignature{1, {S::kBool}, S::kPredicate};
    case TermKind::kCurryPred:
      return KindSignature{2, {S::kPredicate, S::kObject}, S::kPredicate};
    case TermKind::kIterate:
    case TermKind::kIter:
    case TermKind::kJoin:
      return KindSignature{2, {S::kPredicate, S::kFunction}, S::kFunction};
    case TermKind::kNest:
    case TermKind::kUnnest:
      return KindSignature{2, {S::kFunction, S::kFunction}, S::kFunction};
    case TermKind::kApplyFn:
      return KindSignature{2, {S::kFunction, S::kObject}, S::kObject};
    case TermKind::kApplyPred:
      return KindSignature{2, {S::kPredicate, S::kObject}, S::kBool};
    case TermKind::kPairObj:
      return KindSignature{2, {S::kObject, S::kObject}, S::kObject};
    default:
      return InternalError("SignatureFor called on leaf kind");
  }
}

size_t HashCombine(size_t seed, size_t h) {
  return seed ^ (h + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

}  // namespace

const char* SortToString(Sort sort) {
  switch (sort) {
    case Sort::kFunction:
      return "function";
    case Sort::kPredicate:
      return "predicate";
    case Sort::kObject:
      return "object";
    case Sort::kBool:
      return "bool";
  }
  return "unknown";
}

bool SortMatches(Sort expected, Sort actual) {
  if (expected == actual) return true;
  // Bool is a subsort of Object: boolean results are objects.
  return expected == Sort::kObject && actual == Sort::kBool;
}

const char* TermKindToString(TermKind kind) {
  switch (kind) {
    case TermKind::kPrimFn: return "prim-fn";
    case TermKind::kPrimPred: return "prim-pred";
    case TermKind::kLiteral: return "literal";
    case TermKind::kCollection: return "collection";
    case TermKind::kBoolConst: return "bool-const";
    case TermKind::kMetaVar: return "metavar";
    case TermKind::kCompose: return "compose";
    case TermKind::kPairFn: return "pair-fn";
    case TermKind::kProduct: return "product";
    case TermKind::kConstFn: return "Kf";
    case TermKind::kCurryFn: return "Cf";
    case TermKind::kCond: return "con";
    case TermKind::kOplus: return "oplus";
    case TermKind::kAndP: return "and";
    case TermKind::kOrP: return "or";
    case TermKind::kInvP: return "inv";
    case TermKind::kNotP: return "not";
    case TermKind::kConstPred: return "Kp";
    case TermKind::kCurryPred: return "Cp";
    case TermKind::kIterate: return "iterate";
    case TermKind::kIter: return "iter";
    case TermKind::kJoin: return "join";
    case TermKind::kNest: return "nest";
    case TermKind::kUnnest: return "unnest";
    case TermKind::kApplyFn: return "apply";
    case TermKind::kApplyPred: return "test";
    case TermKind::kPairObj: return "pair-obj";
  }
  return "unknown";
}

StatusOr<TermPtr> Term::Make(TermKind kind, std::vector<TermPtr> children,
                             std::string name, Value literal, bool bool_const,
                             Sort sort_hint) {
  Sort sort = Sort::kObject;
  switch (kind) {
    case TermKind::kPrimFn:
      if (name.empty()) return InvalidArgumentError("prim-fn needs a name");
      if (!children.empty()) return InvalidArgumentError("prim-fn is a leaf");
      sort = Sort::kFunction;
      break;
    case TermKind::kPrimPred:
      if (name.empty()) return InvalidArgumentError("prim-pred needs a name");
      if (!children.empty()) {
        return InvalidArgumentError("prim-pred is a leaf");
      }
      sort = Sort::kPredicate;
      break;
    case TermKind::kLiteral:
      if (!children.empty()) return InvalidArgumentError("literal is a leaf");
      sort = literal.is_bool() ? Sort::kBool : Sort::kObject;
      break;
    case TermKind::kCollection:
      if (name.empty()) return InvalidArgumentError("collection needs a name");
      if (!children.empty()) {
        return InvalidArgumentError("collection is a leaf");
      }
      sort = Sort::kObject;
      break;
    case TermKind::kBoolConst:
      if (!children.empty()) {
        return InvalidArgumentError("bool-const is a leaf");
      }
      sort = Sort::kBool;
      break;
    case TermKind::kMetaVar:
      if (name.empty()) return InvalidArgumentError("metavar needs a name");
      if (!children.empty()) return InvalidArgumentError("metavar is a leaf");
      sort = sort_hint;
      break;
    default: {
      KOLA_ASSIGN_OR_RETURN(KindSignature sig, SignatureFor(kind));
      if (children.size() != sig.arity) {
        return InvalidArgumentError(
            std::string(TermKindToString(kind)) + " expects " +
            std::to_string(sig.arity) + " children, got " +
            std::to_string(children.size()));
      }
      for (size_t i = 0; i < children.size(); ++i) {
        if (children[i] == nullptr) {
          return InvalidArgumentError("null child");
        }
        if (!SortMatches(sig.child_sorts[i], children[i]->sort())) {
          return InvalidArgumentError(
              std::string(TermKindToString(kind)) + ": child " +
              std::to_string(i) + " must be " +
              SortToString(sig.child_sorts[i]) + ", got " +
              SortToString(children[i]->sort()) + " (" +
              children[i]->ToString() + ")");
        }
      }
      sort = sig.result;
      break;
    }
  }

  return NewNode(kind, sort, std::move(name), std::move(literal), bool_const,
                 std::move(children));
}

Term::~Term() {
  // Destroying a deep term recursively (~Term -> children_ -> ~Term ...)
  // unwinds one native frame per spine node, which overflows the stack on
  // adversarially deep chains. Instead, steal every sole-owned child into
  // an explicit worklist and strip its children before it dies, so each
  // node's destructor runs childless and never recurses. use_count() == 1
  // is race-free here: this dying node holds the only reference, so no
  // other thread can acquire one.
  if (children_.empty()) return;
  std::vector<TermPtr> pending;
  auto scavenge = [&pending](std::vector<TermPtr>& children) {
    for (TermPtr& child : children) {
      if (child != nullptr && child.use_count() == 1 &&
          !child->children_.empty()) {
        pending.push_back(std::move(child));
      }
    }
    children.clear();
  };
  scavenge(children_);
  while (!pending.empty()) {
    TermPtr term = std::move(pending.back());
    pending.pop_back();
    scavenge(const_cast<Term*>(term.get())->children_);
    // `term` drops here with no children left: a flat destruction.
  }
}

TermPtr Term::NewNode(TermKind kind, Sort sort, std::string name,
                      Value literal, bool bool_const,
                      std::vector<TermPtr> children) {
  auto term = std::shared_ptr<Term>(new Term());
  term->kind_ = kind;
  term->sort_ = sort;
  term->name_ = std::move(name);
  term->literal_ = std::move(literal);
  term->bool_const_ = bool_const;
  term->children_ = std::move(children);

  size_t h = HashCombine(static_cast<size_t>(kind) * 0x100000001b3ULL,
                         std::hash<std::string>{}(term->name_));
  if (kind == TermKind::kLiteral) h = HashCombine(h, term->literal_.Hash());
  if (kind == TermKind::kBoolConst) {
    h = HashCombine(h, term->bool_const_ ? 2 : 1);
  }
  if (kind == TermKind::kMetaVar) {
    h = HashCombine(h, static_cast<size_t>(term->sort_));
  }
  size_t nodes = 1;
  bool metavars = (kind == TermKind::kMetaVar);
  for (const TermPtr& c : term->children_) {
    h = HashCombine(h, c->hash());
    nodes += c->node_count();
    metavars = metavars || c->has_metavars();
  }
  term->hash_ = h;
  term->node_count_ = nodes;
  term->has_metavars_ = metavars;
  return TermPtr(term);
}

bool Term::Equal(const TermPtr& a, const TermPtr& b) {
  // Explicit worklist instead of recursion: the slow path descends one
  // frame per node on a spine, and adversarially deep terms (100k-node
  // compose chains) would otherwise overflow the native stack. The
  // per-node fast paths below keep the common cases O(1).
  std::vector<std::pair<const Term*, const Term*>> stack = {
      {a.get(), b.get()}};
  while (!stack.empty()) {
    auto [x, y] = stack.back();
    stack.pop_back();
    if (x == y) continue;
    if (x == nullptr || y == nullptr) return false;
    // Distinct canonical representatives of the same interning arena are
    // structurally distinct: O(1) answer without touching the subtrees.
    uint64_t x_epoch = x->intern_epoch_.load(std::memory_order_acquire);
    if (x_epoch != 0 &&
        x_epoch == y->intern_epoch_.load(std::memory_order_acquire)) {
      return false;
    }
    if (x->hash_ != y->hash_) return false;
    if (x->kind_ != y->kind_ || x->sort_ != y->sort_ ||
        x->name_ != y->name_ || x->bool_const_ != y->bool_const_ ||
        x->children_.size() != y->children_.size()) {
      return false;
    }
    if (x->kind_ == TermKind::kLiteral &&
        Value::Compare(x->literal_, y->literal_) != 0) {
      return false;
    }
    for (size_t i = x->children_.size(); i > 0; --i) {
      stack.emplace_back(x->children_[i - 1].get(),
                         y->children_[i - 1].get());
    }
  }
  return true;
}

TermPtr Term::WithChildren(std::vector<TermPtr> children) const {
  auto result = TryWithChildren(std::move(children));
  KOLA_CHECK_OK(result.status());
  return std::move(result).value();
}

StatusOr<TermPtr> Term::TryWithChildren(std::vector<TermPtr> children) const {
  return Make(kind_, std::move(children), name_, literal_, bool_const_,
              sort_);
}

std::ostream& operator<<(std::ostream& os, const TermPtr& term) {
  return os << (term == nullptr ? std::string("<null>") : term->ToString());
}

uint64_t StableStringHash(const std::string& s) {
  // FNV-1a 64.
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

uint64_t Term::stable_hash() const {
  const uint64_t cached = stable_hash_.load(std::memory_order_relaxed);
  if (cached != 0) return cached;
  // Iterative post-order: collect the uncached pre-order spine, then
  // compute in reverse so every child's hash is stored before its parent
  // folds it in. (A shared subtree can appear twice in `order`; both
  // passes store the same content-determined value.)
  std::vector<const Term*> order;
  std::vector<const Term*> stack = {this};
  while (!stack.empty()) {
    const Term* node = stack.back();
    stack.pop_back();
    if (node->stable_hash_.load(std::memory_order_relaxed) != 0) continue;
    order.push_back(node);
    for (const TermPtr& child : node->children_) stack.push_back(child.get());
  }
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const Term* node = *it;
    uint64_t h =
        StableHashCombine(static_cast<uint64_t>(node->kind_) + 1,
                          static_cast<uint64_t>(node->sort_) + 1);
    if (!node->name_.empty()) {
      h = StableHashCombine(h, StableStringHash(node->name_));
    }
    switch (node->kind_) {
      case TermKind::kLiteral:
        h = StableHashCombine(h, StableStringHash(node->literal_.ToString()));
        break;
      case TermKind::kBoolConst:
        h = StableHashCombine(h, node->bool_const_ ? 2 : 1);
        break;
      default:
        break;
    }
    for (const TermPtr& child : node->children_) {
      h = StableHashCombine(h, child->stable_hash_.load(
                                   std::memory_order_relaxed));
    }
    // A true hash of 0 (vanishingly rare) just stays uncached and is
    // recomputed per call -- never nudged, so the value is exactly the
    // content-determined one.
    node->stable_hash_.store(h, std::memory_order_relaxed);
  }
  return stable_hash_.load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Builders.
// ---------------------------------------------------------------------------

namespace {

/// Backs the TermPtr-returning builder functions below. Those builders are
/// documented as library-internal construction helpers whose arguments are
/// compile-time shapes, so an ill-sorted call is a programming error inside
/// this library -- the one place an invariant abort is allowed. Data-driven
/// construction (parser, shrinkers, anything fed by user input) must go
/// through the Status-surfacing Term::Make / Term::TryWithChildren instead.
TermPtr MustMake(TermKind kind, std::vector<TermPtr> children,
                 std::string name = "", Value literal = Value::Null(),
                 bool bool_const = false, Sort sort_hint = Sort::kObject) {
  auto result = Term::Make(kind, std::move(children), std::move(name),
                           std::move(literal), bool_const, sort_hint);
  KOLA_CHECK_OK(result.status());
  return std::move(result).value();
}

}  // namespace

TermPtr Id() { return PrimFn("id"); }
TermPtr Pi1() { return PrimFn("pi1"); }
TermPtr Pi2() { return PrimFn("pi2"); }
TermPtr Flat() { return PrimFn("flat"); }

TermPtr PrimFn(const std::string& name) {
  return MustMake(TermKind::kPrimFn, {}, name);
}

TermPtr EqP() { return PrimPred("eq"); }
TermPtr LtP() { return PrimPred("lt"); }
TermPtr LeqP() { return PrimPred("leq"); }
TermPtr GtP() { return PrimPred("gt"); }
TermPtr InP() { return PrimPred("in"); }

TermPtr PrimPred(const std::string& name) {
  return MustMake(TermKind::kPrimPred, {}, name);
}

TermPtr Lit(Value value) {
  return MustMake(TermKind::kLiteral, {}, "", std::move(value));
}

TermPtr LitInt(int64_t value) { return Lit(Value::Int(value)); }

TermPtr Collection(const std::string& name) {
  return MustMake(TermKind::kCollection, {}, name);
}

TermPtr BoolConst(bool value) {
  return MustMake(TermKind::kBoolConst, {}, "", Value::Null(), value);
}

TermPtr FnVar(const std::string& name) {
  return MustMake(TermKind::kMetaVar, {}, name, Value::Null(), false,
                  Sort::kFunction);
}
TermPtr PredVar(const std::string& name) {
  return MustMake(TermKind::kMetaVar, {}, name, Value::Null(), false,
                  Sort::kPredicate);
}
TermPtr ObjVar(const std::string& name) {
  return MustMake(TermKind::kMetaVar, {}, name, Value::Null(), false,
                  Sort::kObject);
}
TermPtr BoolVar(const std::string& name) {
  return MustMake(TermKind::kMetaVar, {}, name, Value::Null(), false,
                  Sort::kBool);
}

TermPtr Compose(TermPtr f, TermPtr g) {
  return MustMake(TermKind::kCompose, {std::move(f), std::move(g)});
}

TermPtr ComposeChain(std::vector<TermPtr> fns) {
  KOLA_CHECK(!fns.empty());
  TermPtr result = fns.back();
  for (size_t i = fns.size() - 1; i-- > 0;) {
    result = Compose(fns[i], std::move(result));
  }
  return result;
}

TermPtr PairFn(TermPtr f, TermPtr g) {
  return MustMake(TermKind::kPairFn, {std::move(f), std::move(g)});
}

TermPtr Product(TermPtr f, TermPtr g) {
  return MustMake(TermKind::kProduct, {std::move(f), std::move(g)});
}

TermPtr ConstFn(TermPtr object) {
  return MustMake(TermKind::kConstFn, {std::move(object)});
}

TermPtr CurryFn(TermPtr f, TermPtr object) {
  return MustMake(TermKind::kCurryFn, {std::move(f), std::move(object)});
}

TermPtr Cond(TermPtr p, TermPtr f, TermPtr g) {
  return MustMake(TermKind::kCond, {std::move(p), std::move(f), std::move(g)});
}

TermPtr Oplus(TermPtr p, TermPtr f) {
  return MustMake(TermKind::kOplus, {std::move(p), std::move(f)});
}

TermPtr AndP(TermPtr p, TermPtr q) {
  return MustMake(TermKind::kAndP, {std::move(p), std::move(q)});
}

TermPtr OrP(TermPtr p, TermPtr q) {
  return MustMake(TermKind::kOrP, {std::move(p), std::move(q)});
}

TermPtr InvP(TermPtr p) { return MustMake(TermKind::kInvP, {std::move(p)}); }

TermPtr NotP(TermPtr p) { return MustMake(TermKind::kNotP, {std::move(p)}); }

TermPtr ConstPred(TermPtr bool_term) {
  return MustMake(TermKind::kConstPred, {std::move(bool_term)});
}

TermPtr ConstPredTrue() { return ConstPred(BoolConst(true)); }
TermPtr ConstPredFalse() { return ConstPred(BoolConst(false)); }

TermPtr CurryPred(TermPtr p, TermPtr object) {
  return MustMake(TermKind::kCurryPred, {std::move(p), std::move(object)});
}

TermPtr Iterate(TermPtr p, TermPtr f) {
  return MustMake(TermKind::kIterate, {std::move(p), std::move(f)});
}

TermPtr Iter(TermPtr p, TermPtr f) {
  return MustMake(TermKind::kIter, {std::move(p), std::move(f)});
}

TermPtr Join(TermPtr p, TermPtr f) {
  return MustMake(TermKind::kJoin, {std::move(p), std::move(f)});
}

TermPtr Nest(TermPtr f, TermPtr g) {
  return MustMake(TermKind::kNest, {std::move(f), std::move(g)});
}

TermPtr Unnest(TermPtr f, TermPtr g) {
  return MustMake(TermKind::kUnnest, {std::move(f), std::move(g)});
}

TermPtr Apply(TermPtr f, TermPtr x) {
  return MustMake(TermKind::kApplyFn, {std::move(f), std::move(x)});
}

TermPtr TestPred(TermPtr p, TermPtr x) {
  return MustMake(TermKind::kApplyPred, {std::move(p), std::move(x)});
}

TermPtr PairObj(TermPtr x, TermPtr y) {
  return MustMake(TermKind::kPairObj, {std::move(x), std::move(y)});
}

}  // namespace kola
