#include "eval/evaluator.h"

#include <map>
#include <vector>

#include "common/macros.h"

namespace kola {

namespace {

/// Compares two values for the ordering predicates. Only ints and strings
/// are ordered; comparing across kinds or unordered kinds is a TypeError.
StatusOr<int> OrderedCompare(const Value& a, const Value& b) {
  if (a.is_int() && b.is_int()) {
    return a.int_value() == b.int_value() ? 0
           : a.int_value() < b.int_value() ? -1
                                           : 1;
  }
  if (a.is_string() && b.is_string()) {
    int c = a.string_value().compare(b.string_value());
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  return TypeError("ordering predicate on non-comparable values " +
                   a.ToString() + " and " + b.ToString());
}

Status NotASet(const char* who, const Value& v) {
  return TypeError(std::string(who) + " expects a set or bag, got " +
                   v.ToString());
}

/// Rebuilds a collection of the same kind as `like` (bag stays bag).
Value MakeLike(const Value& like, std::vector<Value> elements) {
  return like.is_bag() ? Value::MakeBag(std::move(elements))
                       : Value::MakeSet(std::move(elements));
}

}  // namespace

/// Either a built Value or the unbuilt pair [first, second]. Both forms
/// only refer to values the caller keeps alive for the call. Pair halves
/// are read in place; Whole() builds an unbuilt pair where the pair itself
/// is needed (`id`, a schema function, a stored result, an error message).
class EvalArg {
 public:
  EvalArg(const Value& value) : value_(&value) {}  // implicit by design
  EvalArg(const Value& first, const Value& second)
      : first_(&first), second_(&second) {}

  bool is_pair() const { return value_ == nullptr || value_->is_pair(); }
  bool is_collection() const {
    return value_ != nullptr && value_->is_collection();
  }
  /// The collection argument; requires is_collection().
  const Value& collection() const { return *value_; }
  /// The halves of a pair argument; require is_pair().
  const Value& first() const {
    return value_ != nullptr ? value_->first() : *first_;
  }
  const Value& second() const {
    return value_ != nullptr ? value_->second() : *second_;
  }
  /// The whole argument; an unbuilt pair is built into `storage`.
  const Value& Whole(Value* storage) const {
    if (value_ != nullptr) return *value_;
    *storage = Value::MakePair(*first_, *second_);
    return *storage;
  }
  Value Whole() const {
    Value storage;
    return Whole(&storage);
  }

 private:
  const Value* value_ = nullptr;
  const Value* first_ = nullptr;
  const Value* second_ = nullptr;
};

namespace {

Status NotAPair(const char* who, const EvalArg& argument) {
  return TypeError(std::string(who) + " expects a pair, got " +
                   argument.Whole().ToString());
}

}  // namespace

Status Evaluator::Tick() {
  if (++steps_ > options_.max_steps) {
    return ResourceExhaustedError("evaluation exceeded " +
                                  std::to_string(options_.max_steps) +
                                  " steps");
  }
  if (options_.governor != nullptr) return options_.governor->Charge();
  return Status::OK();
}

namespace {
/// Estimated bytes per materialized collection element. Values are tagged
/// unions over small payloads plus shared-ptr-backed collections; one flat
/// per-element price keeps the accounting O(1) and deterministic.
constexpr int64_t kEvalValueBytes = 64;
}  // namespace

Status Evaluator::ChargeScratch(int64_t values) {
  return scratch_.Add(values * kEvalValueBytes);
}

StatusOr<Value> Evaluator::EvalObject(const TermPtr& term) {
  KOLA_CHECK(term != nullptr);
  switch (term->kind()) {
    case TermKind::kLiteral:
      return term->literal();
    case TermKind::kBoolConst:
      return Value::Bool(term->bool_const());
    case TermKind::kCollection:
      return db_->Extent(term->name());
    case TermKind::kPairObj: {
      KOLA_ASSIGN_OR_RETURN(Value a, EvalObject(term->child(0)));
      KOLA_ASSIGN_OR_RETURN(Value b, EvalObject(term->child(1)));
      return Value::MakePair(std::move(a), std::move(b));
    }
    case TermKind::kApplyFn: {
      KOLA_ASSIGN_OR_RETURN(Value arg, EvalObject(term->child(1)));
      return ApplyArg(term->child(0), arg);
    }
    case TermKind::kApplyPred: {
      KOLA_ASSIGN_OR_RETURN(Value arg, EvalObject(term->child(1)));
      KOLA_ASSIGN_OR_RETURN(bool holds, HoldsArg(term->child(0), arg));
      return Value::Bool(holds);
    }
    case TermKind::kMetaVar:
      return FailedPreconditionError(
          "cannot evaluate a pattern containing metavariable ?" +
          term->name());
    default:
      return TypeError(std::string("term of kind ") +
                       TermKindToString(term->kind()) +
                       " is not an object: " + term->ToString());
  }
}

StatusOr<Value> Evaluator::ApplyPrimitive(const Term& fn,
                                          const EvalArg& argument) {
  const PrimOp op = fn.prim_op();
  switch (op) {
    case PrimOp::kId:
      return argument.Whole();
    case PrimOp::kPi1:
      if (!argument.is_pair()) return NotAPair("pi1", argument);
      return argument.first();
    case PrimOp::kPi2:
      if (!argument.is_pair()) return NotAPair("pi2", argument);
      return argument.second();
    case PrimOp::kFlat: {
      if (!argument.is_collection()) {
        return NotASet("flat", argument.Whole());
      }
      std::vector<Value> out;
      for (const Value& inner : argument.collection().elements()) {
        if (!inner.is_collection()) return NotASet("flat (element)", inner);
        for (const Value& x : inner.elements()) out.push_back(x);
      }
      return MakeLike(argument.collection(), std::move(out));
    }
    case PrimOp::kDistinct:
      if (!argument.is_collection()) {
        return NotASet("distinct", argument.Whole());
      }
      return Value::MakeSet(argument.collection().elements());
    case PrimOp::kToBag:
      if (!argument.is_collection()) {
        return NotASet("tobag", argument.Whole());
      }
      return Value::MakeBag(argument.collection().elements());
    case PrimOp::kCard:
      if (!argument.is_collection()) {
        return NotASet("card", argument.Whole());
      }
      return Value::Int(
          static_cast<int64_t>(argument.collection().SetSize()));
    case PrimOp::kUnion:
    case PrimOp::kIntersect:
    case PrimOp::kDiff: {
      const char* who = fn.name().c_str();
      if (!argument.is_pair()) return NotAPair(who, argument);
      const Value& lhs = argument.first();
      const Value& rhs = argument.second();
      if (!lhs.is_collection()) return NotASet(who, lhs);
      if (!rhs.is_collection()) return NotASet(who, rhs);
      bool bag = lhs.is_bag() || rhs.is_bag();
      std::vector<Value> out;
      if (op == PrimOp::kUnion) {
        // Additive for bags, deduplicating for sets.
        out = lhs.elements();
        for (const Value& x : rhs.elements()) out.push_back(x);
      } else if (op == PrimOp::kIntersect) {
        // Multiset semantics: min of multiplicities (equal to the set
        // semantics when both sides are sets).
        std::map<Value, int64_t> counts;
        for (const Value& x : rhs.elements()) ++counts[x];
        for (const Value& x : lhs.elements()) {
          auto it = counts.find(x);
          if (it != counts.end() && it->second > 0) {
            --it->second;
            out.push_back(x);
          }
        }
      } else {
        // Multiset difference: subtract multiplicities.
        std::map<Value, int64_t> counts;
        for (const Value& x : rhs.elements()) ++counts[x];
        for (const Value& x : lhs.elements()) {
          auto it = counts.find(x);
          if (it != counts.end() && it->second > 0) {
            --it->second;
            continue;
          }
          out.push_back(x);
        }
      }
      return bag ? Value::MakeBag(std::move(out))
                 : Value::MakeSet(std::move(out));
    }
    default: {
      // A schema name: an attribute or a registered function.
      Value storage;
      return db_->CallFunction(fn.name(), argument.Whole(&storage));
    }
  }
}

StatusOr<bool> Evaluator::HoldsPrimitive(const Term& pred,
                                         const EvalArg& argument) {
  const PrimOp op = pred.prim_op();
  switch (op) {
    case PrimOp::kEq:
    case PrimOp::kNeq:
    case PrimOp::kLt:
    case PrimOp::kLeq:
    case PrimOp::kGt:
    case PrimOp::kGeq:
    case PrimOp::kIn: {
      if (!argument.is_pair()) {
        return NotAPair(pred.name().c_str(), argument);
      }
      const Value& lhs = argument.first();
      const Value& rhs = argument.second();
      if (op == PrimOp::kEq) return Value::Compare(lhs, rhs) == 0;
      if (op == PrimOp::kNeq) return Value::Compare(lhs, rhs) != 0;
      if (op == PrimOp::kIn) {
        if (!rhs.is_collection()) return NotASet("in", rhs);
        return rhs.SetContains(lhs);
      }
      KOLA_ASSIGN_OR_RETURN(int c, OrderedCompare(lhs, rhs));
      if (op == PrimOp::kLt) return c < 0;
      if (op == PrimOp::kLeq) return c <= 0;
      if (op == PrimOp::kGt) return c > 0;
      return c >= 0;
    }
    default: {
      // Schema predicates resolve through the database and must yield a
      // bool.
      Value storage;
      KOLA_ASSIGN_OR_RETURN(
          Value result,
          db_->CallFunction(pred.name(), argument.Whole(&storage)));
      KOLA_ASSIGN_OR_RETURN(bool b, result.AsBool());
      return b;
    }
  }
}

StatusOr<Value> Evaluator::Apply(const TermPtr& fn, const Value& argument) {
  return ApplyArg(fn, argument);
}

StatusOr<bool> Evaluator::Holds(const TermPtr& pred, const Value& argument) {
  return HoldsArg(pred, argument);
}

StatusOr<Value> Evaluator::ApplyArg(const TermPtr& fn,
                                    const EvalArg& argument) {
  KOLA_CHECK(fn != nullptr);
  KOLA_RETURN_IF_ERROR(Tick());
  switch (fn->kind()) {
    case TermKind::kPrimFn:
      return ApplyPrimitive(*fn, argument);
    case TermKind::kCompose: {
      KOLA_ASSIGN_OR_RETURN(Value inner, ApplyArg(fn->child(1), argument));
      return ApplyArg(fn->child(0), inner);
    }
    case TermKind::kPairFn: {
      KOLA_ASSIGN_OR_RETURN(Value a, ApplyArg(fn->child(0), argument));
      KOLA_ASSIGN_OR_RETURN(Value b, ApplyArg(fn->child(1), argument));
      return Value::MakePair(std::move(a), std::move(b));
    }
    case TermKind::kProduct: {
      if (!argument.is_pair()) return NotAPair("product", argument);
      KOLA_ASSIGN_OR_RETURN(Value a, ApplyArg(fn->child(0), argument.first()));
      KOLA_ASSIGN_OR_RETURN(Value b,
                            ApplyArg(fn->child(1), argument.second()));
      return Value::MakePair(std::move(a), std::move(b));
    }
    case TermKind::kConstFn:
      return EvalObject(fn->child(0));
    case TermKind::kCurryFn: {
      // Cf(f, v) ! y = f ! [v, y]: y is the pair's second half.
      KOLA_ASSIGN_OR_RETURN(Value v, EvalObject(fn->child(1)));
      Value storage;
      return ApplyArg(fn->child(0), EvalArg(v, argument.Whole(&storage)));
    }
    case TermKind::kCond: {
      KOLA_ASSIGN_OR_RETURN(bool c, HoldsArg(fn->child(0), argument));
      return ApplyArg(c ? fn->child(1) : fn->child(2), argument);
    }
    case TermKind::kIterate: {
      // Polymorphic over the collection kind: iterating a bag yields a bag
      // (duplicates preserved), the Section 6 deferred-duplicate-
      // elimination extension.
      if (!argument.is_collection()) {
        return NotASet("iterate", argument.Whole());
      }
      const Value& collection = argument.collection();
      std::vector<Value> out;
      for (const Value& x : collection.elements()) {
        KOLA_ASSIGN_OR_RETURN(bool keep, HoldsArg(fn->child(0), x));
        if (!keep) continue;
        KOLA_ASSIGN_OR_RETURN(Value y, ApplyArg(fn->child(1), x));
        KOLA_RETURN_IF_ERROR(ChargeScratch(1));
        out.push_back(std::move(y));
      }
      return MakeLike(collection, std::move(out));
    }
    case TermKind::kIter: {
      if (!argument.is_pair()) return NotAPair("iter", argument);
      const Value& e = argument.first();
      const Value& collection = argument.second();
      if (!collection.is_collection()) return NotASet("iter", collection);
      std::vector<Value> out;
      for (const Value& y : collection.elements()) {
        const EvalArg env(e, y);
        KOLA_ASSIGN_OR_RETURN(bool keep, HoldsArg(fn->child(0), env));
        if (!keep) continue;
        KOLA_ASSIGN_OR_RETURN(Value v, ApplyArg(fn->child(1), env));
        KOLA_RETURN_IF_ERROR(ChargeScratch(1));
        out.push_back(std::move(v));
      }
      return MakeLike(collection, std::move(out));
    }
    case TermKind::kJoin: {
      if (!argument.is_pair()) return NotAPair("join", argument);
      const Value& lhs = argument.first();
      const Value& rhs = argument.second();
      if (!lhs.is_collection()) return NotASet("join (first)", lhs);
      if (!rhs.is_collection()) return NotASet("join (second)", rhs);
      if (options_.physical_fastpaths && lhs.is_set() && rhs.is_set()) {
        if (auto fast = TryFastJoin(fn, lhs, rhs)) {
          return *std::move(fast);
        }
      }
      std::vector<Value> out;
      for (const Value& x : lhs.elements()) {
        for (const Value& y : rhs.elements()) {
          const EvalArg xy(x, y);
          KOLA_ASSIGN_OR_RETURN(bool keep, HoldsArg(fn->child(0), xy));
          if (!keep) continue;
          KOLA_ASSIGN_OR_RETURN(Value v, ApplyArg(fn->child(1), xy));
          KOLA_RETURN_IF_ERROR(ChargeScratch(1));
          out.push_back(std::move(v));
        }
      }
      return (lhs.is_bag() || rhs.is_bag()) ? Value::MakeBag(std::move(out))
                                            : Value::MakeSet(std::move(out));
    }
    case TermKind::kNest: {
      // nest(f, g) ! [A, B] = { [y, {g!x | x in A, f!x = y}] | y in B }.
      // The paper's NULL-avoiding nest: grouping is relative to B, so
      // elements of B with no matches map to the empty set.
      if (!argument.is_pair()) return NotAPair("nest", argument);
      const Value& lhs = argument.first();
      const Value& rhs = argument.second();
      if (!lhs.is_collection()) return NotASet("nest (first)", lhs);
      if (!rhs.is_collection()) return NotASet("nest (second)", rhs);
      if (options_.physical_fastpaths && lhs.is_set() && rhs.is_set()) {
        if (auto fast = TryFastNest(fn, lhs, rhs)) {
          return *std::move(fast);
        }
      }
      std::vector<Value> out;
      for (const Value& y : rhs.elements()) {
        std::vector<Value> group;
        for (const Value& x : lhs.elements()) {
          KOLA_ASSIGN_OR_RETURN(Value key, ApplyArg(fn->child(0), x));
          if (Value::Compare(key, y) != 0) continue;
          KOLA_ASSIGN_OR_RETURN(Value v, ApplyArg(fn->child(1), x));
          KOLA_RETURN_IF_ERROR(ChargeScratch(1));
          group.push_back(std::move(v));
        }
        KOLA_RETURN_IF_ERROR(ChargeScratch(1));
        out.push_back(Value::MakePair(y, MakeLike(lhs, std::move(group))));
      }
      return MakeLike(rhs, std::move(out));
    }
    case TermKind::kUnnest: {
      // unnest(f, g) ! A = { [f!x, y] | x in A, y in g!x }.
      if (!argument.is_collection()) {
        return NotASet("unnest", argument.Whole());
      }
      const Value& collection = argument.collection();
      std::vector<Value> out;
      for (const Value& x : collection.elements()) {
        KOLA_ASSIGN_OR_RETURN(Value key, ApplyArg(fn->child(0), x));
        KOLA_ASSIGN_OR_RETURN(Value inner, ApplyArg(fn->child(1), x));
        if (!inner.is_collection()) return NotASet("unnest (inner)", inner);
        for (const Value& y : inner.elements()) {
          KOLA_RETURN_IF_ERROR(ChargeScratch(1));
          out.push_back(Value::MakePair(key, y));
        }
      }
      return MakeLike(collection, std::move(out));
    }
    case TermKind::kMetaVar:
      return FailedPreconditionError(
          "cannot evaluate a pattern containing metavariable ?" + fn->name());
    default:
      return TypeError(std::string("term of kind ") +
                       TermKindToString(fn->kind()) +
                       " is not a function: " + fn->ToString());
  }
}

StatusOr<bool> Evaluator::HoldsArg(const TermPtr& pred,
                                   const EvalArg& argument) {
  KOLA_CHECK(pred != nullptr);
  KOLA_RETURN_IF_ERROR(Tick());
  switch (pred->kind()) {
    case TermKind::kPrimPred:
      return HoldsPrimitive(*pred, argument);
    case TermKind::kOplus: {
      const TermPtr& f = pred->child(1);
      if (f->kind() == TermKind::kProduct) {
        // p @ (f x g): p reads the product's pair in place. The product's
        // own invocation still takes its step, in the same order.
        KOLA_RETURN_IF_ERROR(Tick());
        if (!argument.is_pair()) return NotAPair("product", argument);
        KOLA_ASSIGN_OR_RETURN(Value a,
                              ApplyArg(f->child(0), argument.first()));
        KOLA_ASSIGN_OR_RETURN(Value b,
                              ApplyArg(f->child(1), argument.second()));
        return HoldsArg(pred->child(0), EvalArg(a, b));
      }
      KOLA_ASSIGN_OR_RETURN(Value inner, ApplyArg(f, argument));
      return HoldsArg(pred->child(0), inner);
    }
    case TermKind::kAndP: {
      KOLA_ASSIGN_OR_RETURN(bool a, HoldsArg(pred->child(0), argument));
      if (!a) return false;
      return HoldsArg(pred->child(1), argument);
    }
    case TermKind::kOrP: {
      KOLA_ASSIGN_OR_RETURN(bool a, HoldsArg(pred->child(0), argument));
      if (a) return true;
      return HoldsArg(pred->child(1), argument);
    }
    case TermKind::kInvP: {
      if (!argument.is_pair()) return NotAPair("inv", argument);
      return HoldsArg(pred->child(0),
                      EvalArg(argument.second(), argument.first()));
    }
    case TermKind::kNotP: {
      KOLA_ASSIGN_OR_RETURN(bool a, HoldsArg(pred->child(0), argument));
      return !a;
    }
    case TermKind::kConstPred: {
      const TermPtr& b = pred->child(0);
      if (b->kind() == TermKind::kBoolConst) return b->bool_const();
      KOLA_ASSIGN_OR_RETURN(Value v, EvalObject(b));
      KOLA_ASSIGN_OR_RETURN(bool result, v.AsBool());
      return result;
    }
    case TermKind::kCurryPred: {
      // Cp(p, v) ? y = p ? [v, y]: y is the pair's second half.
      KOLA_ASSIGN_OR_RETURN(Value v, EvalObject(pred->child(1)));
      Value storage;
      return HoldsArg(pred->child(0), EvalArg(v, argument.Whole(&storage)));
    }
    case TermKind::kMetaVar:
      return FailedPreconditionError(
          "cannot evaluate a pattern containing metavariable ?" +
          pred->name());
    default:
      return TypeError(std::string("term of kind ") +
                       TermKindToString(pred->kind()) +
                       " is not a predicate: " + pred->ToString());
  }
}

std::optional<StatusOr<Value>> Evaluator::TryFastJoin(const TermPtr& join,
                                                      const Value& lhs,
                                                      const Value& rhs) {
  // Recognize join(OP @ (f x g), h) with OP in {eq, in}.
  const TermPtr& pred = join->child(0);
  const TermPtr& h = join->child(1);
  if (pred->kind() != TermKind::kOplus) return std::nullopt;
  const PrimOp op = pred->child(0)->prim_op();
  if (op != PrimOp::kEq && op != PrimOp::kIn) return std::nullopt;
  if (pred->child(1)->kind() != TermKind::kProduct) return std::nullopt;
  const TermPtr& f = pred->child(1)->child(0);
  const TermPtr& g = pred->child(1)->child(1);

  auto run = [&]() -> StatusOr<Value> {
    // Build an index over the right side: key -> elements. For eq the key
    // is g!b itself; for in every member of the set g!b is a key.
    std::map<Value, std::vector<Value>> index;
    for (const Value& b : rhs.elements()) {
      KOLA_RETURN_IF_ERROR(Tick());
      KOLA_ASSIGN_OR_RETURN(Value key, ApplyArg(g, b));
      if (op == PrimOp::kEq) {
        KOLA_RETURN_IF_ERROR(ChargeScratch(1));
        index[std::move(key)].push_back(b);
      } else {
        if (!key.is_set()) {
          return TypeError("in-join expects a set key, got " +
                           key.ToString());
        }
        for (const Value& member : key.elements()) {
          KOLA_RETURN_IF_ERROR(ChargeScratch(1));
          index[member].push_back(b);
        }
      }
    }
    std::vector<Value> out;
    for (const Value& a : lhs.elements()) {
      KOLA_RETURN_IF_ERROR(Tick());
      KOLA_ASSIGN_OR_RETURN(Value key, ApplyArg(f, a));
      auto it = index.find(key);
      if (it == index.end()) continue;
      for (const Value& b : it->second) {
        KOLA_ASSIGN_OR_RETURN(Value v, ApplyArg(h, EvalArg(a, b)));
        KOLA_RETURN_IF_ERROR(ChargeScratch(1));
        out.push_back(std::move(v));
      }
    }
    ++fastpath_hits_;
    return Value::MakeSet(std::move(out));
  };
  return run();
}

std::optional<StatusOr<Value>> Evaluator::TryFastNest(const TermPtr& nest,
                                                      const Value& lhs,
                                                      const Value& rhs) {
  if (nest->child(0)->prim_op() != PrimOp::kPi1 ||
      nest->child(1)->prim_op() != PrimOp::kPi2) {
    return std::nullopt;
  }
  auto run = [&]() -> StatusOr<Value> {
    std::map<Value, std::vector<Value>> groups;
    for (const Value& x : lhs.elements()) {
      KOLA_RETURN_IF_ERROR(Tick());
      if (!x.is_pair()) {
        return TypeError("nest(pi1, pi2) expects pairs, got " + x.ToString());
      }
      KOLA_RETURN_IF_ERROR(ChargeScratch(1));
      groups[x.first()].push_back(x.second());
    }
    std::vector<Value> out;
    for (const Value& y : rhs.elements()) {
      KOLA_RETURN_IF_ERROR(Tick());
      auto it = groups.find(y);
      std::vector<Value> members =
          it == groups.end() ? std::vector<Value>{} : it->second;
      KOLA_RETURN_IF_ERROR(ChargeScratch(1));
      out.push_back(Value::MakePair(y, Value::MakeSet(std::move(members))));
    }
    ++fastpath_hits_;
    return Value::MakeSet(std::move(out));
  };
  return run();
}

StatusOr<Value> EvalQuery(const Database& db, const TermPtr& term) {
  Evaluator evaluator(&db);
  return evaluator.EvalObject(term);
}

}  // namespace kola
