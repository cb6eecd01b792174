#include "egraph/egraph.h"

#include <algorithm>
#include <string>
#include <unordered_set>
#include <utility>

#include "common/macros.h"
#include "rewrite/rule_index.h"
#include "rules/catalog.h"

namespace kola {

namespace {

/// Estimated heap bytes one e-node costs (node struct, child ids, hashcons
/// slot, memo entry): the unit of MemoryCategory::kEGraph charges.
int64_t ENodeFootprintBytes(size_t arity) {
  return static_cast<int64_t>(96 + 8 * arity);
}

/// The extraction order: fewer nodes first, then the smaller rendering
/// (shorter, then lexicographic). A strict weak order over structurally
/// distinct terms with no platform-dependent input, so ties break the same
/// way everywhere.
bool SmallerTerm(const TermPtr& a, const TermPtr& b) {
  if (a->node_count() != b->node_count()) {
    return a->node_count() < b->node_count();
  }
  const std::string sa = a->ToString();
  const std::string sb = b->ToString();
  if (sa.size() != sb.size()) return sa.size() < sb.size();
  return sa < sb;
}

}  // namespace

EGraph::EGraph(EGraphOptions options)
    : options_(options),
      charge_(options.governor, MemoryCategory::kEGraph) {}

EClassId EGraph::Find(EClassId id) const {
  // Path halving; parent_ is logically const (find never changes the
  // partition, only shortens it).
  auto& parent = const_cast<std::vector<EClassId>&>(parent_);
  while (parent[id] != id) {
    parent[id] = parent[parent[id]];
    id = parent[id];
  }
  return id;
}

EClassId EGraph::Merge(EClassId a, EClassId b) {
  EClassId ra = Find(a);
  EClassId rb = Find(b);
  if (ra == rb) return ra;
  // Smaller root id wins: the partition is a pure function of the merge
  // sequence, independent of argument order.
  if (rb < ra) std::swap(ra, rb);
  parent_[rb] = ra;
  ++stats_.unions;
  dirty_ = true;
  return ra;
}

uint64_t EGraph::NodeHash(const Term& rep,
                          const std::vector<EClassId>& children) const {
  uint64_t h = StableHashCombine(0x9e3779b97f4a7c15ULL,
                                 static_cast<uint64_t>(rep.kind()));
  if (rep.is_leaf()) return StableHashCombine(h, rep.stable_hash());
  for (EClassId child : children) {
    h = StableHashCombine(h, Find(child));
  }
  return h;
}

bool EGraph::CongruentWithKey(const ENode& node, const Term& rep,
                              const std::vector<EClassId>& children) const {
  if (node.rep->kind() != rep.kind()) return false;
  if (rep.is_leaf()) {
    // Leaves carry the payload (name / literal / bool), so identity is
    // structural equality of the reps -- a pointer compare when both came
    // canonical out of the arena.
    if (!node.rep->is_leaf()) return false;
    if (node.rep.get() == &rep) return true;
    if (node.rep->hash() != rep.hash()) return false;
    if (node.rep->name() != rep.name()) return false;
    if (node.rep->bool_const() != rep.bool_const()) return false;
    return node.rep->ToString() == rep.ToString();
  }
  if (node.rep->is_leaf()) return false;
  if (node.children.size() != children.size()) return false;
  for (size_t i = 0; i < children.size(); ++i) {
    if (Find(node.children[i]) != Find(children[i])) return false;
  }
  return true;
}

EClassId EGraph::NodeFor(const TermPtr& rep, std::vector<EClassId> children) {
  for (EClassId& child : children) child = Find(child);
  const uint64_t hash = NodeHash(*rep, children);
  std::vector<uint32_t>& bucket = hashcons_[hash];
  for (uint32_t index : bucket) {
    if (CongruentWithKey(nodes_[index], *rep, children)) {
      return Find(nodes_[index].cls);
    }
  }
  // A failed bookkeeping charge latches exhaustion (stopping the next
  // saturation step) but the node is still created: AddTerm must complete
  // so seed plans always have a class to be extracted from.
  if (!charge_.Add(ENodeFootprintBytes(children.size())).ok()) {
    exhausted_ = true;
  }
  const EClassId cls = static_cast<EClassId>(parent_.size());
  parent_.push_back(cls);
  ENode node;
  node.rep = rep;
  node.children = std::move(children);
  node.cls = cls;
  nodes_.push_back(std::move(node));
  bucket.push_back(static_cast<uint32_t>(nodes_.size() - 1));
  ++stats_.nodes;
  return cls;
}

EClassId EGraph::AddTerm(const TermPtr& term) {
  KOLA_CHECK(term != nullptr);
  if (dirty_) Rebuild();
  TermPtr canon = arena_.Intern(term);

  // Iterative post-order so a deep plan spine cannot overflow the native
  // stack. A frame's child_classes doubles as the next-child cursor: a
  // child resolved from the memo delivers immediately, one resolved by a
  // pushed frame delivers when that frame completes.
  struct Frame {
    TermPtr term;
    std::vector<EClassId> child_classes;
  };
  std::vector<Frame> stack;
  EClassId result = 0;
  auto deliver = [&](EClassId cls) {
    if (stack.empty()) {
      result = cls;
    } else {
      stack.back().child_classes.push_back(cls);
    }
  };
  auto enter = [&](const TermPtr& node) {
    auto it = memo_.find(node);
    if (it != memo_.end()) {
      deliver(Find(it->second));
    } else {
      stack.push_back(Frame{node, {}});
    }
  };
  enter(canon);
  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (frame.child_classes.size() < frame.term->arity()) {
      enter(frame.term->child(frame.child_classes.size()));
      continue;
    }
    TermPtr node = frame.term;
    EClassId cls = NodeFor(node, std::move(frame.child_classes));
    stack.pop_back();
    memo_.emplace(std::move(node), cls);
    deliver(cls);
  }
  return result;
}

void EGraph::Rebuild() {
  // Re-canonicalize and re-hash every node, merging congruent ones; a
  // merge can change earlier nodes' canonical children, so restart until a
  // full pass finds nothing to do. Buckets are rebuilt in node order each
  // pass, keeping probe order (and therefore which node becomes a class's
  // bucket representative) deterministic.
  bool changed = true;
  while (changed) {
    changed = false;
    hashcons_.clear();
    for (size_t i = 0; i < nodes_.size(); ++i) {
      ENode& node = nodes_[i];
      for (EClassId& child : node.children) child = Find(child);
      node.cls = Find(node.cls);
      const uint64_t hash = NodeHash(*node.rep, node.children);
      std::vector<uint32_t>& bucket = hashcons_[hash];
      bool duplicate = false;
      for (uint32_t index : bucket) {
        if (index == i) continue;
        if (CongruentWithKey(nodes_[index], *node.rep, node.children)) {
          if (Find(nodes_[index].cls) != Find(node.cls)) {
            Merge(nodes_[index].cls, node.cls);
            changed = true;
          }
          duplicate = true;
          break;
        }
      }
      if (!duplicate) bucket.push_back(static_cast<uint32_t>(i));
    }
  }
  dirty_ = false;
}

Status EGraph::Saturate(const Rewriter& rewriter,
                        const CompiledRuleSet& rule_set) {
  if (dirty_) Rebuild();
  // nullptr when indexing is off (options / KOLA_NO_RULE_INDEX); the
  // linear probe below fires the same rules in the same ascending order,
  // so the e-graph evolves identically either way (the index is an exact
  // filter).
  const RuleIndex* index = rewriter.IndexFor(rule_set);
  const std::vector<Rule>& rules = rule_set.rules();
  std::vector<uint32_t> candidates;
  size_t next = 0;
  bool capped = false;
  while (next < nodes_.size()) {
    if (options_.max_nodes != 0 && nodes_.size() >= options_.max_nodes) {
      capped = true;
      break;
    }
    if (options_.governor != nullptr) {
      // Covers deadline, cancellation, and the sticky memory latch a
      // refused e-node / arena charge left behind.
      KOLA_RETURN_IF_ERROR(options_.governor->CheckNow());
    }
    if (exhausted_) {
      return ResourceExhaustedError("e-graph memory budget exhausted after " +
                                    std::to_string(nodes_.size()) +
                                    " e-nodes");
    }
    // The node vector grows inside the loop; keep the rep alive by value.
    const TermPtr rep = nodes_[next].rep;
    const EClassId cls = nodes_[next].cls;
    if (index != nullptr) {
      index->CandidatesAt(*rep, &candidates);
    } else {
      candidates.resize(rules.size());
      for (uint32_t i = 0; i < rules.size(); ++i) candidates[i] = i;
    }
    for (uint32_t rule_index : candidates) {
      std::optional<TermPtr> rewritten =
          rewriter.ApplyAtRoot(rules[rule_index], rep);
      if (!rewritten.has_value()) continue;
      if (options_.governor != nullptr) {
        KOLA_RETURN_IF_ERROR(options_.governor->Charge(1));
      }
      ++stats_.rule_applications;
      const EClassId out = AddTerm(*rewritten);
      Merge(cls, out);
      if (dirty_) Rebuild();
    }
    ++next;
    ++stats_.processed;
  }
  stats_.saturated = !capped && next == nodes_.size();
  return Status::OK();
}

std::vector<TermPtr> EGraph::BestByClass() {
  if (dirty_) Rebuild();
  std::vector<TermPtr> best(parent_.size());
  // Bottom-up e-class cost minimization on the size metric: each pass
  // offers, per node, its rep and (once every child class has a best) the
  // rep rebuilt over the children's bests. A table entry only ever gets
  // strictly smaller, so the total size decreases every changing pass and
  // the loop terminates.
  bool changed = true;
  while (changed) {
    changed = false;
    for (const ENode& node : nodes_) {
      TermPtr candidate = node.rep;
      if (!node.rep->is_leaf()) {
        std::vector<TermPtr> kids;
        kids.reserve(node.children.size());
        bool complete = true;
        for (EClassId child : node.children) {
          const TermPtr& kid = best[Find(child)];
          if (kid == nullptr) {
            complete = false;
            break;
          }
          kids.push_back(kid);
        }
        if (complete) {
          // TryWithChildren: replacement children come from other class
          // members, so an ill-sorted rebuild is possible in principle;
          // skip it and keep the rep.
          StatusOr<TermPtr> rebuilt =
              node.rep->TryWithChildren(std::move(kids));
          if (rebuilt.ok() && SmallerTerm(*rebuilt, candidate)) {
            candidate = *rebuilt;
          }
        }
      }
      TermPtr& slot = best[Find(node.cls)];
      if (slot == nullptr || SmallerTerm(candidate, slot)) {
        slot = candidate;
        changed = true;
      }
    }
  }
  return best;
}

StatusOr<TermPtr> EGraph::ExtractSmallest(EClassId id) {
  if (id >= parent_.size()) {
    return InvalidArgumentError("unknown e-class id " + std::to_string(id));
  }
  std::vector<TermPtr> best = BestByClass();
  TermPtr term = best[Find(id)];
  if (term == nullptr) {
    return InternalError("e-class " + std::to_string(id) +
                         " has no extractable member");
  }
  return term;
}

std::vector<TermPtr> EGraph::ExtractCandidates(EClassId id) {
  std::vector<TermPtr> out;
  if (id >= parent_.size()) return out;
  std::vector<TermPtr> best = BestByClass();
  const EClassId root = Find(id);
  std::unordered_set<std::string> seen;
  auto offer = [&](const TermPtr& term) {
    if (term == nullptr) return;
    if (seen.insert(term->ToString()).second) out.push_back(term);
  };
  for (const ENode& node : nodes_) {
    if (Find(node.cls) != root) continue;
    offer(node.rep);
    if (!node.rep->is_leaf()) {
      std::vector<TermPtr> kids;
      kids.reserve(node.children.size());
      bool complete = true;
      for (EClassId child : node.children) {
        const TermPtr& kid = best[Find(child)];
        if (kid == nullptr) {
          complete = false;
          break;
        }
        kids.push_back(kid);
      }
      if (complete) {
        StatusOr<TermPtr> rebuilt = node.rep->TryWithChildren(std::move(kids));
        if (rebuilt.ok()) offer(*rebuilt);
      }
    }
  }
  return out;
}

size_t EGraph::class_count() const {
  std::vector<bool> root_seen(parent_.size(), false);
  size_t count = 0;
  for (const ENode& node : nodes_) {
    const EClassId root = Find(node.cls);
    if (!root_seen[root]) {
      root_seen[root] = true;
      ++count;
    }
  }
  return count;
}

EGraphStats EGraph::stats() const {
  EGraphStats snapshot = stats_;
  snapshot.classes = class_count();
  return snapshot;
}

const CompiledRuleSet& SaturationRules() {
  // Leaked, like the Catalog: rules hold terms that may outlive static
  // teardown order.
  static const CompiledRuleSet* pool = [] {
    std::vector<Rule> rules;
    std::unordered_set<std::string> seen;
    auto add = [&](const Rule& rule) {
      std::string key = rule.lhs->ToString() + " => " + rule.rhs->ToString();
      for (const PropertyAtom& condition : rule.conditions) {
        key += " if " + condition.property + "(" +
               condition.pattern->ToString() + ")";
      }
      if (seen.insert(std::move(key)).second) rules.push_back(rule);
    };
    for (const Rule& rule : Catalog::Get().rules()) {
      add(rule);
      StatusOr<Rule> reversed = ReverseRule(rule);
      // Reversals that invent variables are rejected by ReverseRule;
      // reversals whose lhs is a bare metavariable (f => f o id readings)
      // fire at every node of matching sort and only inflate the graph,
      // so they are dropped too.
      if (reversed.ok() && !reversed->lhs->is_metavar()) add(*reversed);
    }
    return new CompiledRuleSet(std::move(rules));
  }();
  return *pool;
}

EGraphOutcome SaturateAndExtract(const TermPtr& query, const TermPtr& greedy,
                                 const Rewriter& rewriter,
                                 const PlanCostFn& cost,
                                 const EGraphOptions& options) {
  EGraphOutcome outcome;
  outcome.plan = greedy != nullptr ? greedy : query;
  EGraph egraph(options);
  const EClassId root = egraph.AddTerm(query);
  if (greedy != nullptr && !Term::Equal(query, greedy)) {
    // Sound merge: the greedy plan was derived from the query by equation
    // rules, so both denote the same function.
    egraph.Merge(root, egraph.AddTerm(greedy));
    egraph.Rebuild();
  }
  outcome.status = egraph.Saturate(rewriter, SaturationRules());
  // Extraction runs even when saturation was cut short: degradation
  // returns the best plan of the partial graph, which always contains the
  // seeds.
  const TermPtr baseline = outcome.plan;
  StatusOr<double> baseline_cost = cost(baseline);
  if (baseline_cost.ok()) {
    double best_cost = *baseline_cost;
    TermPtr best = baseline;
    for (const TermPtr& candidate : egraph.ExtractCandidates(root)) {
      if (Term::Equal(candidate, best)) continue;
      StatusOr<double> candidate_cost = cost(candidate);
      if (!candidate_cost.ok()) continue;
      if (*candidate_cost < best_cost ||
          (*candidate_cost == best_cost && SmallerTerm(candidate, best))) {
        best_cost = *candidate_cost;
        best = candidate;
      }
    }
    outcome.plan = best;
  }
  outcome.stats = egraph.stats();
  return outcome;
}

}  // namespace kola
