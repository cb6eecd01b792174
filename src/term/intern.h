#ifndef KOLA_TERM_INTERN_H_
#define KOLA_TERM_INTERN_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_set>

#include "term/term.h"

namespace kola {

/// A hash-consing arena: structurally equal terms interned through the same
/// arena share one canonical TermPtr, so `Term::Equal` degenerates to a
/// pointer compare and every canonical term carries a stable dense TermId.
///
/// Identity bookkeeping lives on the Term itself (an `intern_epoch_` tag and
/// an `intern_id_`): a term tagged with this arena's epoch IS the canonical
/// representative, and two distinct pointers tagged with the same epoch are
/// guaranteed structurally distinct -- which is exactly the fast path
/// `Term::Equal` exploits. Epochs are process-unique integers, so stale tags
/// from a destroyed or Clear()ed arena can never be confused with live ones.
///
/// The arena owns a reference to every canonical term, so canonical pointers
/// stay valid (and unique) for the arena's lifetime.
///
/// Interning is always explicit: plan-cache keys, join-exploration dedup and
/// the e-graph each Intern into their own arena. Term::Make never interns.
///
/// Thread-safe: the canonical set is sharded by structural hash with one
/// mutex per shard, so concurrent Intern calls from worker threads only
/// contend when they touch structurally identical subtrees (which is also
/// when they must agree on one canonical pointer). Structural equality of
/// interned pointers is preserved under concurrency: equal terms hash to the
/// same shard, the shard lock serializes their insertion, and the winner's
/// pointer is returned to every caller. Clear() takes every shard lock and
/// must not race in-flight Intern calls that should land in the NEW epoch
/// (quiesce workers around it, as a generation boundary).
class TermInterner {
 public:
  TermInterner();
  TermInterner(const TermInterner&) = delete;
  TermInterner& operator=(const TermInterner&) = delete;

  /// Returns the canonical term structurally equal to `term`, interning the
  /// whole subtree bottom-up. Idempotent: interning a canonical term of this
  /// arena is O(1). Returns nullptr for nullptr. Safe to call concurrently.
  TermPtr Intern(TermPtr term);

  /// The dense id of `term` if it is canonical in this arena, 0 otherwise.
  TermId IdOf(const TermPtr& term) const;

  /// Number of canonical terms held (sums the shards; a snapshot under
  /// concurrent interning).
  size_t size() const;

  /// Estimated bytes held by the arena's canonical terms (node footprints,
  /// not the hash-set overhead). Grows on insert misses, shrinks on
  /// Clear()/Compact(). A snapshot, like size().
  int64_t bytes() const;

  /// Drops every canonical term and starts a fresh epoch. Previously
  /// canonical terms remain valid, structurally comparable terms -- they are
  /// just no longer canonical, and re-interning assigns new ids.
  void Clear();

  /// Epoch compaction: drops every canonical entry whose ONLY owner is the
  /// arena itself (use_count 1 -- nothing outside can ever look it up
  /// again), sweeping until a fixpoint so a dropped parent lets its
  /// now-sole-owned children go in a later sweep. Returns the number of
  /// entries dropped. Safe while the arena is shared: destroying the sole
  /// reference destroys the term and its (stale) epoch tag with it, so the
  /// "same epoch => structurally distinct pointers" invariant Equal relies
  /// on is untouched, and a re-interned equal term is simply a fresh miss
  /// with a fresh id (ids stay unique, no longer dense).
  size_t Compact();

  /// Estimated heap footprint of one term node (used for byte accounting;
  /// exposed so caches charging term references agree on the estimate).
  static int64_t TermFootprintBytes(const Term& term);

 private:
  struct StructuralHash {
    size_t operator()(const TermPtr& t) const { return t->hash(); }
  };
  struct StructuralEq {
    bool operator()(const TermPtr& a, const TermPtr& b) const {
      return Term::Equal(a, b);
    }
  };

  /// Shard count: enough to keep eight soundness workers from serializing
  /// on one mutex, small enough that Clear()/size() stay trivial.
  static constexpr size_t kShards = 16;

  struct Shard {
    mutable std::mutex mu;
    std::unordered_set<TermPtr, StructuralHash, StructuralEq> canon;
    int64_t bytes = 0;
  };

  Shard& ShardFor(size_t hash) { return shards_[hash % kShards]; }

  std::atomic<uint64_t> epoch_{0};
  std::atomic<TermId> next_id_{1};
  Shard shards_[kShards];
};

}  // namespace kola

#endif  // KOLA_TERM_INTERN_H_
