#include "service/plan_cache.h"

#include <utility>

#include "term/intern.h"

namespace kola {

size_t PlanCache::KeyHash::operator()(const PlanCacheKey& key) const {
  uint64_t h = StableHashCombine(key.query_id, key.rule_fingerprint);
  return static_cast<size_t>(StableHashCombine(h, key.catalog_version));
}

int64_t PlanCache::SlotBytes(const Slot& slot) const {
  int64_t bytes = static_cast<int64_t>(slot.payload.capacity());
  if (slot.term != nullptr) {
    bytes += TermInterner::TermFootprintBytes(*slot.term);
  }
  return bytes;
}

std::optional<std::string> PlanCache::Lookup(const PlanCacheKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.hits;
  slots_[it->second].referenced = true;
  return slots_[it->second].payload;
}

size_t PlanCache::EvictOneLocked() {
  // Second chance: bounded by one full lap plus one step, and a pure
  // function of the operation sequence.
  for (;;) {
    Slot& slot = slots_[hand_];
    size_t victim = hand_;
    hand_ = (hand_ + 1) % slots_.size();
    if (slot.referenced) {
      slot.referenced = false;
      continue;
    }
    index_.erase(slot.key);
    stats_.bytes -= SlotBytes(slot);
    slot.term = nullptr;
    slot.payload.clear();
    slot.payload.shrink_to_fit();
    ++stats_.evictions;
    return victim;
  }
}

void PlanCache::Insert(const PlanCacheKey& key, TermPtr key_term,
                       std::string payload) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    Slot& slot = slots_[it->second];
    stats_.bytes -= SlotBytes(slot);
    slot.term = std::move(key_term);
    slot.payload = std::move(payload);
    stats_.bytes += SlotBytes(slot);
    return;
  }
  size_t target;
  if (capacity_ > 0 && slots_.size() >= capacity_) {
    target = EvictOneLocked();
  } else {
    target = slots_.size();
    slots_.emplace_back();
  }
  Slot& slot = slots_[target];
  slot.key = key;
  slot.term = std::move(key_term);
  slot.payload = std::move(payload);
  slot.referenced = false;
  index_[key] = target;
  stats_.bytes += SlotBytes(slot);
  ++stats_.insertions;
  stats_.entries = index_.size();
}

void PlanCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.evictions += index_.size();
  slots_.clear();
  index_.clear();
  hand_ = 0;
  stats_.bytes = 0;
  stats_.entries = 0;
}

std::vector<PlanCacheEntry> PlanCache::Entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<PlanCacheEntry> out;
  out.reserve(index_.size());
  for (const Slot& slot : slots_) {
    if (slot.term == nullptr) continue;  // freed by eviction, not yet reused
    out.push_back(PlanCacheEntry{slot.key, slot.term, slot.payload});
  }
  return out;
}

PlanCacheStats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  PlanCacheStats snapshot = stats_;
  snapshot.entries = index_.size();
  return snapshot;
}

size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return index_.size();
}

}  // namespace kola
