// Allocation regression guard for the optimizer's request path. This
// binary replaces the global allocation functions with counting ones (the
// same technique as kolabench/alloc_count.cc), warms an Optimizer up, and
// bounds the allocations of one more Optimize call. The rule catalog and
// every phase's rule blocks are built once per process; a phase that went
// back to re-parsing rule texts or re-assembling its rules per call would
// multiply these counts.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>

#include "optimizer/code_motion.h"
#include "optimizer/hidden_join.h"
#include "optimizer/optimizer.h"
#include "values/car_world.h"

namespace {

thread_local uint64_t t_allocations = 0;

void* Allocate(std::size_t size) {
  ++t_allocations;
  if (size == 0) size = 1;
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* AllocateAligned(std::size_t size, std::align_val_t align) {
  ++t_allocations;
  std::size_t alignment = static_cast<std::size_t>(align);
  if (alignment < sizeof(void*)) alignment = sizeof(void*);
  std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  if (rounded == 0) rounded = alignment;
  void* p = std::aligned_alloc(alignment, rounded);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return Allocate(size); }
void* operator new[](std::size_t size) { return Allocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return Allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return Allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return AllocateAligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return AllocateAligned(size, align);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  try {
    return AllocateAligned(size, align);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  try {
    return AllocateAligned(size, align);
  } catch (...) {
    return nullptr;
  }
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace kola {
namespace {

/// Allocations of one warm, ungoverned Optimize of `query` (the optimizer
/// has already optimized it once, so every process-wide structure exists).
uint64_t WarmOptimizeAllocations(const TermPtr& query) {
  CarWorldOptions world;
  world.num_persons = 16;
  world.num_vehicles = 10;
  world.num_addresses = 8;
  world.seed = 5;
  std::unique_ptr<Database> db = BuildCarWorld(world);
  PropertyStore properties = PropertyStore::Default();
  RewriterOptions options;
  options.use_egraph = false;
  Optimizer optimizer(&properties, db.get(), options);
  EXPECT_TRUE(optimizer.Optimize(query).ok());
  const uint64_t before = t_allocations;
  auto result = optimizer.Optimize(query);
  const uint64_t allocations = t_allocations - before;
  EXPECT_TRUE(result.ok()) << result.status();
  return allocations;
}

// Counts at the commit before the catalog was built once per process
// (RelWithDebInfo, GCC, libstdc++), when every Optimize re-parsed the
// 113 catalog rules three or four times.
constexpr uint64_t kK3AllocationsBefore = 22048;
constexpr uint64_t kKG1AllocationsBefore = 30729;
// A phase that starts re-parsing rules again lands well above this.
constexpr uint64_t kReduction = 5;

TEST(AllocationGuardTest, WarmOptimizeOfK3) {
  const uint64_t allocations = WarmOptimizeAllocations(QueryK3());
  RecordProperty("allocations", static_cast<int>(allocations));
  EXPECT_LE(allocations, kK3AllocationsBefore / kReduction)
      << "a warm Optimize of K3 made " << allocations << " allocations";
}

TEST(AllocationGuardTest, WarmOptimizeOfKG1) {
  const uint64_t allocations = WarmOptimizeAllocations(GarageQueryKG1());
  RecordProperty("allocations", static_cast<int>(allocations));
  EXPECT_LE(allocations, kKG1AllocationsBefore / kReduction)
      << "a warm Optimize of KG1 made " << allocations << " allocations";
}

}  // namespace
}  // namespace kola
