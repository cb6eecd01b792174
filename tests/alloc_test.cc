// Allocation regression guard for the optimizer's and the evaluator's
// request paths. This binary replaces the global allocation functions with
// counting ones (the same technique as kolabench/alloc_count.cc), warms an
// Optimizer up, and bounds the allocations of one more Optimize call. The
// rule catalog and every phase's rule blocks are built once per process; a
// phase that went back to re-parsing rule texts or re-assembling its rules
// per call would multiply these counts. It also bounds one warm evaluation
// of two join plans: the evaluator reads pair arguments in place, so a
// nested-loop join that went back to building a pair per candidate (or
// resolving names by building strings) would multiply those counts.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>

#include "eval/evaluator.h"
#include "optimizer/code_motion.h"
#include "optimizer/hidden_join.h"
#include "optimizer/optimizer.h"
#include "translate/translate.h"
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

/// Allocations of one warm, ungoverned evaluation of the optimized plan of
/// the OQL `query` on the kolabench `compile` world (25 persons, 15
/// vehicles, 10 addresses, seed 404); the plan has been evaluated once
/// already.
uint64_t WarmEvaluationAllocations(const char* query) {
  CarWorldOptions world;
  world.num_persons = 25;
  world.num_vehicles = 15;
  world.num_addresses = 10;
  world.seed = 404;
  std::unique_ptr<Database> db = BuildCarWorld(world);
  PropertyStore properties = PropertyStore::Default();
  Optimizer optimizer(&properties, db.get());
  auto input = ParseQueryText(QueryLanguage::kOql, query);
  EXPECT_TRUE(input.ok()) << input.status();
  if (!input.ok()) return 0;
  auto plan = optimizer.Optimize(input.value());
  EXPECT_TRUE(plan.ok()) << plan.status();
  if (!plan.ok()) return 0;
  {
    Evaluator warm(db.get());
    EXPECT_TRUE(warm.EvalObject(plan->query).ok());
  }
  Evaluator evaluator(db.get());
  const uint64_t before = t_allocations;
  auto value = evaluator.EvalObject(plan->query);
  const uint64_t allocations = t_allocations - before;
  EXPECT_TRUE(value.ok()) << value.status();
  return allocations;
}

// Counts at the commit before the evaluator read pair arguments in place
// (RelWithDebInfo, GCC, libstdc++), when every nested-loop candidate and
// every `p @ (f x g)` test built a heap-allocated pair.
constexpr uint64_t kSelfJoinEvalAllocationsBefore = 2188;
constexpr uint64_t kOwnershipJoinEvalAllocationsBefore = 925;

TEST(AllocationGuardTest, WarmEvaluationOfSelfJoin) {
  const uint64_t allocations = WarmEvaluationAllocations(
      "select [a.name, b.name] from a in P, b in P where a.age > b.age");
  RecordProperty("allocations", static_cast<int>(allocations));
  EXPECT_LE(allocations, kSelfJoinEvalAllocationsBefore / 2)
      << "a warm evaluation of the self-join made " << allocations
      << " allocations";
}

TEST(AllocationGuardTest, WarmEvaluationOfOwnershipJoin) {
  const uint64_t allocations = WarmEvaluationAllocations(
      "select [v.make, p.name] from v in V, p in P where v in p.cars");
  RecordProperty("allocations", static_cast<int>(allocations));
  EXPECT_LE(allocations, kOwnershipJoinEvalAllocationsBefore / 2)
      << "a warm evaluation of the ownership join made " << allocations
      << " allocations";
}

}  // namespace
}  // namespace kola
