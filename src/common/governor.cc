#include "common/governor.h"

namespace kola {
namespace {

// Sample the clock once per this many charges. Evaluator ticks arrive at
// nanosecond scale, so an unconditional steady_clock::now() per tick would
// dominate the work being governed; one sample per 512 charges keeps the
// deadline responsive to well under a millisecond of drift.
constexpr uint64_t kClockCheckMask = 511;

}  // namespace

Governor::Governor(Limits limits)
    : limits_(limits), memory_(limits.memory_budget_bytes) {
  deadline_ = std::chrono::steady_clock::now() +
              std::chrono::milliseconds(limits_.deadline_ms);
}

const char* Governor::StopCauseName(StopCause cause) {
  switch (cause) {
    case StopCause::kNone:
      return "none";
    case StopCause::kDeadline:
      return "deadline";
    case StopCause::kBudget:
      return "budget";
    case StopCause::kMemory:
      return "memory";
    case StopCause::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

Status Governor::Stop(StopCause cause) const {
  // First cause wins; a later Charge racing a Cancel keeps whichever
  // landed first so the reported cause is stable.
  StopCause expected = StopCause::kNone;
  cause_.compare_exchange_strong(expected, cause, std::memory_order_acq_rel);
  return StopStatus();
}

Status Governor::StopStatus() const {
  switch (cause_.load(std::memory_order_acquire)) {
    case StopCause::kNone:
      return Status::OK();
    case StopCause::kDeadline:
      return ResourceExhaustedError("governor deadline of " +
                                    std::to_string(limits_.deadline_ms) +
                                    "ms exceeded");
    case StopCause::kBudget:
      return ResourceExhaustedError("governor step budget of " +
                                    std::to_string(limits_.step_budget) +
                                    " exceeded");
    case StopCause::kMemory:
      return memory_.ExhaustedStatus();
    case StopCause::kCancelled:
      return ResourceExhaustedError("request cancelled");
  }
  return InternalError("governor in unknown stop state");
}

Status Governor::Charge(int64_t steps) const {
  if (stopped()) return StopStatus();
  int64_t spent =
      spent_.fetch_add(steps, std::memory_order_relaxed) + steps;
  if (limits_.step_budget > 0 && spent > limits_.step_budget) {
    return Stop(StopCause::kBudget);
  }
  if (limits_.deadline_ms > 0 &&
      (charges_.fetch_add(1, std::memory_order_relaxed) & kClockCheckMask) ==
          0 &&
      std::chrono::steady_clock::now() > deadline_) {
    return Stop(StopCause::kDeadline);
  }
  return Status::OK();
}

Status Governor::CheckNow() const {
  if (stopped()) return StopStatus();
  if (limits_.deadline_ms > 0 &&
      std::chrono::steady_clock::now() > deadline_) {
    return Stop(StopCause::kDeadline);
  }
  return Status::OK();
}

Status Governor::ChargeMemory(MemoryCategory category, int64_t bytes) const {
  if (stopped()) return StopStatus();
  Status status = memory_.Charge(category, bytes);
  if (!status.ok()) return Stop(StopCause::kMemory);
  return status;
}

void Governor::ReleaseMemory(MemoryCategory category, int64_t bytes) const {
  memory_.Release(category, bytes);
}

void Governor::Cancel() const { Stop(StopCause::kCancelled); }

}  // namespace kola
