#include "service/replication.h"

#include <algorithm>
#include <chrono>
#include <vector>

#include "common/fault_injection.h"
#include "common/line_io.h"
#include "common/parse_number.h"
#include "common/string_util.h"
#include "service/plan_cache_io.h"
#include "term/term.h"

namespace kola {

namespace {

/// A declared stream length beyond this is corruption (or a hostile
/// primary), not a snapshot; reading it would balloon the standby.
constexpr uint64_t kMaxSyncBytes = 256ull << 20;

/// The SYNC header line, "OK SNAPSHOT <len> <hex checksum>", is under 64
/// bytes. A peer that streams more than this with no newline is not a
/// primary; without the cap it could grow the standby's buffer until the
/// io deadline.
constexpr size_t kMaxSyncHeaderBytes = 4096;

/// Cap on the full-jitter backoff between failed syncs.
constexpr int64_t kMaxBackoffMs = 5000;

Status SyncError(const char* what, IoResult result) {
  return UnavailableError(std::string("sync: ") + what + " " +
                          IoResultName(result));
}

}  // namespace

ReplicationClient::ReplicationClient(OptimizationService* service,
                                     ReplicationOptions options)
    : service_(service),
      options_(std::move(options)),
      backoff_rng_(options_.backoff_seed) {
  if (options_.sync_interval_ms < 1) options_.sync_interval_ms = 1;
  if (options_.io_deadline_ms < 1) options_.io_deadline_ms = 1;
}

ReplicationClient::~ReplicationClient() { Stop(); }

void ReplicationClient::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (running_) return;
  stop_ = false;
  running_ = true;
  thread_ = std::thread([this] { SyncLoop(); });
}

void ReplicationClient::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  std::lock_guard<std::mutex> lock(mu_);
  running_ = false;
}

bool ReplicationClient::SleepFor(int64_t ms) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait_for(lock, std::chrono::milliseconds(ms), [&] { return stop_; });
  return !stop_;
}

Status ReplicationClient::SyncOnce() {
  attempts_.fetch_add(1, std::memory_order_relaxed);
  // The standby-side chaos probe: a torn receive path, drawn before any
  // bytes move so the schedule is deterministic per seed.
  if (Status injected = MaybeInjectFault(FaultSite::kReplSync);
      !injected.ok()) {
    return injected;
  }
  const int64_t deadline = DeadlineAfter(options_.io_deadline_ms);
  ScopedFd fd = DialLoopback(options_.port, deadline);
  if (!fd.valid()) {
    return UnavailableError("sync: cannot connect to 127.0.0.1:" +
                            std::to_string(options_.port));
  }
  if (IoResult sent = SendAll(fd.get(), "SYNC\n", deadline);
      sent != IoResult::kOk) {
    return SyncError("request", sent);
  }
  LineReader reader(fd.get());
  std::string header;
  if (IoResult read = reader.ReadLine(&header, kMaxSyncHeaderBytes, deadline);
      read != IoResult::kOk) {
    return SyncError("header", read);
  }
  // "OK SNAPSHOT <len> <hex checksum>" -- anything else (ERR NOT_READY
  // from a not-yet-synced upstream, an old binary) is a failed sync.
  std::vector<std::string> fields = Split(header, ' ');
  if (fields.size() != 4 || fields[0] != "OK" || fields[1] != "SNAPSHOT") {
    return UnavailableError("sync: unexpected response '" + header + "'");
  }
  auto declared_len = ParseUint64(fields[2]);
  uint64_t declared_checksum = 0;
  if (!declared_len.ok() || !ParseHex64(fields[3], &declared_checksum) ||
      declared_len.value() > kMaxSyncBytes) {
    return UnavailableError("sync: malformed stream header '" + header + "'");
  }
  const size_t len = static_cast<size_t>(declared_len.value());
  std::string bytes;
  if (IoResult read = reader.ReadExact(len, &bytes, deadline);
      read != IoResult::kOk) {
    return SyncError("stream", read);
  }
  bytes_received_.fetch_add(len, std::memory_order_relaxed);

  // End-to-end integrity: the checksum was computed over the bytes the
  // primary intended to send, so any tear or flip in transit -- including
  // an injected kReplSync fault on the primary -- is caught here, before
  // a single entry is applied.
  if (StableStringHash(bytes) != declared_checksum) {
    checksum_mismatches_.fetch_add(1, std::memory_order_relaxed);
    return UnavailableError("sync: stream checksum mismatch (torn or "
                            "corrupt snapshot stream)");
  }

  SnapshotRestoreReport report = service_->ApplySyncBytes(bytes);
  return report.status;
}

void ReplicationClient::SyncLoop() {
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stop_) return;
    }
    Status status = SyncOnce();
    if (status.ok()) {
      if (!SleepFor(options_.sync_interval_ms)) return;
      continue;
    }
    const int failures = service_->NoteSyncFailure();
    if (options_.promote_after_failures > 0 &&
        failures >= options_.promote_after_failures) {
      // The primary is gone (or unreachable long enough that split-brain
      // is the lesser risk on loopback): take over. The service starts
      // accepting BUMP; this loop's job is done.
      service_->Promote();
      return;
    }
    // Full jitter: uniform in (0, min(cap, interval << failures)], so a
    // herd of standbys does not stampede a recovering primary.
    int64_t ceiling = options_.sync_interval_ms;
    for (int i = 1; i < failures && ceiling < kMaxBackoffMs; ++i) {
      ceiling *= 2;
    }
    ceiling = std::min<int64_t>(ceiling, kMaxBackoffMs);
    int64_t nap = 1 + static_cast<int64_t>(backoff_rng_.NextDouble() *
                                           static_cast<double>(ceiling));
    if (!SleepFor(nap)) return;
  }
}

ReplicationClientStats ReplicationClient::stats() const {
  ReplicationClientStats s;
  s.attempts = attempts_.load(std::memory_order_relaxed);
  s.checksum_mismatches =
      checksum_mismatches_.load(std::memory_order_relaxed);
  s.bytes_received = bytes_received_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.running = running_ && !stop_;
  }
  return s;
}

}  // namespace kola
