#ifndef KOLA_COMMON_LINE_IO_H_
#define KOLA_COMMON_LINE_IO_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/fault_injection.h"

namespace kola {

// Line-oriented socket I/O under poll deadlines: the one copy that
// kolad's server, its replication standby, kolaload and the tests share.
// Every fd handled here is non-blocking and every wait is a poll() bounded
// by an absolute deadline on the NowMs() clock (-1 = none), so a stalled
// or vanished peer costs one deadline, never a wedged thread.

/// How an I/O call ended.
enum class IoResult {
  kOk,
  kTimeout,  // the deadline passed first
  kClosed,   // the peer closed its side before the data was complete
  kTooLong,  // ReadLine: more than `max_bytes` buffered with no newline
  kFailed,   // a poll/connect/recv/send error, or an injected fault
};

/// "ok", "timed out", "closed by peer", "line too long" or "failed".
const char* IoResultName(IoResult result);

/// Milliseconds on the steady clock, the clock of every deadline here.
int64_t NowMs();

/// The absolute deadline `budget_ms` from now; -1 (none) when the budget
/// is not positive.
int64_t DeadlineAfter(int64_t budget_ms);

/// Polls `fd` for `events` until it is ready or `deadline_ms` passes.
/// Returns >0 when ready, 0 at the deadline, <0 on an error other than
/// EINTR; EINTR restarts the poll with the remaining budget.
int PollFd(int fd, short events, int64_t deadline_ms);

void SetNonBlocking(int fd);

/// Owns one file descriptor and closes it on destruction.
class ScopedFd {
 public:
  ScopedFd() = default;
  explicit ScopedFd(int fd) : fd_(fd) {}
  ~ScopedFd();
  ScopedFd(ScopedFd&& other) noexcept;
  ScopedFd& operator=(ScopedFd&& other) noexcept;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }

 private:
  int fd_ = -1;
};

/// Connects to 127.0.0.1:`port`, bounded by `deadline_ms` (a stopped
/// daemon leaves its port open but never accepts). The fd stays
/// non-blocking. Invalid when the connect is refused, fails or times out.
ScopedFd DialLoopback(int port, int64_t deadline_ms);

/// Sends all of `bytes` before `deadline_ms`, continuing after short
/// writes; each short write adds one to `*short_writes` when it is given.
/// Sends pass MSG_NOSIGNAL: a peer that hung up costs one connection, not
/// a SIGPIPE for the process. With `fault` set, every send of more than
/// one byte first draws that site, and a fault clamps the send to one
/// byte, so the short-write path runs deterministically under chaos.
IoResult SendAll(int fd, std::string_view bytes, int64_t deadline_ms,
                 std::optional<FaultSite> fault = std::nullopt,
                 uint64_t* short_writes = nullptr);

/// A buffered reader over a borrowed non-blocking fd: '\n'-framed lines,
/// and exact byte counts for a payload whose length a header line gave.
/// Bytes read past a line stay buffered for the next call.
class LineReader {
 public:
  /// With `recv_fault` set, every recv first draws that site, and a fault
  /// reads as kFailed (the peer reset mid-request).
  explicit LineReader(int fd,
                      std::optional<FaultSite> recv_fault = std::nullopt)
      : fd_(fd), recv_fault_(recv_fault) {}

  /// Reads one line into `*line` without its '\n' or one trailing '\r'.
  /// kTooLong once more than `max_bytes` are buffered with no newline, so
  /// a stream that never sends one cannot grow the buffer without bound.
  /// A line cut off by EOF reads as kClosed, never as a line.
  IoResult ReadLine(std::string* line, size_t max_bytes, int64_t deadline_ms);

  /// Reads exactly `n` bytes into `*out`: buffered bytes first, the rest
  /// received straight into `*out`, so a large payload is copied once and
  /// allocated only as it arrives.
  IoResult ReadExact(size_t n, std::string* out, int64_t deadline_ms);

 private:
  // The server draws one recv fault per recv, so the size of a line read
  // sets its fault schedule; a payload has no fault site and is read in
  // larger steps.
  static constexpr size_t kLineChunkBytes = 4 << 10;
  static constexpr size_t kExactChunkBytes = 64 << 10;

  /// Waits for input and appends at most `max_bytes` from one recv to
  /// `*dst`. kOk with nothing appended after a spurious wakeup.
  IoResult Recv(std::string* dst, size_t max_bytes, int64_t deadline_ms);

  int fd_;
  std::optional<FaultSite> recv_fault_;
  std::string buffer_;
  size_t scanned_ = 0;  // buffer_[0, scanned_) holds no '\n'
};

}  // namespace kola

#endif  // KOLA_COMMON_LINE_IO_H_
