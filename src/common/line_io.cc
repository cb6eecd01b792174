#include "common/line_io.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <iterator>
#include <utility>

namespace kola {

namespace {

bool Transient(int err) {
  return err == EINTR || err == EAGAIN || err == EWOULDBLOCK;
}

}  // namespace

const char* IoResultName(IoResult result) {
  static constexpr const char* kNames[] = {"ok", "timed out", "closed by peer",
                                           "line too long", "failed"};
  static_assert(std::size(kNames) ==
                static_cast<size_t>(IoResult::kFailed) + 1);
  return kNames[static_cast<int>(result)];
}

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t DeadlineAfter(int64_t budget_ms) {
  return budget_ms > 0 ? NowMs() + budget_ms : -1;
}

int PollFd(int fd, short events, int64_t deadline_ms) {
  for (;;) {
    int timeout = -1;
    if (deadline_ms >= 0) {
      int64_t remaining = deadline_ms - NowMs();
      if (remaining <= 0) return 0;
      timeout = static_cast<int>(std::min<int64_t>(remaining, 1 << 30));
    }
    pollfd pfd{fd, events, 0};
    int rc = ::poll(&pfd, 1, timeout);
    if (rc < 0 && errno == EINTR) continue;
    return rc;
  }
}

void SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

ScopedFd::~ScopedFd() {
  if (fd_ >= 0) ::close(fd_);
}

ScopedFd::ScopedFd(ScopedFd&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)) {}

ScopedFd& ScopedFd::operator=(ScopedFd&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

ScopedFd DialLoopback(int port, int64_t deadline_ms) {
  ScopedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return fd;
  SetNonBlocking(fd.get());
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                sizeof(addr)) < 0 &&
      errno != EINPROGRESS) {
    return ScopedFd();
  }
  if (PollFd(fd.get(), POLLOUT, deadline_ms) <= 0) return ScopedFd();
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &err, &len) < 0 ||
      err != 0) {
    return ScopedFd();
  }
  return fd;
}

IoResult SendAll(int fd, std::string_view bytes, int64_t deadline_ms,
                 std::optional<FaultSite> fault, uint64_t* short_writes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    int ready = PollFd(fd, POLLOUT, deadline_ms);
    if (ready == 0) return IoResult::kTimeout;
    if (ready < 0) return IoResult::kFailed;
    size_t want = bytes.size() - sent;
    if (want > 1 && fault.has_value() && !MaybeInjectFault(*fault).ok()) {
      want = 1;
    }
    ssize_t n = ::send(fd, bytes.data() + sent, want, MSG_NOSIGNAL);
    if (n < 0) {
      if (Transient(errno)) continue;
      return IoResult::kFailed;
    }
    if (static_cast<size_t>(n) < bytes.size() - sent &&
        short_writes != nullptr) {
      ++*short_writes;
    }
    sent += static_cast<size_t>(n);
  }
  return IoResult::kOk;
}

IoResult LineReader::Recv(std::string* dst, size_t max_bytes,
                          int64_t deadline_ms) {
  int ready = PollFd(fd_, POLLIN, deadline_ms);
  if (ready == 0) return IoResult::kTimeout;
  if (ready < 0) return IoResult::kFailed;
  if (recv_fault_.has_value() && !MaybeInjectFault(*recv_fault_).ok()) {
    return IoResult::kFailed;
  }
  size_t at = dst->size();
  dst->resize(at + max_bytes);
  ssize_t n = ::recv(fd_, dst->data() + at, max_bytes, 0);
  int err = errno;
  dst->resize(at + (n > 0 ? static_cast<size_t>(n) : 0));
  if (n < 0) return Transient(err) ? IoResult::kOk : IoResult::kFailed;
  if (n == 0) return IoResult::kClosed;
  return IoResult::kOk;
}

IoResult LineReader::ReadLine(std::string* line, size_t max_bytes,
                              int64_t deadline_ms) {
  for (;;) {
    size_t newline = buffer_.find('\n', scanned_);
    if (newline != std::string::npos) {
      line->assign(buffer_, 0, newline);
      buffer_.erase(0, newline + 1);
      scanned_ = 0;
      if (!line->empty() && line->back() == '\r') line->pop_back();
      return IoResult::kOk;
    }
    scanned_ = buffer_.size();
    if (buffer_.size() > max_bytes) return IoResult::kTooLong;
    if (IoResult got = Recv(&buffer_, kLineChunkBytes, deadline_ms);
        got != IoResult::kOk) {
      return got;
    }
  }
}

IoResult LineReader::ReadExact(size_t n, std::string* out,
                               int64_t deadline_ms) {
  size_t buffered = std::min(n, buffer_.size());
  out->assign(buffer_, 0, buffered);
  buffer_.erase(0, buffered);
  scanned_ = 0;
  while (out->size() < n) {
    size_t missing = n - out->size();
    if (IoResult got =
            Recv(out, std::min(missing, kExactChunkBytes), deadline_ms);
        got != IoResult::kOk) {
      return got;
    }
  }
  return IoResult::kOk;
}

}  // namespace kola
