#ifndef KOLA_SERVICE_SERVER_H_
#define KOLA_SERVICE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/statusor.h"
#include "service/service.h"

namespace kola {

struct ServerOptions {
  /// TCP port to bind on 127.0.0.1; 0 picks an ephemeral port (read it back
  /// from port() after Start).
  int port = 0;
  /// Soft cap on concurrently served connections: a connection accepted
  /// past the cap waits for a free handler slot before its first request
  /// is read (back-pressure, never a drop).
  int handler_threads = 4;
  /// A protocol line longer than this is answered with an error and the
  /// connection is closed (a stream that never sends '\n' cannot pin a
  /// handler's buffer forever).
  size_t max_line_bytes = 1 << 20;
  /// Read deadline, the slow-loris defense: a connection that does not
  /// deliver a COMPLETE line within this many milliseconds of acquiring
  /// its handler slot (or of its previous line) is answered with
  /// DEADLINE_EXCEEDED and closed. Dribbling one byte at a time does not
  /// reset the clock -- only a finished request does. 0 disables.
  int64_t read_deadline_ms = 0;
  /// Write deadline: one response (one Reply call) that cannot be fully
  /// handed to the kernel within this many milliseconds -- a peer that
  /// stopped reading -- drops the connection. 0 disables.
  int64_t write_deadline_ms = 0;
};

/// Where the server is in its lifecycle, surfaced in STATS.
enum class DrainState { kServing = 0, kDraining = 1, kStopped = 2 };

/// Socket-level counters, all monotonic since Start().
struct ServerStats {
  uint64_t connections = 0;       // accepted (including later failures)
  uint64_t accept_failures = 0;   // accept errors + injected accept faults
  uint64_t read_timeouts = 0;     // connections cut by the read deadline
  uint64_t write_timeouts = 0;    // connections cut by the write deadline
  uint64_t resets = 0;            // recv errors + injected recv resets
  uint64_t send_failures = 0;     // peer vanished mid-write
  uint64_t short_writes = 0;      // partial send() iterations (incl. injected)
  DrainState drain_state = DrainState::kServing;
};

/// The network skin of OptimizationService: a line-oriented TCP server on
/// 127.0.0.1. One request per '\n'-terminated line, one response block per
/// request (final response line always starts with OK or ERR). Connection
/// verbs handled here rather than in the service: QUIT closes the
/// connection, SHUTDOWN asks the whole server to stop (Wait returns; the
/// owner then drains and stops).
///
/// Robustness contract: malformed input, oversized lines, dropped
/// connections, stalled peers (read/write deadlines) and write failures
/// degrade to per-connection errors -- the daemon never aborts or leaks a
/// handler. Fault-injection sites `accept`, `recv` and `send` simulate the
/// same failures deterministically for chaos runs.
class SocketServer {
 public:
  /// `service` is borrowed and must outlive the server.
  SocketServer(OptimizationService* service, ServerOptions options);
  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Binds, listens and spawns the accept loop. Non-OK when the port
  /// cannot be bound.
  Status Start();

  /// Blocks until Stop() is called, a client sends SHUTDOWN, or
  /// RequestShutdown() is invoked (e.g. from a signal watcher).
  void Wait();

  /// Wakes Wait() without tearing anything down, so the owner can run the
  /// graceful path: Wait() -> Drain() -> snapshot -> Stop(). Also flips
  /// the service to DRAINING (PING answers "OK draining", HEALTH reports
  /// DRAINING) so load balancers steer away early. Idempotent.
  void RequestShutdown();

  /// Graceful drain: stops accepting, half-closes every live connection
  /// for reading (in-flight requests finish and their responses are
  /// sent; no new requests are read), then waits up to `deadline_ms` for
  /// handlers to retire. Returns true if every connection drained within
  /// the deadline. Stop() afterwards reaps stragglers. Idempotent.
  bool Drain(int64_t deadline_ms);

  /// Idempotent: closes the listening socket and every live connection,
  /// then joins all threads.
  void Stop();

  /// The bound port (after Start); 0 before.
  int port() const { return port_.load(std::memory_order_acquire); }

  uint64_t connections_served() const {
    return connections_.load(std::memory_order_relaxed);
  }

  ServerStats stats() const;
  /// One "S server ..." STATS line; wire into
  /// OptimizationService::set_extra_stats.
  std::string StatsLine() const;

 private:
  void AcceptLoop();
  void ServeConnection(int fd);
  /// Reads and answers request lines until the peer leaves, a deadline or
  /// the line cap cuts it off, or QUIT/SHUTDOWN.
  void ServeLines(int fd);
  /// Sends `text` (line_io's SendAll) under the write deadline and the
  /// `send` fault site, counted into the server's stats. False when the
  /// peer vanished mid-write or the deadline expired; the caller drops the
  /// connection.
  bool Reply(int fd, const std::string& text);

  OptimizationService* service_;
  ServerOptions options_;

  std::atomic<int> listen_fd_{-1};
  std::atomic<int> port_{0};
  std::atomic<bool> stopping_{false};
  std::atomic<int> drain_state_{0};  // DrainState

  std::atomic<uint64_t> connections_{0};
  std::atomic<uint64_t> accept_failures_{0};
  std::atomic<uint64_t> read_timeouts_{0};
  std::atomic<uint64_t> write_timeouts_{0};
  std::atomic<uint64_t> resets_{0};
  std::atomic<uint64_t> send_failures_{0};
  std::atomic<uint64_t> short_writes_{0};

  std::thread accept_thread_;
  std::mutex threads_mu_;  // guards the three members below
  std::vector<std::thread> handler_threads_;
  std::vector<int> client_fds_;
  int active_handlers_ = 0;
  std::condition_variable slot_cv_;

  std::mutex wait_mu_;
  std::condition_variable wait_cv_;
  bool done_ = false;
};

}  // namespace kola

#endif  // KOLA_SERVICE_SERVER_H_
