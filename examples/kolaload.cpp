// kolaload -- soak/load driver for kolad.
//
// Connects N client threads to one or more running kolad endpoints, drives
// repeated query shapes through the plan cache, and asserts service-level
// invariants:
//
//   --min-hit-rate P   post-warmup cache hit rate must reach P percent
//   --check-identity   every warm hit must be byte-identical to a fresh
//                      optimization of the same shape (the F verb bypasses
//                      the cache)
//
//   kolaload --port 7070 --clients 4 --requests 100 --shapes 8
//            --min-hit-rate 90 --check-identity --shutdown
//   kolaload --ports 7070,7071 --check-identity     # primary + standby
//
// Transient failures -- connection refused or reset, the daemon shedding
// load, an injected socket fault -- are retried with capped exponential
// backoff and seeded jitter (--max-retries, --seed), so a chaos run under
// KOLA_FAULTS only fails when the daemon stays broken.
//
// With --ports A,B,... requests fail over between endpoints: each endpoint
// sits behind a circuit breaker (opened after --breaker-threshold
// consecutive failures, probed half-open after an escalating cooldown),
// and a connection is only routed to an endpoint whose HEALTH answer says
// it is serving (a never-synced standby, or a draining daemon, is skipped).
// The identity check runs through the same pool, so it holds across a
// mid-soak failover. Every socket operation carries a poll-based deadline
// (--io-deadline-ms), so a hung daemon fails fast instead of wedging the
// driver. Exit status 0 iff every request (eventually) succeeded and every
// assertion held.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/line_io.h"
#include "common/parse_number.h"
#include "common/random.h"
#include "common/string_util.h"

using namespace kola;

namespace {

/// A line-protocol connection to kolad. Every operation -- connect, send,
/// read -- is bounded by the io deadline, mirroring the server's own
/// read/write deadlines: a daemon that hangs mid-response costs one
/// deadline, never a wedged soak driver.
class Conn {
 public:
  Conn(int port, int64_t io_deadline_ms)
      : io_deadline_ms_(io_deadline_ms),
        fd_(DialLoopback(port, DeadlineAfter(io_deadline_ms))),
        reader_(fd_.get()) {}

  bool connected() const { return fd_.valid(); }

  bool SendLine(const std::string& line) {
    return SendAll(fd_.get(), line + "\n", DeadlineAfter(io_deadline_ms_)) ==
           IoResult::kOk;
  }

  /// Reads lines until the block terminator (a line starting "OK" or
  /// "ERR"), which is returned; "S ..." stats lines accumulate in `body`.
  /// Each line gets the full io deadline.
  bool ReadBlock(std::string* final_line, std::string* body = nullptr) {
    std::string line;
    for (;;) {
      if (reader_.ReadLine(&line, kMaxResponseLineBytes,
                           DeadlineAfter(io_deadline_ms_)) != IoResult::kOk) {
        return false;
      }
      if (line.rfind("OK", 0) == 0 || line.rfind("ERR", 0) == 0) {
        *final_line = line;
        return true;
      }
      if (body != nullptr) *body += line + "\n";
    }
  }

 private:
  /// Far above any response kolad sends for kolaload's shapes; a peer
  /// that streams more with no newline is broken, not slow.
  static constexpr size_t kMaxResponseLineBytes = 64 << 20;

  int64_t io_deadline_ms_;
  ScopedFd fd_;
  LineReader reader_;
};

/// The endpoint table shared by every client thread: --ports order is
/// preference order (primary first), and each endpoint sits behind a
/// circuit breaker. CLOSED: routed normally; failures past the threshold
/// OPEN it. OPEN: skipped until an escalating cooldown expires, then one
/// half-open probe is allowed -- success closes the breaker, failure
/// re-arms the cooldown. This is what turns a kill -9'd primary into a
/// handful of fast failures instead of every request re-timing-out on it.
class EndpointPool {
 public:
  EndpointPool(std::vector<int> ports, int threshold, int64_t cooldown_ms)
      : threshold_(threshold < 1 ? 1 : threshold),
        cooldown_ms_(cooldown_ms < 1 ? 1 : cooldown_ms) {
    for (int port : ports) endpoints_.push_back(Endpoint{port});
  }

  size_t size() const { return endpoints_.size(); }
  int PortAt(int index) const { return endpoints_[index].port; }

  /// The endpoint the next attempt should use: the first (in preference
  /// order) whose breaker is closed, else the first open one whose
  /// cooldown has expired (half-open probe). -1 when every breaker is
  /// open and cooling -- the caller backs off and retries.
  int Pick() {
    std::lock_guard<std::mutex> lock(mu_);
    const int64_t now = NowMs();
    for (size_t i = 0; i < endpoints_.size(); ++i) {
      if (!endpoints_[i].open) return static_cast<int>(i);
    }
    for (size_t i = 0; i < endpoints_.size(); ++i) {
      if (endpoints_[i].retry_at_ms <= now) return static_cast<int>(i);
    }
    return -1;
  }

  void ReportSuccess(int index) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      Endpoint& e = endpoints_[static_cast<size_t>(index)];
      e.consecutive_failures = 0;
      e.open = false;
      e.opens = 0;
    }
    int prev = last_success_.exchange(index, std::memory_order_acq_rel);
    if (prev >= 0 && prev != index) {
      failovers_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  void ReportFailure(int index) {
    std::lock_guard<std::mutex> lock(mu_);
    Endpoint& e = endpoints_[static_cast<size_t>(index)];
    ++e.consecutive_failures;
    if (!e.open && e.consecutive_failures < threshold_) return;
    if (!e.open) breaker_opens_.fetch_add(1, std::memory_order_relaxed);
    e.open = true;
    // Escalating cooldown, capped: a dead endpoint gets probed ever more
    // lazily, a flapping one is not hammered.
    e.opens = std::min<int>(e.opens + 1, 6);
    e.retry_at_ms = NowMs() + (cooldown_ms_ << (e.opens - 1));
  }

  uint64_t failovers() const {
    return failovers_.load(std::memory_order_relaxed);
  }
  uint64_t breaker_opens() const {
    return breaker_opens_.load(std::memory_order_relaxed);
  }

 private:
  struct Endpoint {
    int port;
    int consecutive_failures = 0;
    bool open = false;
    int opens = 0;          // consecutive open episodes, for escalation
    int64_t retry_at_ms = 0;
  };

  std::mutex mu_;
  std::vector<Endpoint> endpoints_;
  int threshold_;
  int64_t cooldown_ms_;
  std::atomic<int> last_success_{-1};
  std::atomic<uint64_t> failovers_{0};
  std::atomic<uint64_t> breaker_opens_{0};
};

/// A connection that survives transient failure AND primary loss:
/// endpoint choice goes through the pool's breakers, every fresh
/// connection is health-gated (HEALTH must say serving=1 -- a never-synced
/// standby or a draining daemon is treated as down), and retryable
/// protocol errors (UNAVAILABLE, admission shed) resend with capped
/// exponential backoff + jitter. The jitter stream is seeded per client
/// (Rng::Child), so a soak run's retry timing is reproducible from --seed.
class RetryingConn {
 public:
  RetryingConn(EndpointPool* pool, int64_t io_deadline_ms, int max_retries,
               Rng rng, std::atomic<uint64_t>* retries)
      : pool_(pool),
        io_deadline_ms_(io_deadline_ms),
        max_retries_(max_retries),
        rng_(rng),
        retries_(retries) {}

  /// One request end to end: send the line, read its response block. Only
  /// returns false once max_retries consecutive attempts failed.
  bool Request(const std::string& line, std::string* final_line,
               std::string* body = nullptr) {
    for (int attempt = 0;; ++attempt) {
      int index = pool_->Pick();
      if (index >= 0) {
        if (conn_ == nullptr || conn_index_ != index) {
          conn_.reset();
          auto fresh =
              std::make_unique<Conn>(pool_->PortAt(index), io_deadline_ms_);
          if (fresh->connected() && HealthGate(fresh.get())) {
            conn_ = std::move(fresh);
            conn_index_ = index;
          } else {
            pool_->ReportFailure(index);
          }
        }
        if (conn_ != nullptr) {
          if (body != nullptr) body->clear();
          if (conn_->SendLine(line) && conn_->ReadBlock(final_line, body)) {
            if (final_line->rfind("ERR NOT_READY", 0) == 0) {
              // A standby that lost its gate race: steer away and let the
              // breaker redirect the next attempts.
              pool_->ReportFailure(index);
              conn_.reset();
            } else {
              pool_->ReportSuccess(index);
              if (!Retryable(*final_line)) return true;
              // Shed/UNAVAILABLE: the endpoint is alive and asked us to
              // back off; not a breaker failure.
            }
          } else {
            // Peer vanished mid-request (reset, injected recv fault, a
            // SIGKILLed primary); the connection is unusable.
            pool_->ReportFailure(index);
            conn_.reset();
          }
        }
      }
      if (attempt >= max_retries_) return false;
      retries_->fetch_add(1);
      Backoff(attempt);
    }
  }

  /// Says QUIT (best effort, no retry) and drops the connection, freeing
  /// the daemon's handler slot for whoever connects next.
  void Close() {
    if (conn_ != nullptr) conn_->SendLine("QUIT");
    conn_.reset();
    conn_index_ = -1;
  }

 private:
  /// One HEALTH round trip on a fresh connection. Routing on serving=
  /// rather than the state name keeps a SYNCING-but-synced standby (its
  /// primary just died) eligible -- it still serves correct reads.
  static bool HealthGate(Conn* conn) {
    std::string line;
    if (!conn->SendLine("HEALTH") || !conn->ReadBlock(&line)) return false;
    return line.rfind("OK", 0) == 0 &&
           line.find(" serving=0") == std::string::npos;
  }

  static bool Retryable(const std::string& response) {
    // UNAVAILABLE is the transient-failure code by contract (injected
    // faults, dead workers); a shed is the daemon asking us to back off.
    if (response.rfind("ERR UNAVAILABLE", 0) == 0) return true;
    return response.rfind("ERR RESOURCE_EXHAUSTED", 0) == 0 &&
           response.find("shed") != std::string::npos;
  }

  /// Full-jitter exponential backoff: sleep uniform in (0, min(cap,
  /// base * 2^attempt)] so colliding clients decorrelate.
  void Backoff(int attempt) {
    const int64_t kBaseMs = 10;
    const int64_t kCapMs = 1'000;
    const int64_t ceiling = std::min(kCapMs, kBaseMs << std::min(attempt, 7));
    const int64_t sleep_ms =
        1 + static_cast<int64_t>(rng_.NextDouble() *
                                 static_cast<double>(ceiling));
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
  }

  EndpointPool* pool_;
  int64_t io_deadline_ms_;
  int max_retries_;
  Rng rng_;
  std::atomic<uint64_t>* retries_;
  std::unique_ptr<Conn> conn_;
  int conn_index_ = -1;
};

/// Deterministic OQL shape pool: template rotated by index, the constant
/// keeps each shape structurally distinct.
std::string ShapeQuery(int64_t shape) {
  const int64_t age = 10 + (shape % 60);
  switch (shape % 4) {
    case 0:
      return "select p.name from p in P where p.age > " +
             std::to_string(age);
    case 1:
      return "select [v, p] from v in V, p in P where v in p.cars and "
             "p.age > " + std::to_string(age);
    case 2:
      return "select c.name from p in P, c in p.child where c.age > " +
             std::to_string(age);
    default:
      return "select a.city from p in P, a in p.grgs where p.age > " +
             std::to_string(age);
  }
}

struct Totals {
  std::atomic<uint64_t> hits{0};
  std::atomic<uint64_t> misses{0};
  std::atomic<uint64_t> errors{0};
  std::atomic<uint64_t> retries{0};
};

/// Parses "OK <hit> <usec>\t<payload>"; returns false on ERR.
bool ParseResponse(const std::string& line, bool* hit, std::string* payload) {
  if (line.rfind("OK ", 0) != 0 || line.size() < 5) return false;
  *hit = line[3] == '1';
  size_t tab = line.find('\t');
  if (payload != nullptr) {
    *payload = tab == std::string::npos ? "" : line.substr(tab + 1);
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<int> ports;
  int64_t clients = 4;
  int64_t requests = 50;
  int64_t shapes = 8;
  std::string tier = "gold";
  int64_t min_hit_rate = -1;
  int64_t max_retries = 5;
  int64_t io_deadline_ms = 10'000;
  int64_t think_ms = 0;
  int64_t breaker_threshold = 3;
  int64_t breaker_cooldown_ms = 250;
  uint64_t seed = 1;
  bool check_identity = false;
  bool shutdown_daemon = false;
  bool dump_stats = false;

  auto int64_flag = [&](int i, int64_t min, int64_t max) -> int64_t {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "kolaload: %s needs a value\n", argv[i]);
      std::exit(1);
    }
    auto value = ParseInt64InRange(argv[i + 1], argv[i], min, max);
    if (!value.ok()) {
      std::fprintf(stderr, "kolaload: %s\n",
                   value.status().ToString().c_str());
      std::exit(1);
    }
    return value.value();
  };

  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "--port") {
      ports.assign(1, static_cast<int>(int64_flag(i++, 1, 65535)));
    } else if (arg == "--ports") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "kolaload: --ports needs A,B,...\n");
        return 1;
      }
      ports.clear();
      for (const std::string& part : Split(argv[++i], ',')) {
        auto port = ParseInt64InRange(part.c_str(), "--ports", 1, 65535);
        if (!port.ok()) {
          std::fprintf(stderr, "kolaload: %s\n",
                       port.status().ToString().c_str());
          return 1;
        }
        ports.push_back(static_cast<int>(port.value()));
      }
    } else if (arg == "--clients") {
      clients = int64_flag(i++, 1, 1024);
    } else if (arg == "--requests") {
      requests = int64_flag(i++, 1, 10'000'000);
    } else if (arg == "--shapes") {
      shapes = int64_flag(i++, 1, 100'000);
    } else if (arg == "--tier" && i + 1 < argc) {
      tier = argv[++i];
    } else if (arg == "--min-hit-rate") {
      min_hit_rate = int64_flag(i++, 0, 100);
    } else if (arg == "--max-retries") {
      max_retries = int64_flag(i++, 0, 1'000);
    } else if (arg == "--io-deadline-ms") {
      io_deadline_ms = int64_flag(i++, 0, int64_t{1} << 40);
    } else if (arg == "--think-ms") {
      think_ms = int64_flag(i++, 0, 60'000);
    } else if (arg == "--breaker-threshold") {
      breaker_threshold = int64_flag(i++, 1, 1'000);
    } else if (arg == "--breaker-cooldown-ms") {
      breaker_cooldown_ms = int64_flag(i++, 1, int64_t{1} << 30);
    } else if (arg == "--seed") {
      seed = static_cast<uint64_t>(int64_flag(i++, 0, int64_t{1} << 62));
    } else if (arg == "--check-identity") {
      check_identity = true;
    } else if (arg == "--shutdown") {
      shutdown_daemon = true;
    } else if (arg == "--stats") {
      dump_stats = true;
    } else {
      std::fprintf(stderr, "kolaload: unknown flag '%s'\n", argv[i]);
      return 1;
    }
  }
  if (ports.empty()) {
    std::fprintf(stderr, "kolaload: --port or --ports is required\n");
    return 1;
  }

  EndpointPool pool(ports, static_cast<int>(breaker_threshold),
                    breaker_cooldown_ms);
  Totals totals;
  const Rng root(seed);
  // Child-stream indices: clients take 0..clients-1, the warmup and
  // control connections take fixed high indices so client count does not
  // shift their jitter.
  const uint64_t kWarmStream = 1'000'000;
  const uint64_t kControlStream = 1'000'001;

  // Warmup: one pass over the shape pool on a dedicated connection fills
  // the cache, so the measured phase's hit rate is the steady state.
  {
    RetryingConn warm(&pool, io_deadline_ms, static_cast<int>(max_retries),
                      root.Child(kWarmStream), &totals.retries);
    for (int64_t s = 0; s < shapes; ++s) {
      std::string response;
      if (!warm.Request("Q " + tier + " oql " + ShapeQuery(s), &response)) {
        std::fprintf(stderr,
                     "kolaload: warmup shape %lld failed after retries\n",
                     static_cast<long long>(s));
        return 1;
      }
      if (response.rfind("OK", 0) != 0) {
        std::fprintf(stderr, "kolaload: warmup shape %lld failed: %s\n",
                     static_cast<long long>(s), response.c_str());
        return 1;
      }
    }
    warm.Close();
  }

  std::vector<std::thread> workers;
  for (int64_t c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      RetryingConn conn(&pool, io_deadline_ms,
                        static_cast<int>(max_retries),
                        root.Child(static_cast<uint64_t>(c)),
                        &totals.retries);
      for (int64_t r = 0; r < requests; ++r) {
        // Interleave shape order per client so concurrent clients probe
        // different slots at any instant.
        int64_t shape = (r + c) % shapes;
        std::string response;
        if (!conn.Request("Q " + tier + " oql " + ShapeQuery(shape),
                          &response)) {
          totals.errors.fetch_add(1);
          continue;
        }
        bool hit = false;
        if (!ParseResponse(response, &hit, nullptr)) {
          totals.errors.fetch_add(1);
          continue;
        }
        (hit ? totals.hits : totals.misses).fetch_add(1);
        if (think_ms > 0) {
          // Pace the soak (think time) so CI can kill a daemon MID-soak
          // deterministically instead of racing a burst that finishes
          // first.
          std::this_thread::sleep_for(std::chrono::milliseconds(think_ms));
        }
      }
      conn.Close();
    });
  }
  for (std::thread& t : workers) t.join();

  const uint64_t hits = totals.hits.load();
  const uint64_t misses = totals.misses.load();
  const uint64_t errors = totals.errors.load();
  const uint64_t retries = totals.retries.load();
  const uint64_t answered = hits + misses;
  const double hit_rate =
      answered == 0 ? 0.0 : 100.0 * static_cast<double>(hits) /
                                static_cast<double>(answered);
  std::printf("kolaload: %llu answered, %llu hits, %llu misses, %llu "
              "errors, %llu retries, hit rate %.1f%%, failovers %llu, "
              "breaker opens %llu\n",
              static_cast<unsigned long long>(answered),
              static_cast<unsigned long long>(hits),
              static_cast<unsigned long long>(misses),
              static_cast<unsigned long long>(errors),
              static_cast<unsigned long long>(retries), hit_rate,
              static_cast<unsigned long long>(pool.failovers()),
              static_cast<unsigned long long>(pool.breaker_opens()));

  bool failed = errors != 0;
  if (min_hit_rate >= 0 && hit_rate < static_cast<double>(min_hit_rate)) {
    std::fprintf(stderr, "kolaload: FAIL hit rate %.1f%% < %lld%%\n",
                 hit_rate, static_cast<long long>(min_hit_rate));
    failed = true;
  }

  RetryingConn control(&pool, io_deadline_ms, static_cast<int>(max_retries),
                       root.Child(kControlStream), &totals.retries);

  if (check_identity) {
    // A warm hit (Q) and a cache-bypassing fresh optimization (F) of the
    // same shape must serialize identically, byte for byte -- including
    // when a failover moved the pair (or split it) across endpoints.
    int64_t mismatches = 0;
    for (int64_t s = 0; s < shapes; ++s) {
      std::string text = ShapeQuery(s);
      std::string warm_line, fresh_line;
      if (!control.Request("Q " + tier + " oql " + text, &warm_line) ||
          !control.Request("F " + tier + " oql " + text, &fresh_line)) {
        std::fprintf(stderr,
                     "kolaload: identity check failed after retries\n");
        return 1;
      }
      bool warm_hit = false, fresh_hit = false;
      std::string warm_payload, fresh_payload;
      if (!ParseResponse(warm_line, &warm_hit, &warm_payload) ||
          !ParseResponse(fresh_line, &fresh_hit, &fresh_payload)) {
        std::fprintf(stderr, "kolaload: identity check error on shape "
                     "%lld\n", static_cast<long long>(s));
        ++mismatches;
        continue;
      }
      if (warm_payload != fresh_payload) {
        std::fprintf(stderr,
                     "kolaload: FAIL shape %lld cached != fresh\n  warm:  "
                     "%s\n  fresh: %s\n",
                     static_cast<long long>(s), warm_payload.c_str(),
                     fresh_payload.c_str());
        ++mismatches;
      }
    }
    if (mismatches != 0) {
      failed = true;
    } else {
      std::printf("kolaload: identity check passed for %lld shapes\n",
                  static_cast<long long>(shapes));
    }
  }

  if (dump_stats) {
    std::string final_line, body;
    if (control.Request("STATS", &final_line, &body)) {
      std::fputs(body.c_str(), stdout);
    }
  }

  // An idle control connection would hold a handler slot, and a daemon
  // with one handler would queue the SHUTDOWN connections behind it.
  control.Close();

  if (shutdown_daemon) {
    // Drain the whole fleet, one direct connection per endpoint (the
    // pool would route every SHUTDOWN to the same healthy survivor).
    // Unreachable endpoints (the killed primary) are skipped; at least
    // one living daemon must acknowledge.
    int acked = 0;
    for (size_t e = 0; e < pool.size(); ++e) {
      Conn direct(pool.PortAt(static_cast<int>(e)), io_deadline_ms);
      std::string response;
      if (direct.connected() && direct.SendLine("SHUTDOWN") &&
          direct.ReadBlock(&response) && response.rfind("OK", 0) == 0) {
        ++acked;
      }
    }
    if (acked == 0) {
      std::fprintf(stderr, "kolaload: shutdown handshake failed\n");
      failed = true;
    } else {
      std::printf("kolaload: shutdown acknowledged by %d endpoint(s)\n",
                  acked);
    }
  }

  return failed ? 1 : 0;
}
