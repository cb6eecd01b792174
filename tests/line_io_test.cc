// line_io: the poll-deadline line framing, sends and loopback dials that
// kolad's server, its standby, kolaload and the service tests share. Run
// over socketpair() and over a real loopback listener.

#include "common/line_io.h"

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>

#include "common/fault_injection.h"

namespace kola {
namespace {

using std::chrono::milliseconds;

/// A connected non-blocking AF_UNIX stream pair.
struct Pair {
  ScopedFd a;
  ScopedFd b;
};

Pair MakePair() {
  int fds[2] = {-1, -1};
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  SetNonBlocking(fds[0]);
  SetNonBlocking(fds[1]);
  return Pair{ScopedFd(fds[0]), ScopedFd(fds[1])};
}

/// A loopback listener on an ephemeral port.
ScopedFd Listen(int* port) {
  ScopedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  EXPECT_EQ(::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), len), 0);
  EXPECT_EQ(::listen(fd.get(), 4), 0);
  EXPECT_EQ(
      ::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&addr), &len), 0);
  *port = ntohs(addr.sin_port);
  return fd;
}

int64_t ElapsedMs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<milliseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

constexpr int64_t kGenerousMs = 10'000;
// Scheduling slack on top of a deadline; sanitizer builds are slow.
constexpr int64_t kSlackMs = 2'000;

TEST(LineIoTest, LineDeliveredOneBytePerWrite) {
  Pair pair = MakePair();
  std::thread writer([&] {
    for (char c : std::string("PING\n")) {
      ASSERT_EQ(SendAll(pair.b.get(), std::string(1, c),
                        DeadlineAfter(kGenerousMs)),
                IoResult::kOk);
      std::this_thread::sleep_for(milliseconds(5));
    }
  });
  LineReader reader(pair.a.get());
  std::string line;
  EXPECT_EQ(reader.ReadLine(&line, 64, DeadlineAfter(kGenerousMs)),
            IoResult::kOk);
  EXPECT_EQ(line, "PING");
  writer.join();
}

TEST(LineIoTest, SeveralLinesInOneRead) {
  Pair pair = MakePair();
  ASSERT_EQ(SendAll(pair.b.get(), "a\nbb\n\nccc\n", DeadlineAfter(kGenerousMs)),
            IoResult::kOk);
  LineReader reader(pair.a.get());
  std::string line;
  for (const char* want : {"a", "bb", "", "ccc"}) {
    ASSERT_EQ(reader.ReadLine(&line, 64, DeadlineAfter(kGenerousMs)),
              IoResult::kOk);
    EXPECT_EQ(line, want);
  }
}

TEST(LineIoTest, CrLfEndingsLoseOnlyTheirCarriageReturn) {
  Pair pair = MakePair();
  ASSERT_EQ(
      SendAll(pair.b.get(), "PING\r\na\rb\r\n", DeadlineAfter(kGenerousMs)),
      IoResult::kOk);
  LineReader reader(pair.a.get());
  std::string line;
  ASSERT_EQ(reader.ReadLine(&line, 64, DeadlineAfter(kGenerousMs)),
            IoResult::kOk);
  EXPECT_EQ(line, "PING");
  ASSERT_EQ(reader.ReadLine(&line, 64, DeadlineAfter(kGenerousMs)),
            IoResult::kOk);
  EXPECT_EQ(line, "a\rb");
}

TEST(LineIoTest, EofInTheMiddleOfALineIsEofNotALine) {
  Pair pair = MakePair();
  ASSERT_EQ(SendAll(pair.b.get(), "whole\npartial", DeadlineAfter(kGenerousMs)),
            IoResult::kOk);
  ::shutdown(pair.b.get(), SHUT_WR);
  LineReader reader(pair.a.get());
  std::string line;
  ASSERT_EQ(reader.ReadLine(&line, 64, DeadlineAfter(kGenerousMs)),
            IoResult::kOk);
  EXPECT_EQ(line, "whole");
  line = "untouched";
  EXPECT_EQ(reader.ReadLine(&line, 64, DeadlineAfter(kGenerousMs)),
            IoResult::kClosed);
  EXPECT_EQ(line, "untouched");
}

TEST(LineIoTest, ReadDeadlineExpiresWithinItsBudget) {
  Pair pair = MakePair();
  ASSERT_EQ(SendAll(pair.b.get(), "no newline", DeadlineAfter(kGenerousMs)),
            IoResult::kOk);
  LineReader reader(pair.a.get());
  std::string line;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(reader.ReadLine(&line, 64, DeadlineAfter(150)),
            IoResult::kTimeout);
  const int64_t elapsed = ElapsedMs(start);
  EXPECT_GE(elapsed, 140);
  EXPECT_LT(elapsed, 150 + kSlackMs);
}

TEST(LineIoTest, LineLongerThanTheCapIsRejected) {
  Pair pair = MakePair();
  LineReader reader(pair.a.get());
  std::string line;
  // Exactly the cap, newline in a later write: accepted. The cap bounds
  // what is buffered without a newline, and 16 bytes are not over 16.
  ASSERT_EQ(SendAll(pair.b.get(), std::string(16, 'x'),
                    DeadlineAfter(kGenerousMs)),
            IoResult::kOk);
  std::thread finisher([&] {
    std::this_thread::sleep_for(milliseconds(30));
    EXPECT_EQ(SendAll(pair.b.get(), "\n", DeadlineAfter(kGenerousMs)),
              IoResult::kOk);
  });
  EXPECT_EQ(reader.ReadLine(&line, 16, DeadlineAfter(kGenerousMs)),
            IoResult::kOk);
  EXPECT_EQ(line, std::string(16, 'x'));
  finisher.join();

  // One byte over with no newline: rejected at once, not at the deadline.
  ASSERT_EQ(SendAll(pair.b.get(), std::string(17, 'y'),
                    DeadlineAfter(kGenerousMs)),
            IoResult::kOk);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(reader.ReadLine(&line, 16, DeadlineAfter(kGenerousMs)),
            IoResult::kTooLong);
  EXPECT_LT(ElapsedMs(start), kSlackMs);
}

TEST(LineIoTest, SendAllToAPeerThatStopsReadingHitsItsDeadline) {
  Pair pair = MakePair();
  // Far more than a socket buffer holds; the peer never reads.
  const std::string flood(16 << 20, 'z');
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(SendAll(pair.a.get(), flood, DeadlineAfter(150)),
            IoResult::kTimeout);
  const int64_t elapsed = ElapsedMs(start);
  EXPECT_GE(elapsed, 140);
  EXPECT_LT(elapsed, 150 + kSlackMs);
}

TEST(LineIoTest, SendAllToAClosedPeerFailsWithoutASignal) {
  Pair pair = MakePair();
  pair.b = ScopedFd();  // closes the peer
  EXPECT_EQ(SendAll(pair.a.get(), "PING\n", DeadlineAfter(kGenerousMs)),
            IoResult::kFailed);
}

TEST(LineIoTest, InjectedSendFaultsClampToOneByteAndCountShortWrites) {
  FaultInjector injector(3);
  injector.set_rate(FaultSite::kSend, 1.0);
  ScopedFaultInjection scoped(&injector);
  Pair pair = MakePair();
  uint64_t short_writes = 0;
  ASSERT_EQ(SendAll(pair.a.get(), "hello\n", DeadlineAfter(kGenerousMs),
                    FaultSite::kSend, &short_writes),
            IoResult::kOk);
  // Six bytes, one per send: five sends left bytes behind, and the
  // single-byte last send draws nothing.
  EXPECT_EQ(short_writes, 5u);
  EXPECT_EQ(injector.draws(FaultSite::kSend), 5u);
  LineReader reader(pair.b.get());
  std::string line;
  ASSERT_EQ(reader.ReadLine(&line, 64, DeadlineAfter(kGenerousMs)),
            IoResult::kOk);
  EXPECT_EQ(line, "hello");

  // Without a fault site nothing is drawn, whatever injector is active.
  ASSERT_EQ(SendAll(pair.a.get(), "again\n", DeadlineAfter(kGenerousMs)),
            IoResult::kOk);
  EXPECT_EQ(injector.draws(FaultSite::kSend), 5u);
}

TEST(LineIoTest, InjectedRecvFaultReadsAsAFailure) {
  FaultInjector injector(4);
  injector.set_rate(FaultSite::kRecv, 1.0);
  ScopedFaultInjection scoped(&injector);
  Pair pair = MakePair();
  ASSERT_EQ(SendAll(pair.b.get(), "PING\nPING\n", DeadlineAfter(kGenerousMs)),
            IoResult::kOk);
  std::string line;
  LineReader faulty(pair.a.get(), FaultSite::kRecv);
  EXPECT_EQ(faulty.ReadLine(&line, 64, DeadlineAfter(kGenerousMs)),
            IoResult::kFailed);
  EXPECT_EQ(injector.draws(FaultSite::kRecv), 1u);
  LineReader plain(pair.a.get());
  EXPECT_EQ(plain.ReadLine(&line, 64, DeadlineAfter(kGenerousMs)),
            IoResult::kOk);
  EXPECT_EQ(injector.draws(FaultSite::kRecv), 1u);
}

TEST(LineIoTest, DialLoopbackToAnUnboundPortFailsWithinItsDeadline) {
  int port = 0;
  {
    ScopedFd probe = Listen(&port);
  }  // closed: nothing listens on `port` now
  const auto start = std::chrono::steady_clock::now();
  ScopedFd fd = DialLoopback(port, DeadlineAfter(500));
  EXPECT_FALSE(fd.valid());
  EXPECT_LT(ElapsedMs(start), 500 + kSlackMs);
}

TEST(LineIoTest, LoopbackRoundTripAndReadExactAfterAHeader) {
  int port = 0;
  ScopedFd listener = Listen(&port);
  ScopedFd client = DialLoopback(port, DeadlineAfter(kGenerousMs));
  ASSERT_TRUE(client.valid());
  ScopedFd server(::accept(listener.get(), nullptr, nullptr));
  ASSERT_TRUE(server.valid());
  SetNonBlocking(server.get());

  // A SYNC-style reply: a header line naming a length, that many bytes
  // (newlines included), then the next line.
  ASSERT_EQ(SendAll(server.get(), "OK 11\nhello\nworldNEXT\n",
                    DeadlineAfter(kGenerousMs)),
            IoResult::kOk);
  LineReader reader(client.get());
  std::string header, payload, next;
  ASSERT_EQ(reader.ReadLine(&header, 64, DeadlineAfter(kGenerousMs)),
            IoResult::kOk);
  EXPECT_EQ(header, "OK 11");
  ASSERT_EQ(reader.ReadExact(11, &payload, DeadlineAfter(kGenerousMs)),
            IoResult::kOk);
  EXPECT_EQ(payload, "hello\nworld");
  ASSERT_EQ(reader.ReadLine(&next, 64, DeadlineAfter(kGenerousMs)),
            IoResult::kOk);
  EXPECT_EQ(next, "NEXT");

  // ReadExact cut short by EOF is kClosed.
  ASSERT_EQ(SendAll(server.get(), "abc", DeadlineAfter(kGenerousMs)),
            IoResult::kOk);
  server = ScopedFd();
  EXPECT_EQ(reader.ReadExact(4, &payload, DeadlineAfter(kGenerousMs)),
            IoResult::kClosed);
}

TEST(LineIoTest, DeadlineAfterTreatsNonPositiveBudgetsAsNone) {
  EXPECT_EQ(DeadlineAfter(0), -1);
  EXPECT_EQ(DeadlineAfter(-5), -1);
  const int64_t now = NowMs();
  const int64_t deadline = DeadlineAfter(1'000);
  EXPECT_GE(deadline, now + 1'000);
  EXPECT_LT(deadline, now + 1'000 + kSlackMs);
}

}  // namespace
}  // namespace kola
