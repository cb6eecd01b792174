// The kolad service stack: PlanCache (deterministic second-chance
// eviction, catalog-version and rule-fingerprint invalidation, concurrent
// hit/miss hammering), OptimizationService (tier mapping, cache fill and
// byte-identical warm hits, parse errors as statuses, admission shedding,
// the line protocol), and SocketServer end to end over a real socket.

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "common/line_io.h"
#include "common/parse_number.h"
#include "common/random.h"
#include "common/string_util.h"
#include "rewrite/properties.h"
#include "service/plan_cache.h"
#include "service/plan_cache_io.h"
#include "service/replication.h"
#include "service/server.h"
#include "service/service.h"
#include "term/intern.h"
#include "term/parser.h"
#include "term/term.h"
#include "values/car_world.h"

namespace kola {
namespace {

TermPtr Q(const char* text) {
  auto t = ParseTerm(text, Sort::kFunction);
  EXPECT_TRUE(t.ok()) << t.status();
  return t.value();
}

PlanCacheKey Key(TermId id, uint64_t rules = 7, uint64_t version = 1) {
  return PlanCacheKey{id, rules, version};
}

// ---------------------------------------------------------------------------
// PlanCache
// ---------------------------------------------------------------------------

TEST(PlanCacheTest, LookupMissThenHit) {
  PlanCache cache(4);
  EXPECT_FALSE(cache.Lookup(Key(1)).has_value());
  cache.Insert(Key(1), Q("age"), "plan-1");
  auto hit = cache.Lookup(Key(1));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "plan-1");
  PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0);
}

TEST(PlanCacheTest, EveryKeyLimbDiscriminates) {
  PlanCache cache(8);
  cache.Insert(Key(1, 7, 1), Q("age"), "base");
  // Same query id under a different rule fingerprint or catalog version is
  // a different plan.
  EXPECT_FALSE(cache.Lookup(Key(1, 8, 1)).has_value());
  EXPECT_FALSE(cache.Lookup(Key(1, 7, 2)).has_value());
  EXPECT_FALSE(cache.Lookup(Key(2, 7, 1)).has_value());
  EXPECT_TRUE(cache.Lookup(Key(1, 7, 1)).has_value());
}

TEST(PlanCacheTest, CapacityBoundHoldsAndEvictionIsDeterministic) {
  // Two identical operation sequences must produce identical hit/miss/evict
  // traces: eviction is a pure function of the probe/insert order.
  auto run = [](std::vector<uint64_t>* trace) {
    PlanCache cache(3);
    for (uint64_t i = 1; i <= 3; ++i) {
      cache.Insert(Key(i), Q("age"), "p" + std::to_string(i));
    }
    // Touch 1 and 2: their second-chance bits protect them, so the hand
    // must pass them (clearing bits) and take 3.
    EXPECT_TRUE(cache.Lookup(Key(1)).has_value());
    EXPECT_TRUE(cache.Lookup(Key(2)).has_value());
    cache.Insert(Key(4), Q("age"), "p4");
    EXPECT_EQ(cache.size(), 3u);
    EXPECT_FALSE(cache.Lookup(Key(3)).has_value());  // the victim
    EXPECT_TRUE(cache.Lookup(Key(4)).has_value());
    // Next eviction: every bit was cleared by the sweep except 1/2/4's
    // fresh touches above; the hand's position decides, identically.
    cache.Insert(Key(5), Q("age"), "p5");
    for (uint64_t i = 1; i <= 5; ++i) {
      trace->push_back(cache.Lookup(Key(i)).has_value() ? 1 : 0);
    }
    PlanCacheStats stats = cache.stats();
    trace->push_back(stats.evictions);
    trace->push_back(stats.entries);
  };
  std::vector<uint64_t> first, second;
  run(&first);
  run(&second);
  EXPECT_EQ(first, second);
  EXPECT_EQ(first.back(), 3u);  // capacity bound held
}

TEST(PlanCacheTest, ReinsertReplacesInPlace) {
  PlanCache cache(2);
  cache.Insert(Key(1), Q("age"), "old");
  cache.Insert(Key(1), Q("age"), "new");
  EXPECT_EQ(cache.size(), 1u);
  auto hit = cache.Lookup(Key(1));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "new");
  EXPECT_EQ(cache.stats().insertions, 1u);  // replacement is not a new entry
}

TEST(PlanCacheTest, ClearDropsEverythingAndCountsEvictions) {
  PlanCache cache(8);
  cache.Insert(Key(1), Q("age"), "a");
  cache.Insert(Key(2), Q("age"), "b");
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Lookup(Key(1)).has_value());
  PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.bytes, 0);
}

TEST(PlanCacheTest, ZeroCapacityIsUnbounded) {
  PlanCache cache(0);
  for (uint64_t i = 1; i <= 100; ++i) {
    cache.Insert(Key(i), Q("age"), "p");
  }
  EXPECT_EQ(cache.size(), 100u);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(PlanCacheTest, EntriesExposesLiveSlots) {
  PlanCache cache(4);
  cache.Insert(Key(1), Q("age"), "p1");
  cache.Insert(Key(2), Q("name"), "p2");
  std::vector<PlanCacheEntry> entries = cache.Entries();
  ASSERT_EQ(entries.size(), 2u);
  for (const PlanCacheEntry& e : entries) {
    ASSERT_NE(e.term, nullptr);
    EXPECT_EQ(e.payload, "p" + std::to_string(e.key.query_id));
  }
  cache.Clear();
  EXPECT_TRUE(cache.Entries().empty());
}

TEST(PlanCacheTest, ConcurrentHitMissHammering) {
  // Correctness under concurrency (run under TSan in CI): many threads
  // racing lookups and inserts over a small hot key range; every returned
  // payload must be exactly the payload some thread inserted for that key,
  // and the capacity bound must hold throughout.
  PlanCache cache(16);
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 2000;
  constexpr uint64_t kKeyRange = 48;  // 3x capacity: constant eviction
  std::atomic<int> bad_payloads{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      TermPtr term = Q("age");
      for (int i = 0; i < kOpsPerThread; ++i) {
        uint64_t id = 1 + (static_cast<uint64_t>(t) * 31 + i) % kKeyRange;
        if (auto hit = cache.Lookup(Key(id))) {
          if (*hit != "plan-" + std::to_string(id)) bad_payloads.fetch_add(1);
        } else {
          cache.Insert(Key(id), term, "plan-" + std::to_string(id));
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(bad_payloads.load(), 0);
  EXPECT_LE(cache.size(), 16u);
  PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, cache.size());
  EXPECT_GT(stats.hits + stats.misses, 0u);
}

// ---------------------------------------------------------------------------
// OptimizationService
// ---------------------------------------------------------------------------

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CarWorldOptions world;
    world.num_persons = 12;
    world.num_vehicles = 8;
    world.num_addresses = 6;
    world.seed = 1;
    db_ = BuildCarWorld(world);
    properties_ = PropertyStore::Default();
  }

  ServiceRequest Oql(const std::string& text, const std::string& tier = "gold",
                     bool bypass = false) {
    ServiceRequest request;
    request.tier = tier;
    request.language = QueryLanguage::kOql;
    request.text = text;
    request.bypass_cache = bypass;
    return request;
  }

  std::unique_ptr<Database> db_;
  PropertyStore properties_ = PropertyStore::Default();
};

TEST_F(ServiceTest, ColdMissThenWarmHitIsByteIdentical) {
  OptimizationService service(db_.get(), &properties_, ServiceOptions{});
  const std::string query = "select p.name from p in P where p.age > 25";

  ServiceResponse cold = service.Handle(Oql(query));
  ASSERT_TRUE(cold.status.ok()) << cold.status.ToString();
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_FALSE(cold.payload.empty());

  ServiceResponse warm = service.Handle(Oql(query));
  ASSERT_TRUE(warm.status.ok());
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.payload, cold.payload);

  // The F verb bypasses the cache; a fresh optimization must serialize to
  // the exact same bytes the cache replays.
  ServiceResponse fresh = service.Handle(Oql(query, "gold", true));
  ASSERT_TRUE(fresh.status.ok());
  EXPECT_FALSE(fresh.cache_hit);
  EXPECT_EQ(fresh.payload, cold.payload);

  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cache.hits, 1u);
  EXPECT_EQ(stats.cache.insertions, 1u);
}

TEST_F(ServiceTest, StructurallyEqualQueriesShareOneCacheEntry) {
  OptimizationService service(db_.get(), &properties_, ServiceOptions{});
  // Different surface text, same shape after parsing.
  ServiceResponse a =
      service.Handle(Oql("select p.name from p in P where p.age > 25"));
  ServiceResponse b =
      service.Handle(Oql("select  p.name  from p in P where p.age > 25"));
  ASSERT_TRUE(a.status.ok());
  ASSERT_TRUE(b.status.ok());
  EXPECT_FALSE(a.cache_hit);
  EXPECT_TRUE(b.cache_hit);
  EXPECT_EQ(a.payload, b.payload);
  EXPECT_EQ(service.stats().cache.entries, 1u);
}

TEST_F(ServiceTest, BumpInvalidatesAndReoptimizesIdentically) {
  OptimizationService service(db_.get(), &properties_, ServiceOptions{});
  const std::string query = "select p.age from p in P";
  ServiceResponse before = service.Handle(Oql(query));
  ASSERT_TRUE(before.status.ok());
  ASSERT_TRUE(service.Handle(Oql(query)).cache_hit);

  uint64_t version = service.BumpCatalogVersion();
  EXPECT_EQ(version, 2u);
  EXPECT_EQ(service.stats().cache.entries, 0u);

  // Post-bump: a miss (the old entry is unreachable under the new
  // version), then a refill; the catalog did not actually change, so the
  // plan itself is reproduced byte for byte.
  ServiceResponse after = service.Handle(Oql(query));
  ASSERT_TRUE(after.status.ok());
  EXPECT_FALSE(after.cache_hit);
  EXPECT_EQ(after.payload, before.payload);
  EXPECT_TRUE(service.Handle(Oql(query)).cache_hit);
}

TEST_F(ServiceTest, RuleFingerprintIsAKeyLimb) {
  // Two services over the same world agree on the fingerprint (it is a
  // stable hash of the rule catalog), and the fingerprint participates in
  // every key, so a hypothetical rule-set change orphans all entries.
  OptimizationService a(db_.get(), &properties_, ServiceOptions{});
  OptimizationService b(db_.get(), &properties_, ServiceOptions{});
  EXPECT_NE(a.rule_fingerprint(), 0u);
  EXPECT_EQ(a.rule_fingerprint(), b.rule_fingerprint());
}

TEST_F(ServiceTest, ParseErrorsAreStatusesNotCrashes) {
  OptimizationService service(db_.get(), &properties_, ServiceOptions{});
  // Malformed OQL, malformed KOLA, an overlong integer literal (the
  // guarded std::stoll paths), and an unknown tier.
  ServiceResponse r1 = service.Handle(Oql("select from where"));
  EXPECT_FALSE(r1.status.ok());
  ServiceRequest bad_kola;
  bad_kola.tier = "gold";
  bad_kola.language = QueryLanguage::kKola;
  bad_kola.text = "iterate((((";
  EXPECT_FALSE(service.Handle(bad_kola).status.ok());
  ServiceResponse r2 = service.Handle(
      Oql("select p from p in P where p.age > 99999999999999999999"));
  EXPECT_FALSE(r2.status.ok());
  EXPECT_EQ(r2.status.code(), StatusCode::kInvalidArgument);
  ServiceResponse r3 =
      service.Handle(Oql("select p from p in P", "platinum"));
  EXPECT_FALSE(r3.status.ok());
  EXPECT_EQ(service.stats().parse_errors, 3u);
}

TEST_F(ServiceTest, UnknownTierAndDisabledCache) {
  ServiceOptions options;
  options.cache_enabled = false;
  OptimizationService service(db_.get(), &properties_, options);
  const std::string query = "select p.age from p in P";
  ServiceResponse first = service.Handle(Oql(query));
  ServiceResponse second = service.Handle(Oql(query));
  ASSERT_TRUE(first.status.ok());
  ASSERT_TRUE(second.status.ok());
  EXPECT_FALSE(first.cache_hit);
  EXPECT_FALSE(second.cache_hit);
  EXPECT_EQ(first.payload, second.payload);  // still deterministic
  EXPECT_EQ(service.stats().cache.insertions, 0u);
}

TEST_F(ServiceTest, TiersMapToGovernorEnvelopes) {
  OptimizationService service(db_.get(), &properties_, ServiceOptions{});
  // A bronze request runs under a tight envelope but still answers (shed
  // by degradation, never an error); gold's generous envelope stays clean.
  ServiceResponse bronze = service.Handle(
      Oql("select [v, p] from v in V, p in P where v in p.cars", "bronze"));
  ASSERT_TRUE(bronze.status.ok()) << bronze.status.ToString();
  ServiceResponse gold = service.Handle(
      Oql("select [v, p] from v in V, p in P where v in p.cars", "gold"));
  ASSERT_TRUE(gold.status.ok());
  EXPECT_FALSE(gold.degraded);
  EXPECT_NE(bronze.payload, "");
}

TEST_F(ServiceTest, DegradedResultsAreNeverCached) {
  // A tier whose budget is hopeless degrades every time; the cache must
  // not serve attempt 1's degraded plan to attempt 2.
  ServiceOptions options;
  options.tiers = {TierPolicy{.name = "tiny",
                              .deadline_ms = 0,
                              .step_budget = 0,
                              .memory_budget_bytes = 1,
                              .max_attempts = 1}};
  OptimizationService service(db_.get(), &properties_, options);
  const std::string query = "select p.name from p in P where p.age > 25";
  ServiceResponse first = service.Handle(Oql(query, "tiny"));
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  ServiceResponse second = service.Handle(Oql(query, "tiny"));
  ASSERT_TRUE(second.status.ok());
  if (first.degraded) {
    EXPECT_FALSE(second.cache_hit);
    EXPECT_EQ(service.stats().cache.insertions, 0u);
  }
}

TEST_F(ServiceTest, AdmissionControlShedsInsteadOfQueuing) {
  ServiceOptions options;
  options.jobs = 1;
  options.max_inflight = 1;
  OptimizationService service(db_.get(), &properties_, options);
  constexpr int kThreads = 8;
  std::atomic<int> ok{0}, shed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ServiceRequest request;
      request.tier = "gold";
      request.language = QueryLanguage::kOql;
      request.text = "select p.name from p in P where p.age > " +
                     std::to_string(20 + t);
      ServiceResponse response = service.Handle(request);
      if (response.shed) {
        EXPECT_EQ(response.status.code(), StatusCode::kResourceExhausted);
        shed.fetch_add(1);
      } else if (response.status.ok()) {
        ok.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(ok.load() + shed.load(), kThreads);
  EXPECT_GE(ok.load(), 1);
  EXPECT_EQ(service.stats().shed, static_cast<uint64_t>(shed.load()));
}

TEST_F(ServiceTest, ConcurrentMixedTrafficIsCrashFreeAndConsistent) {
  // TSan target: hammer one service instance from many threads mixing warm
  // shapes, cold shapes, parse errors and catalog bumps.
  ServiceOptions options;
  options.jobs = 3;
  options.cache_capacity = 8;
  OptimizationService service(db_.get(), &properties_, options);
  constexpr int kThreads = 6;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 25; ++i) {
        if (t == 0 && i % 10 == 9) {
          service.BumpCatalogVersion();
          continue;
        }
        if (i % 7 == 6) {
          ServiceResponse bad = service.Handle(Oql("select nonsense ((("));
          if (bad.status.ok()) failures.fetch_add(1);
          continue;
        }
        ServiceResponse response = service.Handle(
            Oql("select p.name from p in P where p.age > " +
                std::to_string(20 + (t * 25 + i) % 12)));
        if (!response.status.ok() || response.payload.empty()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  ServiceStats stats = service.stats();
  EXPECT_GT(stats.requests, 0u);
  EXPECT_GT(stats.parse_errors, 0u);
}

TEST_F(ServiceTest, HandleLineProtocol) {
  OptimizationService service(db_.get(), &properties_, ServiceOptions{});
  EXPECT_EQ(service.HandleLine("PING"), "OK pong");
  EXPECT_EQ(service.HandleLine("BUMP"), "OK version=2");

  std::string cold =
      service.HandleLine("Q gold oql select p.age from p in P");
  ASSERT_EQ(cold.rfind("OK 0 ", 0), 0u) << cold;
  std::string warm =
      service.HandleLine("Q gold oql select p.age from p in P");
  ASSERT_EQ(warm.rfind("OK 1 ", 0), 0u) << warm;
  // Identical payload after the latency header.
  EXPECT_EQ(cold.substr(cold.find('\t')), warm.substr(warm.find('\t')));

  EXPECT_EQ(service.HandleLine("NOPE x").rfind("ERR ", 0), 0u);
  EXPECT_EQ(service.HandleLine("Q gold").rfind("ERR ", 0), 0u);
  EXPECT_EQ(service.HandleLine("Q gold klingon x").rfind("ERR ", 0), 0u);
  EXPECT_EQ(service.HandleLine("Q gold oql ").rfind("ERR ", 0), 0u);
  EXPECT_EQ(service.HandleLine("").rfind("ERR ", 0), 0u);

  std::string stats = service.HandleLine("STATS");
  EXPECT_NE(stats.find("S requests "), std::string::npos);
  EXPECT_NE(stats.find("S cache hits="), std::string::npos);
  EXPECT_NE(stats.find("S latency gold "), std::string::npos);
  EXPECT_EQ(stats.rfind("OK stats"), stats.size() - 8);
}

// ---------------------------------------------------------------------------
// Latency histogram buckets
// ---------------------------------------------------------------------------

TEST(LatencyBucketTest, BoundariesAndSaturation) {
  // Clock artifacts and the sub-microsecond floor both land in bucket 0.
  EXPECT_EQ(LatencyBucket(-5), 0);
  EXPECT_EQ(LatencyBucket(0), 0);
  EXPECT_EQ(LatencyBucket(1), 0);

  // Exact powers of two open their own bucket; one below stays behind.
  for (int k = 1; k < LatencyHistogram::kBuckets; ++k) {
    const int64_t pow2 = int64_t{1} << k;
    EXPECT_EQ(LatencyBucket(pow2), k) << "2^" << k;
    EXPECT_EQ(LatencyBucket(pow2 - 1), k - 1) << "2^" << k << " - 1";
    EXPECT_EQ(LatencyBucket(pow2 + 1), k) << "2^" << k << " + 1";
  }

  // Beyond the last bucket everything saturates instead of indexing out
  // of bounds.
  const int top = LatencyHistogram::kBuckets - 1;
  EXPECT_EQ(LatencyBucket(int64_t{1} << LatencyHistogram::kBuckets), top);
  EXPECT_EQ(LatencyBucket(std::numeric_limits<int64_t>::max()), top);
}

// ---------------------------------------------------------------------------
// Crash paths: adversarially deep queries over the protocol
// ---------------------------------------------------------------------------

TEST_F(ServiceTest, DeepNestedQueryLineIsAnErrorNotACrash) {
  OptimizationService service(db_.get(), &properties_, ServiceOptions{});

  // ~60k-deep paren towers in both network-facing front ends: well under
  // the 1 MiB line cap, far over the parser nesting guard. The daemon must
  // answer ERR RESOURCE_EXHAUSTED and keep serving.
  std::string deep_oql = "Q gold oql select x from x in C where ";
  deep_oql += std::string(60'000, '(');
  deep_oql += "true";
  deep_oql += std::string(60'000, ')');
  std::string response = service.HandleLine(deep_oql);
  EXPECT_EQ(response.rfind("ERR ", 0), 0u) << response.substr(0, 120);
  EXPECT_NE(response.find("RESOURCE_EXHAUSTED"), std::string::npos)
      << response.substr(0, 120);

  std::string deep_aqua = "Q gold aqua ";
  deep_aqua += std::string(60'000, '(');
  deep_aqua += "1";
  deep_aqua += std::string(60'000, ')');
  response = service.HandleLine(deep_aqua);
  EXPECT_EQ(response.rfind("ERR ", 0), 0u) << response.substr(0, 120);
  EXPECT_NE(response.find("RESOURCE_EXHAUSTED"), std::string::npos)
      << response.substr(0, 120);

  std::string deep_kola = "Q gold kola ";
  for (int i = 0; i < 60'000; ++i) deep_kola += "Kf(";
  deep_kola += "id";
  deep_kola += std::string(60'000, ')');
  response = service.HandleLine(deep_kola);
  EXPECT_EQ(response.rfind("ERR ", 0), 0u) << response.substr(0, 120);
  EXPECT_NE(response.find("RESOURCE_EXHAUSTED"), std::string::npos)
      << response.substr(0, 120);

  // The process survived; normal service continues and the failures were
  // accounted as parse errors.
  EXPECT_EQ(service.HandleLine("PING"), "OK pong");
  std::string ok = service.HandleLine("Q gold oql select p.age from p in P");
  EXPECT_EQ(ok.rfind("OK ", 0), 0u) << ok.substr(0, 120);
  EXPECT_EQ(service.stats().parse_errors, 3u);
}

TEST_F(ServiceTest, LongMalformedQueryLineGetsAShortError) {
  // A rejected request's ERR reply quotes a bounded prefix of the query
  // and its length, never the whole text: the reply stays small however
  // large the request was.
  OptimizationService service(db_.get(), &properties_, ServiceOptions{});
  std::string set = "{1";
  while (set.size() < 100'000) set += ", 1";
  set += "}";
  const std::vector<std::pair<std::string, std::string>> requests = {
      {"AQUA", "Q gold aqua " + set + " )"},
      {"AQUA", "Q gold aqua " + std::string(100'000, 'x') + " ) )"},
      {"OQL", "Q gold oql select p from p in P where p.age in " + set + " )"},
  };
  for (const auto& [language, line] : requests) {
    ASSERT_GT(line.size(), 100'000u);
    const std::string response = service.HandleLine(line);
    EXPECT_LT(response.size(), 1024u) << response.substr(0, 400);
    EXPECT_EQ(response.rfind("ERR INVALID_ARGUMENT: ", 0), 0u)
        << response.substr(0, 400);
    EXPECT_NE(response.find("while parsing " + language + " '"),
              std::string::npos)
        << response.substr(0, 400);
    EXPECT_NE(response.find(" bytes)"), std::string::npos)
        << response.substr(0, 400);
  }
  EXPECT_EQ(service.stats().parse_errors, requests.size());
}

// ---------------------------------------------------------------------------
// E-graph counters in STATS
// ---------------------------------------------------------------------------

TEST_F(ServiceTest, EgraphCountersSurfaceInStats) {
  // KOLA_EGRAPH is read at Optimizer construction (RewriterOptions
  // ::Defaults), so set it around service construction only.
  ::setenv("KOLA_EGRAPH", "1", 1);
  OptimizationService service(db_.get(), &properties_, ServiceOptions{});
  ::unsetenv("KOLA_EGRAPH");

  ServiceResponse r =
      service.Handle(Oql("select p.name from p in P where p.age > 25"));
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();

  ServiceStats stats = service.stats();
  EXPECT_GE(stats.egraph_runs, 1u);
  EXPECT_GT(stats.egraph_nodes, 0u);
  EXPECT_GT(stats.egraph_classes, 0u);

  std::string text = service.StatsText();
  EXPECT_NE(text.find("S egraph runs="), std::string::npos) << text;

  // A service without the gate reports all-zero egraph counters.
  OptimizationService plain(db_.get(), &properties_, ServiceOptions{});
  ASSERT_TRUE(plain.Handle(Oql("select p.age from p in P")).status.ok());
  EXPECT_EQ(plain.stats().egraph_runs, 0u);
  EXPECT_NE(plain.StatsText().find("S egraph runs=0 "), std::string::npos);
}

// ---------------------------------------------------------------------------
// SocketServer end to end
// ---------------------------------------------------------------------------

/// A line client on line_io. Every call is bounded by a generous deadline,
/// so a hung server fails the test in seconds instead of wedging it. A
/// call returns false on EOF or a reset, as a blocking socket would; a
/// timeout, or a line over the client's cap, fails the test.
class TestClient {
 public:
  explicit TestClient(int port)
      : fd_(DialLoopback(port, DeadlineAfter(kDeadlineMs))),
        reader_(fd_.get()) {}

  bool connected() const { return fd_.valid(); }
  int fd() const { return fd_.get(); }

  /// Raw bytes, no newline appended: for framing / slow-loris tests.
  bool SendRaw(const std::string& bytes) {
    return Succeeded(SendAll(fd_.get(), bytes, DeadlineAfter(kDeadlineMs)));
  }

  bool Send(const std::string& line) { return SendRaw(line + "\n"); }

  bool ReadLine(std::string* line) {
    return Succeeded(
        reader_.ReadLine(line, kMaxLineBytes, DeadlineAfter(kDeadlineMs)));
  }

 private:
  static bool Succeeded(IoResult result) {
    if (result != IoResult::kOk && result != IoResult::kClosed &&
        result != IoResult::kFailed) {
      ADD_FAILURE() << "test client: " << IoResultName(result);
    }
    return result == IoResult::kOk;
  }

  static constexpr int64_t kDeadlineMs = 10'000;
  static constexpr size_t kMaxLineBytes = 64 << 20;

  ScopedFd fd_;
  LineReader reader_;
};

TEST_F(ServiceTest, SocketServerEndToEnd) {
  OptimizationService service(db_.get(), &properties_, ServiceOptions{});
  ServerOptions server_options;
  server_options.port = 0;  // ephemeral
  SocketServer server(&service, server_options);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  std::string line;

  ASSERT_TRUE(client.Send("PING"));
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(line, "OK pong");

  ASSERT_TRUE(client.Send("Q gold oql select p.age from p in P"));
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(line.rfind("OK 0 ", 0), 0u) << line;

  ASSERT_TRUE(client.Send("Q gold oql select p.age from p in P"));
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(line.rfind("OK 1 ", 0), 0u) << line;

  // Malformed input over the wire: an error line, never a dropped
  // connection or a crash.
  ASSERT_TRUE(client.Send("Q gold oql select ((("));
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(line.rfind("ERR ", 0), 0u) << line;

  // An adversarially deep query over the live socket: the nesting guard
  // answers RESOURCE_EXHAUSTED and the connection stays up.
  std::string deep = "Q gold oql select x from x in C where ";
  deep += std::string(60'000, '(');
  deep += "true";
  deep += std::string(60'000, ')');
  ASSERT_TRUE(client.Send(deep));
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(line.rfind("ERR ", 0), 0u) << line.substr(0, 120);
  EXPECT_NE(line.find("RESOURCE_EXHAUSTED"), std::string::npos)
      << line.substr(0, 120);
  ASSERT_TRUE(client.Send("PING"));
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(line, "OK pong");

  ASSERT_TRUE(client.Send("STATS"));
  bool saw_stats_line = false;
  for (;;) {
    ASSERT_TRUE(client.ReadLine(&line));
    if (line.rfind("S ", 0) == 0) saw_stats_line = true;
    if (line.rfind("OK", 0) == 0 || line.rfind("ERR", 0) == 0) break;
  }
  EXPECT_TRUE(saw_stats_line);
  EXPECT_EQ(line, "OK stats");

  // A second concurrent client works while the first is connected.
  {
    TestClient other(server.port());
    ASSERT_TRUE(other.connected());
    ASSERT_TRUE(other.Send("Q gold oql select p.age from p in P"));
    ASSERT_TRUE(other.ReadLine(&line));
    EXPECT_EQ(line.rfind("OK 1 ", 0), 0u) << line;  // shares the cache
    ASSERT_TRUE(other.Send("QUIT"));
    ASSERT_TRUE(other.ReadLine(&line));
    EXPECT_EQ(line, "OK bye");
  }

  // SHUTDOWN stops the daemon: Wait() returns and Stop() joins cleanly.
  ASSERT_TRUE(client.Send("SHUTDOWN"));
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(line, "OK shutting down");
  server.Wait();
  server.Stop();
  EXPECT_GE(server.connections_served(), 2u);
}

// ---------------------------------------------------------------------------
// Snapshot codec (plan_cache_io)
// ---------------------------------------------------------------------------

PlanSnapshot ThreeEntrySnapshot() {
  PlanSnapshot snapshot;
  snapshot.rule_fingerprint = 0xfeedfacecafebeefULL;
  snapshot.catalog_version = 3;
  for (int i = 0; i < 3; ++i) {
    PlanSnapshotEntry entry;
    entry.catalog_version = 3;
    entry.term_text = "iterate(shape" + std::to_string(i) + ")";
    entry.payload = "payload-" + std::to_string(i) + "\twith\ttabs";
    snapshot.entries.push_back(entry);
  }
  return snapshot;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "kola_" + name + "_" +
         std::to_string(::getpid()) + ".snap";
}

TEST(PlanCacheIoTest, EncodeDecodeRoundTrip) {
  PlanSnapshot original = ThreeEntrySnapshot();
  SnapshotReadReport report;
  PlanSnapshot decoded = DecodePlanSnapshot(EncodePlanSnapshot(original),
                                            &report);
  EXPECT_TRUE(report.header_ok);
  EXPECT_TRUE(report.trailer_ok);
  EXPECT_EQ(report.skipped, 0u);
  EXPECT_EQ(report.entries_read, 3u);
  EXPECT_EQ(decoded.rule_fingerprint, original.rule_fingerprint);
  EXPECT_EQ(decoded.catalog_version, original.catalog_version);
  ASSERT_EQ(decoded.entries.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(decoded.entries[i].catalog_version,
              original.entries[i].catalog_version);
    EXPECT_EQ(decoded.entries[i].term_text, original.entries[i].term_text);
    EXPECT_EQ(decoded.entries[i].payload, original.entries[i].payload);
  }
}

TEST(PlanCacheIoTest, GarbageHeaderIsColdStartWithASkip) {
  for (const char* garbage :
       {"", "not a snapshot at all\n", "KOLASNAP 9 fp=zz version=x\n",
        "KOLASNAP 1 fp=0123 version=1\n" /* missing entries= field */}) {
    SnapshotReadReport report;
    PlanSnapshot decoded = DecodePlanSnapshot(garbage, &report);
    EXPECT_FALSE(report.header_ok) << garbage;
    EXPECT_GE(report.skipped, 1u) << garbage;
    EXPECT_TRUE(decoded.entries.empty()) << garbage;
  }
}

TEST(PlanCacheIoTest, TruncationKeepsValidatedPrefixAndCountsTheRest) {
  std::string encoded = EncodePlanSnapshot(ThreeEntrySnapshot());
  // Every proper prefix decodes without crashing, never yields more than
  // the entries whose checksums validated, and always reports at least one
  // skip (a truncated file must never look pristine).
  for (size_t cut = 0; cut < encoded.size(); cut += 7) {
    SnapshotReadReport report;
    PlanSnapshot decoded = DecodePlanSnapshot(encoded.substr(0, cut), &report);
    EXPECT_LE(decoded.entries.size(), 3u);
    EXPECT_GE(report.skipped, 1u) << "cut=" << cut;
    EXPECT_FALSE(report.trailer_ok) << "cut=" << cut;
  }
}

TEST(PlanCacheIoTest, BitFlipSkipsOnlyTheDamagedEntry) {
  PlanSnapshot original = ThreeEntrySnapshot();
  std::string encoded = EncodePlanSnapshot(original);
  // Corrupt one payload byte of the middle entry: same length, wrong
  // checksum. Framing survives, so entries 0 and 2 still restore.
  size_t at = encoded.find("payload-1");
  ASSERT_NE(at, std::string::npos);
  encoded[at + 8] ^= 0x20;
  SnapshotReadReport report;
  PlanSnapshot decoded = DecodePlanSnapshot(encoded, &report);
  EXPECT_TRUE(report.header_ok);
  EXPECT_FALSE(report.trailer_ok);  // the file checksum no longer matches
  EXPECT_EQ(report.skipped, 1u);
  ASSERT_EQ(decoded.entries.size(), 2u);
  EXPECT_EQ(decoded.entries[0].payload, original.entries[0].payload);
  EXPECT_EQ(decoded.entries[1].payload, original.entries[2].payload);
}

TEST(PlanCacheIoTest, FileRoundTripAndMissingFile) {
  const std::string path = TempPath("io_roundtrip");
  PlanSnapshot original = ThreeEntrySnapshot();
  ASSERT_TRUE(WritePlanSnapshotFile(path, original).ok());
  SnapshotReadReport report;
  StatusOr<PlanSnapshot> loaded = ReadPlanSnapshotFile(path, &report);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(report.trailer_ok);
  EXPECT_EQ(loaded.value().entries.size(), 3u);
  std::remove(path.c_str());

  StatusOr<PlanSnapshot> missing = ReadPlanSnapshotFile(path, nullptr);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// Service snapshot/restore
// ---------------------------------------------------------------------------

TEST_F(ServiceTest, SnapshotRestoreServesByteIdenticalWarmHits) {
  const std::string path = TempPath("restore_identity");
  const std::vector<std::string> queries = {
      "select p.name from p in P where p.age > 25",
      "select p.age from p in P",
      "select c.name from p in P, c in p.child where c.age > 12",
  };
  std::vector<std::string> cold_payloads;
  {
    OptimizationService service(db_.get(), &properties_, ServiceOptions{});
    for (const std::string& q : queries) {
      ServiceResponse r = service.Handle(Oql(q));
      ASSERT_TRUE(r.status.ok()) << r.status.ToString();
      cold_payloads.push_back(r.payload);
    }
    ASSERT_TRUE(service.SaveSnapshot(path).ok());
    ServiceStats stats = service.stats();
    EXPECT_EQ(stats.snapshot_writes, 1u);
    EXPECT_EQ(stats.snapshot_last_entries, 3u);
  }

  // A brand-new service (fresh interner, fresh TermIds) restores the
  // snapshot and serves every shape warm -- and byte-identical both to the
  // pre-crash payloads and to its own fresh optimization.
  OptimizationService revived(db_.get(), &properties_, ServiceOptions{});
  SnapshotRestoreReport report = revived.RestoreSnapshot(path);
  ASSERT_TRUE(report.status.ok()) << report.status.ToString();
  EXPECT_EQ(report.restored, 3u);
  EXPECT_EQ(report.skipped, 0u);
  for (size_t i = 0; i < queries.size(); ++i) {
    ServiceResponse warm = revived.Handle(Oql(queries[i]));
    ASSERT_TRUE(warm.status.ok());
    EXPECT_TRUE(warm.cache_hit) << queries[i];
    EXPECT_EQ(warm.payload, cold_payloads[i]);
    ServiceResponse fresh = revived.Handle(Oql(queries[i], "gold", true));
    ASSERT_TRUE(fresh.status.ok());
    EXPECT_EQ(fresh.payload, warm.payload);
  }
  ServiceStats stats = revived.stats();
  EXPECT_EQ(stats.restored_entries, 3u);
  EXPECT_EQ(stats.restore_skipped, 0u);
  std::string text = revived.StatsText();
  EXPECT_NE(text.find("S snapshot writes=0"), std::string::npos) << text;
  EXPECT_NE(text.find("restored=3"), std::string::npos) << text;
  EXPECT_NE(text.find("S uptime_sec "), std::string::npos) << text;
  std::remove(path.c_str());
}

TEST_F(ServiceTest, RestoreMissingSnapshotIsACleanColdStart) {
  OptimizationService service(db_.get(), &properties_, ServiceOptions{});
  SnapshotRestoreReport report =
      service.RestoreSnapshot(TempPath("restore_missing_nonexistent"));
  EXPECT_EQ(report.status.code(), StatusCode::kNotFound);
  EXPECT_EQ(report.restored, 0u);
  EXPECT_EQ(report.skipped, 0u);
  EXPECT_TRUE(service.Handle(Oql("select p.age from p in P")).status.ok());
}

TEST_F(ServiceTest, RestoreRejectsForeignRuleFingerprint) {
  const std::string path = TempPath("restore_fingerprint");
  OptimizationService service(db_.get(), &properties_, ServiceOptions{});
  PlanSnapshot snapshot;
  snapshot.rule_fingerprint = service.rule_fingerprint() ^ 1;
  snapshot.catalog_version = 1;
  PlanSnapshotEntry entry;
  entry.catalog_version = 1;
  entry.term_text = "iterate(age)";
  entry.payload = "stale plan from a different rule catalog";
  snapshot.entries.push_back(entry);
  ASSERT_TRUE(WritePlanSnapshotFile(path, snapshot).ok());

  SnapshotRestoreReport report = service.RestoreSnapshot(path);
  ASSERT_TRUE(report.status.ok());
  EXPECT_EQ(report.restored, 0u);
  EXPECT_EQ(report.skipped, 1u);
  EXPECT_EQ(service.stats().cache.entries, 0u);
  EXPECT_EQ(service.stats().restore_skipped, 1u);
  std::remove(path.c_str());
}

TEST_F(ServiceTest, RestoreAdoptsCatalogVersionAndBumpStillInvalidates) {
  const std::string path = TempPath("restore_version");
  const std::string query = "select p.age from p in P";
  {
    OptimizationService service(db_.get(), &properties_, ServiceOptions{});
    service.BumpCatalogVersion();
    service.BumpCatalogVersion();  // now at version 3
    ASSERT_TRUE(service.Handle(Oql(query)).status.ok());
    ASSERT_TRUE(service.SaveSnapshot(path).ok());
  }

  // The revived service starts at version 1; restore must adopt 3 or the
  // restored entry would be unreachable.
  OptimizationService revived(db_.get(), &properties_, ServiceOptions{});
  SnapshotRestoreReport report = revived.RestoreSnapshot(path);
  ASSERT_TRUE(report.status.ok());
  EXPECT_EQ(report.restored, 1u);
  EXPECT_EQ(report.catalog_version, 3u);
  EXPECT_EQ(revived.catalog_version(), 3u);
  EXPECT_TRUE(revived.Handle(Oql(query)).cache_hit);

  // Invalidation survives the restart: a post-restore BUMP orphans the
  // restored entry like any other.
  EXPECT_EQ(revived.BumpCatalogVersion(), 4u);
  EXPECT_FALSE(revived.Handle(Oql(query)).cache_hit);
  std::remove(path.c_str());
}

TEST_F(ServiceTest, RestoreSkipsStaleVersionAndUnparsableEntries) {
  const std::string path = TempPath("restore_stale");
  OptimizationService service(db_.get(), &properties_, ServiceOptions{});
  PlanSnapshot snapshot;
  snapshot.rule_fingerprint = service.rule_fingerprint();
  snapshot.catalog_version = 2;
  // Entry cached under an older catalog version: was invalidated before
  // the crash, must not be revived.
  PlanSnapshotEntry stale;
  stale.catalog_version = 1;
  stale.term_text = "iterate(age)";
  stale.payload = "pre-bump plan";
  snapshot.entries.push_back(stale);
  // Entry whose term rendering does not parse (snapshot from a future
  // format, or damage the checksum cannot see).
  PlanSnapshotEntry broken;
  broken.catalog_version = 2;
  broken.term_text = "((((not a term";
  broken.payload = "x";
  snapshot.entries.push_back(broken);
  ASSERT_TRUE(WritePlanSnapshotFile(path, snapshot).ok());

  SnapshotRestoreReport report = service.RestoreSnapshot(path);
  ASSERT_TRUE(report.status.ok());
  EXPECT_EQ(report.restored, 0u);
  EXPECT_EQ(report.skipped, 2u);
  EXPECT_EQ(service.catalog_version(), 2u);  // still adopted
  std::remove(path.c_str());
}

TEST_F(ServiceTest, RestoreCorruptSnapshotColdStartsWithCountedSkips) {
  const std::string path = TempPath("restore_corrupt");
  {
    OptimizationService service(db_.get(), &properties_, ServiceOptions{});
    ASSERT_TRUE(service.Handle(
        Oql("select p.name from p in P where p.age > 25")).status.ok());
    ASSERT_TRUE(service.Handle(Oql("select p.age from p in P")).status.ok());
    ASSERT_TRUE(service.SaveSnapshot(path).ok());
  }
  // Truncate the file to half: the daemon must start, count skips, and
  // keep serving.
  std::string data;
  {
    std::ifstream in(path, std::ios::binary);
    data.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size() / 2));
  }

  OptimizationService revived(db_.get(), &properties_, ServiceOptions{});
  SnapshotRestoreReport report = revived.RestoreSnapshot(path);
  ASSERT_TRUE(report.status.ok());
  EXPECT_GE(report.skipped, 1u);
  EXPECT_GE(revived.stats().restore_skipped, 1u);
  ServiceResponse r = revived.Handle(Oql("select p.age from p in P"));
  EXPECT_TRUE(r.status.ok());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Connection deadlines, drain, framing, and socket-level faults
// ---------------------------------------------------------------------------

TEST_F(ServiceTest, ReadDeadlineCutsSilentClientAndFreesItsSlot) {
  OptimizationService service(db_.get(), &properties_, ServiceOptions{});
  ServerOptions options;
  options.handler_threads = 1;  // the silent client holds the ONLY slot
  options.read_deadline_ms = 200;
  SocketServer server(&service, options);
  ASSERT_TRUE(server.Start().ok());

  // A connects and says nothing; with one handler slot, B can only be
  // served after the read deadline evicts A.
  TestClient silent(server.port());
  ASSERT_TRUE(silent.connected());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  TestClient active(server.port());
  ASSERT_TRUE(active.connected());
  ASSERT_TRUE(active.Send("PING"));
  std::string line;
  ASSERT_TRUE(active.ReadLine(&line));  // would hang forever without the cut
  EXPECT_EQ(line, "OK pong");

  // The silent client was told why before the close.
  std::string reason;
  ASSERT_TRUE(silent.ReadLine(&reason));
  EXPECT_EQ(reason.rfind("ERR DEADLINE_EXCEEDED", 0), 0u) << reason;
  EXPECT_FALSE(silent.ReadLine(&reason));  // then EOF

  EXPECT_GE(server.stats().read_timeouts, 1u);
  server.Stop();
}

TEST_F(ServiceTest, DribbledBytesDoNotResetTheReadDeadline) {
  OptimizationService service(db_.get(), &properties_, ServiceOptions{});
  ServerOptions options;
  options.read_deadline_ms = 250;
  SocketServer server(&service, options);
  ASSERT_TRUE(server.Start().ok());

  // Slow loris: a byte every 100 ms, never a newline. If each byte reset
  // an idle timer this connection would live forever; the COMPLETE-line
  // deadline cuts it regardless of the dribble.
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 50; ++i) {
    if (!client.SendRaw("x")) break;  // server hung up: stop dribbling
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  // The server must have cut us off long before the 5 s dribble budget.
  // (The diagnostic line is best effort -- a byte in flight at cut time
  // can turn the close into a reset -- but the cut itself is guaranteed.)
  std::string line;
  if (client.ReadLine(&line)) {
    EXPECT_EQ(line.rfind("ERR DEADLINE_EXCEEDED", 0), 0u) << line;
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::seconds(6));
  EXPECT_GE(server.stats().read_timeouts, 1u);
  server.Stop();
}

TEST_F(ServiceTest, FramingEdgeCasesOverTheWire) {
  OptimizationService service(db_.get(), &properties_, ServiceOptions{});
  ServerOptions options;
  options.max_line_bytes = 16;
  SocketServer server(&service, options);
  ASSERT_TRUE(server.Start().ok());
  std::string line;

  {
    // Byte-at-a-time delivery: the framing layer reassembles "PING\n"
    // delivered in five separate segments.
    TestClient client(server.port());
    ASSERT_TRUE(client.connected());
    for (char c : {'P', 'I', 'N', 'G', '\n'}) {
      ASSERT_EQ(::send(client.fd(), &c, 1, MSG_NOSIGNAL), 1);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_TRUE(client.ReadLine(&line));
    EXPECT_EQ(line, "OK pong");
  }
  {
    // CRLF framing: a Windows-ish client's "PING\r\n" is one request.
    TestClient client(server.port());
    ASSERT_TRUE(client.connected());
    const std::string crlf = "PING\r\n";
    ASSERT_EQ(::send(client.fd(), crlf.data(), crlf.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(crlf.size()));
    ASSERT_TRUE(client.ReadLine(&line));
    EXPECT_EQ(line, "OK pong");
  }
  {
    // A line of exactly max_line_bytes split across recvs right at the
    // boundary, newline in a later segment: accepted (the line itself is
    // not oversized; the buffer only exceeds the cap WITH a 17th byte).
    TestClient client(server.port());
    ASSERT_TRUE(client.connected());
    const std::string padded = "            PING";  // 16 bytes after trim->PING
    ASSERT_EQ(padded.size(), 16u);
    ASSERT_EQ(::send(client.fd(), padded.data(), padded.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(padded.size()));
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    ASSERT_EQ(::send(client.fd(), "\n", 1, MSG_NOSIGNAL), 1);
    ASSERT_TRUE(client.ReadLine(&line));
    EXPECT_EQ(line, "OK pong");
  }
  {
    // One byte over the cap without a newline: answered with an error and
    // closed instead of buffering forever.
    TestClient client(server.port());
    ASSERT_TRUE(client.connected());
    const std::string overlong(17, 'x');
    ASSERT_EQ(::send(client.fd(), overlong.data(), overlong.size(),
                     MSG_NOSIGNAL),
              static_cast<ssize_t>(overlong.size()));
    ASSERT_TRUE(client.ReadLine(&line));
    EXPECT_EQ(line.rfind("ERR INVALID_ARGUMENT", 0), 0u) << line;
    EXPECT_FALSE(client.ReadLine(&line));  // connection closed
  }
  server.Stop();
}

TEST_F(ServiceTest, ShutdownRacesInFlightRequestsAndDrainFinishesThem) {
  OptimizationService service(db_.get(), &properties_, ServiceOptions{});
  SocketServer server(&service, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  // In-flight worker: fires a request, then (post-drain) reads the
  // response off the half-closed connection.
  TestClient worker(server.port());
  ASSERT_TRUE(worker.connected());
  ASSERT_TRUE(worker.Send("Q gold oql select p.name from p in P "
                          "where p.age > 25"));

  TestClient controller(server.port());
  ASSERT_TRUE(controller.connected());
  ASSERT_TRUE(controller.Send("SHUTDOWN"));
  std::string line;
  ASSERT_TRUE(controller.ReadLine(&line));
  EXPECT_EQ(line, "OK shutting down");

  server.Wait();
  EXPECT_TRUE(server.Drain(5'000));
  EXPECT_NE(server.StatsLine().find("drain_state=draining"),
            std::string::npos);

  // The worker's in-flight request was served, not dropped: its response
  // is sitting in the socket buffer.
  ASSERT_TRUE(worker.ReadLine(&line));
  EXPECT_EQ(line.rfind("OK ", 0), 0u) << line;

  server.Stop();
  EXPECT_NE(server.StatsLine().find("drain_state=stopped"),
            std::string::npos);
}

TEST_F(ServiceTest, InjectedRecvFaultResetsConnectionAndCounts) {
  FaultInjector injector(11);
  injector.set_rate(FaultSite::kRecv, 1.0);
  SetProcessFaultInjector(&injector);

  OptimizationService service(db_.get(), &properties_, ServiceOptions{});
  SocketServer server(&service, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send("PING"));
  std::string line;
  EXPECT_FALSE(client.ReadLine(&line));  // reset before any response
  server.Stop();
  SetProcessFaultInjector(nullptr);
  EXPECT_GE(server.stats().resets, 1u);
}

TEST_F(ServiceTest, InjectedSendFaultExercisesShortWritePathCorrectly) {
  FaultInjector injector(12);
  injector.set_rate(FaultSite::kSend, 1.0);
  SetProcessFaultInjector(&injector);

  OptimizationService service(db_.get(), &properties_, ServiceOptions{});
  SocketServer server(&service, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  // Every send is clamped to one byte, so the response arrives via the
  // short-write continuation loop -- and must still be byte-perfect.
  ASSERT_TRUE(client.Send("PING"));
  std::string line;
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(line, "OK pong");
  ASSERT_TRUE(client.Send("Q gold oql select p.age from p in P"));
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(line.rfind("OK 0 ", 0), 0u) << line;
  server.Stop();
  SetProcessFaultInjector(nullptr);
  EXPECT_GE(server.stats().short_writes, 1u);
}

TEST_F(ServiceTest, InjectedAcceptFaultDropsConnectionBeforeService) {
  FaultInjector injector(13);
  injector.set_rate(FaultSite::kAccept, 1.0);
  SetProcessFaultInjector(&injector);

  OptimizationService service(db_.get(), &properties_, ServiceOptions{});
  SocketServer server(&service, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  {
    TestClient doomed(server.port());
    // connect() itself succeeds (the kernel completed the handshake from
    // the backlog); the injected fault kills the connection before any
    // handler sees it, so the first read is EOF.
    ASSERT_TRUE(doomed.connected());
    doomed.Send("PING");
    std::string line;
    EXPECT_FALSE(doomed.ReadLine(&line));
  }
  SetProcessFaultInjector(nullptr);
  // With the fault cleared the very same server serves normally.
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send("PING"));
  std::string line;
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(line, "OK pong");
  server.Stop();
  EXPECT_GE(server.stats().accept_failures, 1u);
}

TEST_F(ServiceTest, ServerCountersSurfaceInStatsViaExtraStats) {
  OptimizationService service(db_.get(), &properties_, ServiceOptions{});
  SocketServer server(&service, ServerOptions{});
  service.set_extra_stats([&server] { return server.StatsLine(); });
  ASSERT_TRUE(server.Start().ok());

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send("STATS"));
  bool saw_server_line = false, saw_snapshot_line = false;
  std::string line;
  for (;;) {
    ASSERT_TRUE(client.ReadLine(&line));
    if (line.rfind("S server connections=", 0) == 0) saw_server_line = true;
    if (line.rfind("S snapshot writes=", 0) == 0) saw_snapshot_line = true;
    if (line.rfind("OK", 0) == 0 || line.rfind("ERR", 0) == 0) break;
  }
  EXPECT_TRUE(saw_server_line);
  EXPECT_TRUE(saw_snapshot_line);
  server.Stop();
}

// ---------------------------------------------------------------------------
// Replication: SYNC shipping, standby gating, health, promotion
// ---------------------------------------------------------------------------

/// Splits a HandleLine("SYNC") response into its header fields and the raw
/// snapshot payload. `ok` requires the declared length to match.
struct SyncStream {
  uint64_t checksum = 0;
  std::string payload;
  bool ok = false;
};

SyncStream ParseSyncResponse(const std::string& response) {
  SyncStream s;
  size_t newline = response.find('\n');
  if (newline == std::string::npos) return s;
  std::vector<std::string> fields = Split(response.substr(0, newline), ' ');
  if (fields.size() != 4 || fields[0] != "OK" || fields[1] != "SNAPSHOT") {
    return s;
  }
  auto len = ParseUint64(fields[2]);
  if (!len.ok() || !ParseHex64(fields[3], &s.checksum)) return s;
  s.payload = response.substr(newline + 1);
  s.ok = s.payload.size() == len.value();
  return s;
}

TEST_F(ServiceTest, DrainingIsVisibleInPingHealthAndStats) {
  OptimizationService service(db_.get(), &properties_, ServiceOptions{});
  EXPECT_EQ(service.HandleLine("PING"), "OK pong");
  EXPECT_EQ(service.HandleLine("HEALTH").rfind("OK READY", 0), 0u);
  EXPECT_NE(service.HandleLine("HEALTH").find(" serving=1"),
            std::string::npos);

  service.SetDraining();
  EXPECT_EQ(service.HandleLine("PING"), "OK draining");
  std::string health = service.HandleLine("HEALTH");
  EXPECT_EQ(health.rfind("OK DRAINING", 0), 0u) << health;
  // serving=0 steers health-gated clients away while in-flight reads
  // still complete (ServingReads stays true).
  EXPECT_NE(health.find(" serving=0"), std::string::npos) << health;
  EXPECT_TRUE(service.ServingReads());
  EXPECT_NE(service.HandleLine("STATS").find("state=DRAINING"),
            std::string::npos);
}

TEST_F(ServiceTest, RequestShutdownFlipsLiveServerToDraining) {
  OptimizationService service(db_.get(), &properties_, ServiceOptions{});
  SocketServer server(&service, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  // `witness` connects before the shutdown and keeps its line open across
  // it: drain must answer its later requests, and those answers must say
  // the daemon is going away.
  TestClient witness(server.port());
  ASSERT_TRUE(witness.connected());
  std::string line;
  ASSERT_TRUE(witness.Send("PING"));
  ASSERT_TRUE(witness.ReadLine(&line));
  EXPECT_EQ(line, "OK pong");

  TestClient controller(server.port());
  ASSERT_TRUE(controller.connected());
  ASSERT_TRUE(controller.Send("SHUTDOWN"));
  ASSERT_TRUE(controller.ReadLine(&line));
  EXPECT_EQ(line, "OK shutting down");
  server.Wait();

  ASSERT_TRUE(witness.Send("PING"));
  ASSERT_TRUE(witness.ReadLine(&line));
  EXPECT_EQ(line, "OK draining");
  ASSERT_TRUE(witness.Send("HEALTH"));
  ASSERT_TRUE(witness.ReadLine(&line));
  EXPECT_EQ(line.rfind("OK DRAINING", 0), 0u) << line;
  server.Stop();
}

TEST_F(ServiceTest, StandbyRefusesReadsAndBumpUntilPromoted) {
  ServiceOptions options;
  options.standby = true;
  OptimizationService standby(db_.get(), &properties_, options);
  EXPECT_EQ(standby.role(), ServiceRole::kStandby);
  EXPECT_FALSE(standby.ServingReads());

  // A never-synced standby must never answer a read: it could hold stale
  // (pre-BUMP) plans from a restored snapshot.
  ServiceResponse response =
      standby.Handle(Oql("select p.age from p in P"));
  EXPECT_EQ(response.status.code(), StatusCode::kFailedPrecondition);
  std::string wire = standby.HandleLine("Q gold oql select p.age from p in P");
  EXPECT_EQ(wire.rfind("ERR NOT_READY", 0), 0u) << wire;
  EXPECT_EQ(standby.HandleLine("SYNC").rfind("ERR NOT_READY", 0), 0u);

  // Catalog changes flow primary -> standby, never the reverse.
  std::string bump = standby.HandleLine("BUMP");
  EXPECT_EQ(bump.rfind("ERR FAILED_PRECONDITION", 0), 0u) << bump;

  std::string health = standby.HandleLine("HEALTH");
  EXPECT_EQ(health.rfind("OK SYNCING", 0), 0u) << health;
  EXPECT_NE(health.find(" serving=0"), std::string::npos) << health;
  EXPECT_NE(health.find(" synced=0"), std::string::npos) << health;

  standby.Promote();
  EXPECT_EQ(standby.role(), ServiceRole::kPromoted);
  EXPECT_TRUE(standby.ServingReads());
  EXPECT_EQ(standby.HandleLine("HEALTH").rfind("OK READY", 0), 0u);
  EXPECT_EQ(standby.HandleLine("BUMP"), "OK version=2");
  EXPECT_TRUE(standby.Handle(Oql("select p.age from p in P")).status.ok());
}

TEST_F(ServiceTest, SyncShipsByteIdenticalWarmPlansToStandby) {
  OptimizationService primary(db_.get(), &properties_, ServiceOptions{});
  const std::vector<std::string> queries = {
      "select p.name from p in P where p.age > 25",
      "select p.age from p in P",
      "select c.name from p in P, c in p.child where c.age > 12",
  };
  std::vector<std::string> payloads;
  for (const std::string& q : queries) {
    ServiceResponse r = primary.Handle(Oql(q));
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    payloads.push_back(r.payload);
  }

  std::string response = primary.HandleLine("SYNC");
  SyncStream stream = ParseSyncResponse(response);
  ASSERT_TRUE(stream.ok) << response.substr(0, 80);
  // The header checksum is end to end: it covers the bytes as encoded, so
  // the standby can reject a torn stream before applying anything.
  EXPECT_EQ(StableStringHash(stream.payload), stream.checksum);
  EXPECT_EQ(primary.stats().syncs_served, 1u);

  ServiceOptions options;
  options.standby = true;
  OptimizationService standby(db_.get(), &properties_, options);
  SnapshotRestoreReport report = standby.ApplySyncBytes(stream.payload);
  ASSERT_TRUE(report.status.ok()) << report.status.ToString();
  EXPECT_EQ(report.restored, queries.size());
  EXPECT_EQ(report.skipped, 0u);

  // The first applied sync flips the standby to serving, and every warm
  // hit replays the primary's plan byte for byte.
  EXPECT_TRUE(standby.ServingReads());
  EXPECT_EQ(standby.health(), ServiceHealth::kReady);
  for (size_t i = 0; i < queries.size(); ++i) {
    ServiceResponse warm = standby.Handle(Oql(queries[i]));
    ASSERT_TRUE(warm.status.ok());
    EXPECT_TRUE(warm.cache_hit) << queries[i];
    EXPECT_EQ(warm.payload, payloads[i]);
  }
  ServiceStats stats = standby.stats();
  EXPECT_EQ(stats.syncs_applied, 1u);
  EXPECT_EQ(stats.sync_entries_applied, queries.size());
  // A synced standby ships snapshots itself (chained standbys).
  EXPECT_EQ(standby.HandleLine("SYNC").rfind("OK SNAPSHOT", 0), 0u);
}

TEST_F(ServiceTest, SyncAdoptsCatalogVersionAndDropsStaleWarmth) {
  OptimizationService primary(db_.get(), &properties_, ServiceOptions{});
  ServiceOptions options;
  options.standby = true;
  OptimizationService standby(db_.get(), &properties_, options);
  const std::string query = "select p.age from p in P";

  ASSERT_TRUE(primary.Handle(Oql(query)).status.ok());
  SyncStream first = ParseSyncResponse(primary.HandleLine("SYNC"));
  ASSERT_TRUE(first.ok);
  ASSERT_TRUE(standby.ApplySyncBytes(first.payload).status.ok());
  EXPECT_TRUE(standby.Handle(Oql(query)).cache_hit);

  // The primary's catalog moves on; the next sync must carry the new
  // version and orphan the standby's v1 warmth in one step.
  EXPECT_EQ(primary.BumpCatalogVersion(), 2u);
  ServiceResponse rewarmed = primary.Handle(Oql(query));
  ASSERT_TRUE(rewarmed.status.ok());
  SyncStream second = ParseSyncResponse(primary.HandleLine("SYNC"));
  ASSERT_TRUE(second.ok);
  SnapshotRestoreReport report = standby.ApplySyncBytes(second.payload);
  ASSERT_TRUE(report.status.ok());
  EXPECT_EQ(report.catalog_version, 2u);

  // Serving a stale plan is structurally impossible now: the standby's
  // cache keys carry version 2, so the old entry is unreachable -- and the
  // warm answer matches the primary's post-bump plan exactly.
  ServiceResponse warm = standby.Handle(Oql(query));
  ASSERT_TRUE(warm.status.ok());
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.payload, rewarmed.payload);
}

TEST_F(ServiceTest, ReplicationClientSyncsOverSocketAndPromotesOnLoss) {
  OptimizationService primary(db_.get(), &properties_, ServiceOptions{});
  SocketServer server(&primary, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  const std::string query = "select p.name from p in P where p.age > 25";
  ServiceResponse cold = primary.Handle(Oql(query));
  ASSERT_TRUE(cold.status.ok());

  ServiceOptions standby_options;
  standby_options.standby = true;
  OptimizationService standby(db_.get(), &properties_, standby_options);
  ReplicationOptions repl;
  repl.port = server.port();
  repl.sync_interval_ms = 20;
  repl.io_deadline_ms = 2'000;
  repl.promote_after_failures = 3;
  ReplicationClient client(&standby, repl);

  // One live sync over the real socket: the standby comes up serving the
  // primary's exact plan.
  Status synced = client.SyncOnce();
  ASSERT_TRUE(synced.ok()) << synced.ToString();
  EXPECT_TRUE(standby.ServingReads());
  ServiceResponse warm = standby.Handle(Oql(query));
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.payload, cold.payload);
  EXPECT_GT(client.stats().bytes_received, 0u);

  // Kill the primary, then start the loop: consecutive failures walk the
  // standby READY -> SYNCING and past the threshold it promotes itself.
  server.Stop();
  client.Start();
  for (int i = 0; i < 1'000 && standby.role() != ServiceRole::kPromoted;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  client.Stop();
  ASSERT_EQ(standby.role(), ServiceRole::kPromoted);
  EXPECT_TRUE(standby.ServingReads());
  EXPECT_EQ(standby.health(), ServiceHealth::kReady);
  ServiceStats stats = standby.stats();
  EXPECT_TRUE(stats.promoted);
  EXPECT_GE(stats.sync_failures, 3u);
  // The full arc is on the record for STATS scrapers.
  EXPECT_NE(stats.health_history.find("READY>SYNCING>READY"),
            std::string::npos)
      << stats.health_history;
  EXPECT_NE(standby.HandleLine("STATS").find("promoted=1"),
            std::string::npos);
  // Promoted means primary: it owns the catalog and ships syncs.
  EXPECT_EQ(standby.HandleLine("BUMP"), "OK version=2");
}

TEST_F(ServiceTest, InjectedReplFaultTearsSyncStreamsDetectably) {
  FaultInjector injector(17);
  injector.set_rate(FaultSite::kReplSync, 1.0);
  SetProcessFaultInjector(&injector);

  OptimizationService primary(db_.get(), &properties_, ServiceOptions{});
  SocketServer server(&primary, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(
      primary.Handle(Oql("select p.age from p in P")).status.ok());

  // Primary side: the shipped bytes are corrupted AFTER the checksum is
  // taken, so the mismatch is always detectable by the receiver.
  SyncStream torn = ParseSyncResponse(primary.HandleLine("SYNC"));
  ASSERT_TRUE(torn.ok);
  EXPECT_NE(StableStringHash(torn.payload), torn.checksum);

  // Standby side: the injected fault fails the sync attempt outright; the
  // standby stays NOT_READY rather than applying anything.
  ServiceOptions standby_options;
  standby_options.standby = true;
  OptimizationService standby(db_.get(), &properties_, standby_options);
  ReplicationOptions repl;
  repl.port = server.port();
  repl.io_deadline_ms = 2'000;
  ReplicationClient client(&standby, repl);
  EXPECT_FALSE(client.SyncOnce().ok());
  EXPECT_FALSE(standby.ServingReads());

  // Chaos off: the very same pair syncs cleanly.
  SetProcessFaultInjector(nullptr);
  Status synced = client.SyncOnce();
  ASSERT_TRUE(synced.ok()) << synced.ToString();
  EXPECT_TRUE(standby.ServingReads());
  server.Stop();
}

TEST_F(ServiceTest, SyncHeaderWithoutNewlineFailsAtTheHeaderCap) {
  // A fake primary that answers SYNC with a megabyte and no newline. The
  // standby must give up at its header cap, not buffer the stream until
  // the io deadline.
  ScopedFd listener(::socket(AF_INET, SOCK_STREAM, 0));
  ASSERT_TRUE(listener.valid());
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t addr_len = sizeof(addr);
  ASSERT_EQ(::bind(listener.get(), reinterpret_cast<sockaddr*>(&addr),
                   addr_len),
            0);
  ASSERT_EQ(::listen(listener.get(), 1), 0);
  ASSERT_EQ(::getsockname(listener.get(), reinterpret_cast<sockaddr*>(&addr),
                          &addr_len),
            0);
  std::thread primary([&listener] {
    if (PollFd(listener.get(), POLLIN, DeadlineAfter(10'000)) <= 0) return;
    ScopedFd conn(::accept(listener.get(), nullptr, nullptr));
    if (!conn.valid()) return;
    SetNonBlocking(conn.get());
    LineReader reader(conn.get());
    std::string request;
    if (reader.ReadLine(&request, 64, DeadlineAfter(10'000)) !=
        IoResult::kOk) {
      return;
    }
    // The standby hangs up after its cap, so this send may fail.
    SendAll(conn.get(), std::string(1 << 20, 'x'), DeadlineAfter(10'000));
  });

  // The standby draws no socket faults: with recv and send certain to
  // fail, a draw would fail the sync for another reason.
  FaultInjector injector(21);
  injector.set_rate(FaultSite::kRecv, 1.0);
  injector.set_rate(FaultSite::kSend, 1.0);
  SetProcessFaultInjector(&injector);
  ServiceOptions standby_options;
  standby_options.standby = true;
  OptimizationService standby(db_.get(), &properties_, standby_options);
  ReplicationOptions repl;
  repl.port = ntohs(addr.sin_port);
  repl.io_deadline_ms = 10'000;
  ReplicationClient client(&standby, repl);
  Status synced = client.SyncOnce();
  SetProcessFaultInjector(nullptr);
  primary.join();

  EXPECT_FALSE(synced.ok());
  EXPECT_NE(synced.message().find("line too long"), std::string::npos)
      << synced.ToString();
  EXPECT_EQ(injector.draws(FaultSite::kRecv), 0u);
  EXPECT_EQ(injector.draws(FaultSite::kSend), 0u);
  EXPECT_FALSE(standby.ServingReads());
  EXPECT_EQ(standby.HandleLine("Q gold oql select p.age from p in P")
                .rfind("ERR NOT_READY", 0),
            0u);
}

TEST_F(ServiceTest, ApplySyncBytesRejectsGarbageAndForeignStreams) {
  ServiceOptions options;
  options.standby = true;
  OptimizationService standby(db_.get(), &properties_, options);

  // Garbage: unusable header, standby stays NOT_READY.
  SnapshotRestoreReport garbage = standby.ApplySyncBytes("not a snapshot");
  EXPECT_EQ(garbage.status.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(standby.ServingReads());

  // A stream from a different rule catalog: refused whole, because "ready
  // with plans the local rules cannot reproduce" is worse than NOT_READY.
  PlanSnapshot foreign;
  foreign.rule_fingerprint = standby.rule_fingerprint() ^ 0x1;
  foreign.catalog_version = 1;
  PlanSnapshotEntry entry;
  entry.catalog_version = 1;
  entry.term_text = "iterate(x)";
  entry.payload = "plan";
  foreign.entries.push_back(entry);
  SnapshotRestoreReport report =
      standby.ApplySyncBytes(EncodePlanSnapshot(foreign));
  EXPECT_EQ(report.status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(report.skipped, 1u);
  EXPECT_FALSE(standby.ServingReads());
}

// ---------------------------------------------------------------------------
// Snapshot decoder fuzzing
// ---------------------------------------------------------------------------

TEST(PlanCacheIoTest, DecoderFuzzRandomBytesNeverCrash) {
  Rng rng(0x5eed);
  for (int round = 0; round < 400; ++round) {
    const size_t len = rng.Index(600);
    std::string bytes;
    bytes.reserve(len);
    for (size_t i = 0; i < len; ++i) {
      bytes.push_back(static_cast<char>(rng.Next() & 0xff));
    }
    SnapshotReadReport report;
    PlanSnapshot decoded = DecodePlanSnapshot(bytes, &report);
    // Random bytes never form a validated snapshot: no crash, no silent
    // acceptance.
    EXPECT_TRUE(decoded.entries.empty()) << "round " << round;
    EXPECT_GE(report.skipped, 1u) << "round " << round;
  }

  // Random tails behind a well-formed header: the damage is behind the
  // declared count, so it must surface as counted skips.
  for (int round = 0; round < 200; ++round) {
    std::string bytes =
        "KOLASNAP 1 fp=00000000deadbeef version=2 entries=3\n";
    const size_t len = rng.Index(400);
    for (size_t i = 0; i < len; ++i) {
      bytes.push_back(static_cast<char>(rng.Next() & 0xff));
    }
    SnapshotReadReport report;
    DecodePlanSnapshot(bytes, &report);
    EXPECT_TRUE(report.header_ok) << "round " << round;
    EXPECT_GE(report.skipped, 1u) << "round " << round;
  }
}

TEST(PlanCacheIoTest, DecoderFuzzEverySingleByteMutationCountsASkip) {
  PlanSnapshot original = ThreeEntrySnapshot();
  const std::string encoded = EncodePlanSnapshot(original);
  // Every byte position, three different flips each: framing bytes,
  // header fields that still parse, entry bodies, trailer hex -- no
  // damage may decode clean. (This is the property the seeded file
  // checksum exists for: a flipped fingerprint/version/count digit still
  // parses, but desynchronizes the trailer.)
  const unsigned char masks[] = {0x01, 0x20, 0x80};
  for (size_t at = 0; at < encoded.size(); ++at) {
    for (unsigned char mask : masks) {
      std::string mutated = encoded;
      mutated[at] = static_cast<char>(mutated[at] ^ mask);
      SnapshotReadReport report;
      PlanSnapshot decoded = DecodePlanSnapshot(mutated, &report);
      EXPECT_GE(report.skipped, 1u)
          << "byte " << at << " xor 0x" << std::hex << int(mask);
      EXPECT_LE(decoded.entries.size(), original.entries.size());
    }
  }
}

}  // namespace
}  // namespace kola
