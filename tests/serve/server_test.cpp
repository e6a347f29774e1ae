// The bsr_served server loop end to end, over localhost TCP with an
// injectable runner: cold/warm/restart byte-identity, deterministic
// coalescing (N concurrent identical requests -> exactly one execution),
// exactly one execution per fingerprint under concurrent bursts, failed runs
// that reach every waiter and are run again, distinct fingerprints in flight
// together, one store load shared by concurrent requests, admission control,
// the request-line bound, the sweep op, and graceful shutdown.
#include "serve/server.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <barrier>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.hpp"
#include "serve/client.hpp"
#include "serve/report_json.hpp"

namespace bsr::serve {
namespace {

constexpr const char* kSmallConfig = R"({"n":1024,"b":128})";

RunConfig small_config() {
  RunConfig cfg;
  cfg.n = 1024;
  cfg.b = 128;
  return cfg;
}

std::string fresh_dir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "bsr_serve_" + tag;
  std::filesystem::remove_all(dir);
  return dir;
}

/// A started memory-only TCP server whose runner counts executions.
struct TestServer {
  explicit TestServer(ServerConfig config = {}) {
    config.socket_path.clear();
    config.tcp_port = 0;  // ephemeral
    if (!config.runner) {
      config.runner = [this](const RunConfig& cfg) {
        ++executions;
        return bsr::run(cfg);
      };
    }
    server = std::make_unique<Server>(std::move(config));
    server->start();
  }

  [[nodiscard]] Client client() const {
    return Client::connect_tcp(server->port());
  }

  std::atomic<int> executions{0};
  std::unique_ptr<Server> server;
};

std::string run_request(const std::string& config_json) {
  return std::string(R"({"op":"run","config":)") + config_json + "}";
}

/// Polls `done` until it holds or 10 s pass. False at the deadline, so a
/// server that never reaches the awaited state fails the test, not hangs it.
template <typename Pred>
bool eventually(Pred done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

TEST(ServerTest, ColdRunExecutesOnceAndRepeatIsByteIdenticalFromMemory) {
  TestServer ts;
  Client c = ts.client();

  const std::string cold = c.call_raw(run_request(kSmallConfig));
  const std::string warm = c.call_raw(run_request(kSmallConfig));
  EXPECT_EQ(ts.executions.load(), 1);

  const JsonValue v1 = JsonValue::parse(cold);
  const JsonValue v2 = JsonValue::parse(warm);
  EXPECT_TRUE(v1.at("ok").as_bool());
  EXPECT_EQ(v1.at("source").as_string(), "executed");
  EXPECT_EQ(v2.at("source").as_string(), "memory");
  EXPECT_EQ(v1.at("fingerprint").as_string(),
            small_config().fingerprint());
  // The report payload — not the envelope, whose source tag legitimately
  // differs — must be byte-identical.
  EXPECT_EQ(v1.at("report").dump(), v2.at("report").dump());

  const ServeStats stats = ts.server->stats();
  EXPECT_EQ(stats.runs, 2u);
  EXPECT_EQ(stats.executed, 1u);
  EXPECT_EQ(stats.memory_hits, 1u);
  ts.server->stop();
}

TEST(ServerTest, RestartOverTheSameStoreServesByteIdenticalWithoutRerun) {
  const std::string dir = fresh_dir("restart");
  std::string cold_report;
  {
    ServerConfig cfg;
    cfg.store_dir = dir;
    TestServer ts(std::move(cfg));
    Client c = ts.client();
    const JsonValue v = JsonValue::parse(c.call_raw(run_request(kSmallConfig)));
    EXPECT_EQ(v.at("source").as_string(), "executed");
    cold_report = v.at("report").dump();
    EXPECT_EQ(ts.executions.load(), 1);
    ts.server->stop();
  }
  {
    ServerConfig cfg;
    cfg.store_dir = dir;
    TestServer ts(std::move(cfg));  // the restarted daemon
    Client c = ts.client();
    const JsonValue v = JsonValue::parse(c.call_raw(run_request(kSmallConfig)));
    EXPECT_EQ(v.at("source").as_string(), "store");
    EXPECT_EQ(v.at("report").dump(), cold_report);
    EXPECT_EQ(ts.executions.load(), 0);  // never re-executed
    EXPECT_EQ(ts.server->stats().store_hits, 1u);
    ts.server->stop();
  }
}

TEST(ServerTest, UnreadableReportInAValidEnvelopeIsALoudMissThatReExecutes) {
  // A record whose envelope checks out but whose report does not
  // deserialize must fall through to execution (docs/SERVING.md guarantee
  // 4), and the fresh save replaces it.
  const std::string dir = fresh_dir("badreport");
  const std::string fp = small_config().fingerprint();
  {
    const DiskResultStore store(dir);
    std::ofstream out(store.record_path(fp), std::ios::binary);
    out << R"({"schema":1,"fingerprint":)" << json_quote(fp)
        << R"(,"report":{"not_a_report":true}})" << '\n';
  }
  common::Counter& rejected = common::MetricsRegistry::global().counter(
      "bsr_store_rejected_records_total", "");
  const std::uint64_t rejected_before = rejected.value();
  std::string cold_report;
  {
    ServerConfig cfg;
    cfg.store_dir = dir;
    TestServer ts(std::move(cfg));
    Client c = ts.client();
    const JsonValue first =
        JsonValue::parse(c.call_raw(run_request(kSmallConfig)));
    ASSERT_TRUE(first.at("ok").as_bool()) << first.dump();
    EXPECT_EQ(first.at("source").as_string(), "executed");
    cold_report = first.at("report").dump();
    const JsonValue second =
        JsonValue::parse(c.call_raw(run_request(kSmallConfig)));
    ASSERT_TRUE(second.at("ok").as_bool()) << second.dump();
    EXPECT_EQ(second.at("source").as_string(), "memory");
    EXPECT_EQ(ts.executions.load(), 1);
    EXPECT_EQ(c.stats().at("store").at("rejected").to_int64(), 1);
    EXPECT_EQ(rejected.value(), rejected_before + 1);
    ts.server->stop();
  }
  {
    ServerConfig cfg;
    cfg.store_dir = dir;
    TestServer ts(std::move(cfg));  // restarted over the rewritten record
    Client c = ts.client();
    const JsonValue v = JsonValue::parse(c.call_raw(run_request(kSmallConfig)));
    EXPECT_EQ(v.at("source").as_string(), "store");
    EXPECT_EQ(v.at("report").dump(), cold_report);
    EXPECT_EQ(ts.executions.load(), 0);
    EXPECT_EQ(ts.server->store_stats().rejected, 0u);
    ts.server->stop();
  }
}

TEST(ServerTest, ConcurrentIdenticalRequestsCoalesceToExactlyOneExecution) {
  // Deterministic, not statistical: the runner BLOCKS until the result
  // table proves all other requests joined its run in flight, so the workers
  // cannot sneak through sequentially.
  constexpr int kClients = 4;
  const std::string fp = small_config().fingerprint();

  std::atomic<int> executions{0};
  std::unique_ptr<Server> server;  // the runner below queries it
  ServerConfig cfg;
  cfg.workers = kClients;
  cfg.runner = [&](const RunConfig& rc) {
    ++executions;
    while (server->waiters(fp) <
           static_cast<std::uint64_t>(kClients - 1)) {
      std::this_thread::yield();
    }
    return bsr::run(rc);
  };
  server = std::make_unique<Server>(std::move(cfg));
  server->start();

  std::vector<std::thread> threads;
  std::vector<std::string> responses(kClients);
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      Client c = Client::connect_tcp(server->port());
      responses[i] = c.call_raw(run_request(kSmallConfig));
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(executions.load(), 1);  // the acceptance assertion
  int leaders = 0;
  std::string report;
  for (const std::string& r : responses) {
    const JsonValue v = JsonValue::parse(r);
    EXPECT_TRUE(v.at("ok").as_bool());
    const std::string source = v.at("source").as_string();
    leaders += source == "executed" ? 1 : 0;
    if (source != "executed") {
      EXPECT_EQ(source, "coalesced");
    }
    if (report.empty()) {
      report = v.at("report").dump();
    } else {
      EXPECT_EQ(v.at("report").dump(), report);  // all share one result
    }
  }
  EXPECT_EQ(leaders, 1);
  const ServeStats stats = server->stats();
  EXPECT_EQ(stats.executed, 1u);
  EXPECT_EQ(stats.coalesced, static_cast<std::uint64_t>(kClients - 1));
  server->stop();
}

TEST(ServerTest, ConcurrentBurstsExecuteEachFingerprintExactlyOnce) {
  // Every round, all clients send the same fresh fingerprint at once. A run
  // that finishes while another request for it is on its way must be found
  // finished, never run a second time.
  constexpr int kClients = 8;
  constexpr int kRounds = 400;
  ServerConfig cfg;
  cfg.workers = kClients;
  TestServer ts(std::move(cfg));

  std::barrier round_start(kClients);
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&] {
      Client c = ts.client();  // one persistent connection per client
      for (int r = 0; r < kRounds; ++r) {
        round_start.arrive_and_wait();
        const JsonValue v = c.call(run_request(
            R"({"n":256,"b":128,"seed":)" + std::to_string(r + 1) + "}"));
        if (!v.at("ok").as_bool()) ++failures;
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(ts.executions.load(), kRounds);
  const ServeStats stats = ts.server->stats();
  EXPECT_EQ(stats.executed, static_cast<std::uint64_t>(kRounds));
  EXPECT_EQ(stats.memory_hits + stats.coalesced,
            static_cast<std::uint64_t>(kRounds) * (kClients - 1));
  EXPECT_EQ(ts.server->cache_entries(), static_cast<std::size_t>(kRounds));
  ts.server->stop();
}

TEST(ServerTest, FailedRunAnswersEveryWaiterAndTheNextRequestRunsItAgain) {
  // The first run throws once both other requests provably wait for it:
  // all three get its error, nothing is kept, and a later request runs it.
  constexpr int kClients = 3;
  const std::string fp = small_config().fingerprint();

  std::atomic<int> executions{0};
  std::unique_ptr<Server> server;  // the runner below queries it
  ServerConfig cfg;
  cfg.workers = kClients;
  cfg.runner = [&](const RunConfig& rc) {
    if (++executions == 1) {
      while (server->waiters(fp) < static_cast<std::uint64_t>(kClients - 1)) {
        std::this_thread::yield();
      }
      throw std::runtime_error("simulated run failure");
    }
    return bsr::run(rc);
  };
  server = std::make_unique<Server>(std::move(cfg));
  server->start();

  std::vector<std::thread> threads;
  std::vector<std::string> responses(kClients);
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      Client c = Client::connect_tcp(server->port());
      responses[i] = c.call_raw(run_request(kSmallConfig));
    });
  }
  for (std::thread& t : threads) t.join();

  for (const std::string& r : responses) {
    const JsonValue v = JsonValue::parse(r);
    EXPECT_FALSE(v.at("ok").as_bool()) << r;
    EXPECT_NE(v.at("error").as_string().find("simulated run failure"),
              std::string::npos)
        << r;
  }
  EXPECT_EQ(server->cache_entries(), 0u);
  EXPECT_EQ(server->stats().bad_requests, 3u);

  Client c = Client::connect_tcp(server->port());
  const JsonValue again = c.call(run_request(kSmallConfig));
  ASSERT_TRUE(again.at("ok").as_bool()) << again.dump();
  EXPECT_EQ(again.at("source").as_string(), "executed");
  EXPECT_EQ(executions.load(), 2);
  server->stop();
}

TEST(ServerTest, DistinctFingerprintsInFlightTogetherDoNotCoalesce) {
  // Each runner waits until the other has entered too, so both runs are
  // provably in flight at once and neither request can wait on the other's.
  constexpr int kClients = 2;
  std::atomic<int> in_runner{0};
  std::atomic<bool> overlapped{true};
  ServerConfig cfg;
  cfg.workers = kClients;
  cfg.runner = [&](const RunConfig& rc) {
    ++in_runner;
    if (!eventually([&] { return in_runner.load() == kClients; })) {
      overlapped.store(false);
    }
    return bsr::run(rc);
  };
  TestServer ts(std::move(cfg));

  std::vector<std::thread> threads;
  std::vector<std::string> responses(kClients);
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      Client c = ts.client();
      responses[i] = c.call_raw(run_request(
          R"({"n":256,"b":128,"seed":)" + std::to_string(i + 1) + "}"));
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_TRUE(overlapped.load());
  EXPECT_EQ(in_runner.load(), kClients);
  std::vector<std::string> fingerprints;
  for (const std::string& r : responses) {
    const JsonValue v = JsonValue::parse(r);
    ASSERT_TRUE(v.at("ok").as_bool()) << r;
    EXPECT_EQ(v.at("source").as_string(), "executed");
    fingerprints.push_back(v.at("fingerprint").as_string());
    EXPECT_EQ(ts.server->waiters(fingerprints.back()), 0u);
  }
  EXPECT_NE(fingerprints[0], fingerprints[1]);
  const ServeStats stats = ts.server->stats();
  EXPECT_EQ(stats.executed, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(stats.coalesced, 0u);
  EXPECT_EQ(stats.memory_hits, 0u);
  EXPECT_EQ(ts.server->cache_entries(), static_cast<std::size_t>(kClients));
  ts.server->stop();
}

TEST(ServerTest, RunInFlightIsOneEntryThatOnlyWaitingRequestsJoin) {
  // A run counts as a table entry from the moment its first request enters
  // it. waiters() counts the requests that waited for it in flight; a memory
  // hit after it finished does not join it.
  const std::string fp = small_config().fingerprint();
  std::atomic<bool> in_runner{false};
  std::atomic<bool> release{false};
  ServerConfig cfg;
  cfg.workers = 2;
  cfg.runner = [&](const RunConfig& rc) {
    in_runner.store(true);
    (void)eventually([&] { return release.load(); });
    return bsr::run(rc);
  };
  TestServer ts(std::move(cfg));
  EXPECT_EQ(ts.server->waiters(fp), 0u);  // no entry yet

  std::string first_reply;
  std::string second_reply;
  std::thread first([&] {
    Client c = ts.client();
    first_reply = c.call_raw(run_request(kSmallConfig));
  });
  EXPECT_TRUE(eventually([&] { return in_runner.load(); }));
  EXPECT_EQ(ts.server->cache_entries(), 1u);
  EXPECT_EQ(ts.server->waiters(fp), 0u);
  std::thread second([&] {
    Client c = ts.client();
    second_reply = c.call_raw(run_request(kSmallConfig));
  });
  EXPECT_TRUE(eventually([&] { return ts.server->waiters(fp) == 1; }));
  release.store(true);
  first.join();
  second.join();

  EXPECT_EQ(JsonValue::parse(first_reply).at("source").as_string(),
            "executed");
  EXPECT_EQ(JsonValue::parse(second_reply).at("source").as_string(),
            "coalesced");
  Client c = ts.client();
  EXPECT_EQ(c.call(run_request(kSmallConfig)).at("source").as_string(),
            "memory");
  EXPECT_EQ(ts.server->waiters(fp), 1u);
  EXPECT_EQ(ts.server->cache_entries(), 1u);
  ts.server->stop();
}

TEST(ServerTest, ConcurrentRequestsForAStoredRecordLoadItOnce) {
  // A restarted daemon asked for one stored fingerprint by several clients
  // at once reads the record once; the other requests share that load.
  constexpr int kClients = 4;
  const std::string dir = fresh_dir("storeburst");
  std::string cold_report;
  {
    ServerConfig cfg;
    cfg.store_dir = dir;
    TestServer ts(std::move(cfg));
    Client c = ts.client();
    const JsonValue v = c.call(run_request(kSmallConfig));
    ASSERT_TRUE(v.at("ok").as_bool()) << v.dump();
    cold_report = v.at("report").dump();
    ts.server->stop();
  }
  ServerConfig cfg;
  cfg.store_dir = dir;
  cfg.workers = kClients;
  TestServer ts(std::move(cfg));  // the restarted daemon

  std::barrier start(kClients);
  std::vector<std::thread> threads;
  std::vector<std::string> responses(kClients);
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      Client c = ts.client();
      start.arrive_and_wait();
      responses[i] = c.call_raw(run_request(kSmallConfig));
    });
  }
  for (std::thread& t : threads) t.join();

  int loads = 0;
  for (const std::string& r : responses) {
    const JsonValue v = JsonValue::parse(r);
    ASSERT_TRUE(v.at("ok").as_bool()) << r;
    const std::string source = v.at("source").as_string();
    loads += source == "store" ? 1 : 0;
    if (source != "store") {
      EXPECT_TRUE(source == "coalesced" || source == "memory") << source;
    }
    EXPECT_EQ(v.at("report").dump(), cold_report);
  }
  EXPECT_EQ(loads, 1);
  EXPECT_EQ(ts.executions.load(), 0);
  const ServeStats stats = ts.server->stats();
  EXPECT_EQ(stats.store_hits, 1u);
  EXPECT_EQ(stats.executed, 0u);
  EXPECT_EQ(stats.memory_hits + stats.coalesced,
            static_cast<std::uint64_t>(kClients - 1));
  EXPECT_EQ(ts.server->store_stats().hits, 1u);
  EXPECT_EQ(ts.server->cache_entries(), 1u);
  ts.server->stop();
}

TEST(ServerTest, AdmissionControlRefusesBeyondQueueDepth) {
  // One worker, queue depth one. Connection A occupies the worker inside a
  // gated runner; connection B fills the queue; connection C must get the
  // explicit overloaded rejection. Accept order is kernel-FIFO, so the
  // sequence is deterministic once the runner is provably entered.
  std::atomic<bool> in_runner{false};
  std::atomic<bool> release{false};
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.queue_depth = 1;
  cfg.runner = [&](const RunConfig& rc) {
    in_runner.store(true);
    while (!release.load()) std::this_thread::yield();
    return bsr::run(rc);
  };
  TestServer ts(std::move(cfg));

  std::thread a_thread([&] {
    // Scoped client: closes its connection once answered, freeing the one
    // worker for the queued connection B.
    Client a = ts.client();
    const JsonValue v = JsonValue::parse(a.call_raw(run_request(kSmallConfig)));
    EXPECT_TRUE(v.at("ok").as_bool());
  });
  while (!in_runner.load()) std::this_thread::yield();

  Client b = ts.client();  // sits in the queue (depth 1: now full)
  Client c = ts.client();  // must be refused

  const JsonValue rejection = c.call(R"({"op":"stats"})");
  EXPECT_FALSE(rejection.at("ok").as_bool());
  EXPECT_EQ(rejection.at("error").as_string(), "overloaded");
  EXPECT_TRUE(rejection.at("retry").as_bool());

  release.store(true);
  a_thread.join();
  // B gets served once the worker frees up.
  EXPECT_TRUE(b.stats().at("ok").as_bool());
  EXPECT_EQ(ts.server->stats().overloaded, 1u);
  ts.server->stop();
}

TEST(ServerTest, SweepOpExpandsAxesAndDedupesViaFingerprints) {
  TestServer ts;
  Client c = ts.client();
  const JsonValue v = c.call(
      R"({"op":"sweep","config":{"n":1024,"b":128},)"
      R"("axes":{"strategy":["sr","bsr"],"r":[0,0.5]}})");
  ASSERT_TRUE(v.at("ok").as_bool());
  EXPECT_EQ(v.at("cells").to_int64(), 4);
  ASSERT_EQ(v.at("rows").items().size(), 4u);

  const JsonValue& first = v.at("rows").items()[0];
  EXPECT_EQ(first.at("coords").at("strategy").as_string(), "sr");
  EXPECT_EQ(first.at("coords").at("r").as_string(), "0");
  EXPECT_TRUE(first.at("time_s").is_number());
  EXPECT_TRUE(first.at("energy_j").is_number());

  // SR ignores r, so its r=0.5 cell dedupes onto r=0 ("memory"); BSR's two
  // r values are distinct runs: 3 executions for 4 cells.
  EXPECT_EQ(ts.executions.load(), 3);
  EXPECT_EQ(ts.server->stats().runs, 4u);
  ts.server->stop();
}

TEST(ServerTest, SweepOpSizeAxisRetunesTheBlockAndAbftAxisSetsThePolicy) {
  TestServer ts;
  Client c = ts.client();
  const JsonValue v = c.call(
      R"({"op":"sweep","config":{"n":1024,"b":128},)"
      R"("axes":{"n":[2048],"abft":["none","full"]}})");
  ASSERT_TRUE(v.at("ok").as_bool()) << v.dump();
  ASSERT_EQ(v.at("rows").items().size(), 2u);
  const char* policies[] = {"none", "full"};
  for (std::size_t i = 0; i < 2; ++i) {
    const JsonValue& row = v.at("rows").items()[i];
    EXPECT_EQ(row.at("coords").at("n").as_string(), "2048");
    EXPECT_EQ(row.at("coords").at("abft").as_string(), policies[i]);
    RunConfig want;
    want.n = 2048;
    want.b = 0;  // the size axis re-tunes the block
    want.abft_policy = policies[i];
    EXPECT_EQ(row.at("fingerprint").as_string(), want.fingerprint());
  }

  const JsonValue unknown = c.call(R"({"op":"sweep","axes":{"m":[1]}})");
  EXPECT_FALSE(unknown.at("ok").as_bool());
  EXPECT_NE(unknown.at("error").as_string().find("unknown sweep axis"),
            std::string::npos);
  ts.server->stop();
}

/// An 8-device rack config with its layout off the auto default (which
/// would be 4x2, tree, static shares).
constexpr const char* kRackLayoutConfig =
    R"({"n":1024,"b":128,"devices":8,"cluster":"rack_8x8","grid_p":2,)"
    R"("grid_q":4,"collective":"ring","rebalance":true})";

TEST(ServerTest, RunRequestsCarryTheClusterLayout) {
  std::mutex mu;
  RunConfig seen;  // the config the worker ran, guarded by mu
  ServerConfig cfg;
  cfg.runner = [&](const RunConfig& c) {
    {
      const std::lock_guard<std::mutex> lock(mu);
      seen = c;
    }
    return bsr::run(c);
  };
  TestServer ts(std::move(cfg));
  Client c = ts.client();
  const JsonValue v = c.call(run_request(kRackLayoutConfig));
  ASSERT_TRUE(v.at("ok").as_bool()) << v.dump();
  const RunConfig ran = [&] {
    const std::lock_guard<std::mutex> lock(mu);
    return seen;
  }();
  EXPECT_EQ(ran.grid_p, 2);
  EXPECT_EQ(ran.grid_q, 4);
  EXPECT_EQ(ran.collective, "ring");
  EXPECT_TRUE(ran.rebalance);
  EXPECT_EQ(v.at("fingerprint").as_string(), ran.fingerprint());
  EXPECT_NE(ran.fingerprint().find(";grid=2x4;coll=ring;rebal=1;"),
            std::string::npos)
      << ran.fingerprint();
  ts.server->stop();
}

TEST(ServerTest, ClusterLayoutsAreDistinctCacheEntries) {
  TestServer ts;
  Client c = ts.client();
  const std::string auto_layout =
      R"({"n":1024,"b":128,"devices":8,"cluster":"rack_8x8"})";
  const JsonValue a = c.call(run_request(auto_layout));
  const JsonValue b = c.call(run_request(kRackLayoutConfig));
  ASSERT_TRUE(a.at("ok").as_bool()) << a.dump();
  ASSERT_TRUE(b.at("ok").as_bool()) << b.dump();
  EXPECT_EQ(b.at("source").as_string(), "executed");
  EXPECT_NE(a.at("fingerprint").as_string(), b.at("fingerprint").as_string());
  EXPECT_EQ(ts.executions.load(), 2);
  // Each layout is then served from its own entry.
  const JsonValue again = c.call(run_request(kRackLayoutConfig));
  EXPECT_EQ(again.at("source").as_string(), "memory");
  EXPECT_EQ(again.at("report").dump(), b.at("report").dump());
  EXPECT_EQ(ts.executions.load(), 2);
  ts.server->stop();
}

TEST(ServerTest, BadRequestsAnswerOkFalseAndKeepTheConnectionUsable) {
  TestServer ts;
  Client c = ts.client();

  const JsonValue bad1 = c.call(R"({"op":"warp_drive"})");
  EXPECT_FALSE(bad1.at("ok").as_bool());
  const JsonValue bad2 = c.call(R"({"op":"run","config":{"n":-5}})");
  EXPECT_FALSE(bad2.at("ok").as_bool());
  EXPECT_FALSE(bad2.at("retry").as_bool());
  const JsonValue bad3 = c.call(R"({"op":"run","config":{"typo_knob":1}})");
  EXPECT_FALSE(bad3.at("ok").as_bool());
  // 200 000 nested arrays: a parse error, not a crashed daemon.
  const JsonValue bad4 = c.call(std::string(200000, '['));
  EXPECT_FALSE(bad4.at("ok").as_bool());
  EXPECT_FALSE(bad4.at("retry").as_bool());
  // Grids that do not cover the devices: 3 x 1431655768 wraps to 8 in int
  // arithmetic, and 4294967298 narrows to 2 as an int.
  for (const char* config :
       {R"({"devices":8,"cluster":"rack_8x8","grid_p":3,)"
        R"("grid_q":1431655768})",
        R"({"devices":8,"cluster":"rack_8x8","grid_p":4294967298,)"
        R"("grid_q":4})"}) {
    const JsonValue bad = c.call(run_request(config));
    EXPECT_FALSE(bad.at("ok").as_bool()) << config;
    EXPECT_FALSE(bad.at("retry").as_bool()) << config;
  }
  // A run of INT64_MAX rows: refused by the iteration bound before any
  // engine sizes a trace or a table for it.
  const JsonValue huge = c.call(run_request(R"({"n":9223372036854775807})"));
  EXPECT_FALSE(huge.at("ok").as_bool());
  EXPECT_FALSE(huge.at("retry").as_bool());
  EXPECT_NE(huge.at("error").as_string().find("iterations"),
            std::string::npos);

  // Same connection still serves good requests afterwards.
  const JsonValue good = c.call(R"({"op":"stats"})");
  EXPECT_TRUE(good.at("ok").as_bool());
  EXPECT_EQ(good.at("bad_requests").to_int64(), 7);
  EXPECT_EQ(ts.executions.load(), 0);
  ts.server->stop();
}

TEST(ServerTest, OversizedRequestLineIsRefusedAndTheDaemonKeepsServing) {
  TestServer ts;
  {
    Socket conn = connect_tcp_localhost(ts.server->port());
    // A daemon that keeps buffering fails the read below instead of hanging.
    const timeval timeout{10, 0};
    ASSERT_EQ(::setsockopt(conn.fd(), SOL_SOCKET, SO_RCVTIMEO, &timeout,
                           sizeof(timeout)),
              0);
    // 1 MiB + 4 KB and no newline: past the daemon's 1 MiB request bound.
    try {
      conn.send_all({std::string((std::size_t{1} << 20) + 4096, 'x')});
    } catch (const std::runtime_error&) {
      // The daemon may close before it has read the whole line.
    }
    LineReader reader(conn);
    std::optional<std::string> reply;
    try {
      reply = reader.read_line();
    } catch (const std::runtime_error& e) {
      FAIL() << "no refusal: " << e.what();
    }
    ASSERT_TRUE(reply.has_value()) << "closed without a refusal";
    const JsonValue refusal = JsonValue::parse(*reply);
    EXPECT_FALSE(refusal.at("ok").as_bool());
    EXPECT_FALSE(refusal.at("retry").as_bool());
    EXPECT_NE(refusal.at("error").as_string().find("1048576"),
              std::string::npos)
        << *reply;
    // Then the daemon closes: EOF, or a reset for the bytes it left unread.
    try {
      EXPECT_FALSE(reader.read_line().has_value());
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("reset"), std::string::npos)
          << e.what();
    }
  }
  Client c = ts.client();
  EXPECT_TRUE(c.run(kSmallConfig).at("ok").as_bool());
  EXPECT_EQ(c.stats().at("bad_requests").to_int64(), 1);
  ts.server->stop();
}

TEST(ServerTest, StatsOpReportsCountersAndConfig) {
  ServerConfig cfg;
  cfg.workers = 2;
  cfg.queue_depth = 5;
  cfg.store_dir = fresh_dir("stats");
  TestServer ts(std::move(cfg));
  Client c = ts.client();
  (void)c.call_raw(run_request(kSmallConfig));

  const JsonValue v = c.stats();
  ASSERT_TRUE(v.at("ok").as_bool());
  EXPECT_EQ(v.at("workers").to_int64(), 2);
  EXPECT_EQ(v.at("queue_depth").to_int64(), 5);
  EXPECT_EQ(v.at("executed").to_int64(), 1);
  EXPECT_EQ(v.at("cache_entries").to_int64(), 1);
  EXPECT_EQ(v.at("store").at("saves").to_int64(), 1);
  ts.server->stop();
}

/// Minimal Prometheus text-exposition parser: sample name (labels included)
/// -> value token, comment lines indexed separately by metric name.
struct Exposition {
  std::map<std::string, std::string> samples;
  std::map<std::string, std::string> types;  // name -> TYPE annotation
  explicit Exposition(const std::string& text) { parse_text(text); }

 private:
  // gtest fatal assertions need a void function, so the ctor delegates here.
  void parse_text(const std::string& text) {
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
      ASSERT_FALSE(line.empty()) << "blank line in exposition";
      if (line.rfind("# TYPE ", 0) == 0) {
        std::istringstream fields(line.substr(7));
        std::string name;
        std::string type;
        fields >> name >> type;
        types[name] = type;
        continue;
      }
      if (line[0] == '#') continue;  // HELP or free comment
      const std::size_t space = line.rfind(' ');
      ASSERT_NE(space, std::string::npos) << line;
      samples[line.substr(0, space)] = line.substr(space + 1);
    }
  }
};

TEST(ServerTest, MetricsOpExposesCountersHistogramsAndBuildInfo) {
  ServerConfig cfg;
  cfg.store_dir = fresh_dir("metrics");
  TestServer ts(std::move(cfg));
  Client c = ts.client();
  (void)c.call_raw(run_request(kSmallConfig));
  (void)c.call_raw(run_request(kSmallConfig));  // memory hit

  const JsonValue v = JsonValue::parse(c.call_raw(R"({"op":"metrics"})"));
  ASSERT_TRUE(v.at("ok").as_bool());
  EXPECT_EQ(v.at("op").as_string(), "metrics");
  EXPECT_FALSE(v.at("version").as_string().empty());

  Exposition exp(v.at("exposition").as_string());
  // Counters are process-cumulative (other tests in this binary contribute),
  // so assert lower bounds, kinds, and internal consistency — not equality.
  EXPECT_EQ(exp.types.at("bsr_serve_requests_total"), "counter");
  EXPECT_GE(std::stoull(exp.samples.at("bsr_serve_requests_total")), 3u);
  EXPECT_GE(std::stoull(exp.samples.at("bsr_serve_executed_total")), 1u);
  EXPECT_GE(std::stoull(exp.samples.at("bsr_serve_memory_hits_total")), 1u);

  // The request-latency histogram observed the two run requests (the metrics
  // request itself is timed after its exposition snapshot, so it is not in
  // this count) and the +Inf bucket equals the count.
  EXPECT_EQ(exp.types.at("bsr_serve_request_latency_seconds"), "histogram");
  const auto count =
      std::stoull(exp.samples.at("bsr_serve_request_latency_seconds_count"));
  EXPECT_GE(count, 2u);
  EXPECT_EQ(std::stoull(exp.samples.at(
                "bsr_serve_request_latency_seconds_bucket{le=\"+Inf\"}")),
            count);

  // Point-in-time gauges refreshed by the metrics op itself.
  EXPECT_EQ(exp.types.at("bsr_serve_cache_entries"), "gauge");
  EXPECT_EQ(exp.samples.at("bsr_serve_cache_entries"), "1");
  EXPECT_EQ(exp.samples.at("bsr_build_info"), "1");
  EXPECT_EQ(exp.samples.at("bsr_serve_store_record_saves"), "1");
  ts.server->stop();
}

TEST(ServerTest, ShutdownOpStopsTheDaemon) {
  TestServer ts;
  std::thread waiter([&] { ts.server->wait(); });

  Client c = ts.client();
  const JsonValue v = c.shutdown();
  EXPECT_TRUE(v.at("ok").as_bool());
  EXPECT_EQ(v.at("op").as_string(), "shutdown");

  waiter.join();  // wait() returns only when the daemon is down
  EXPECT_FALSE(ts.server->running());
}

TEST(ServerTest, StopIsIdempotentAndUnlinksTheUnixSocket) {
  const std::string path = ::testing::TempDir() + "bsr_serve_sock_test.sock";
  ServerConfig cfg;
  cfg.socket_path = path;
  Server server(std::move(cfg));
  server.start();
  EXPECT_TRUE(std::filesystem::exists(path));
  {
    Client c = Client::connect_unix_socket(path);
    EXPECT_TRUE(c.stats().at("ok").as_bool());
  }
  server.stop();
  server.stop();  // idempotent
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(ServerTest, StopReturnsAfterTheSocketDirectoryIsRemoved) {
  // A cleanup that removes the daemon's directory right after a SIGTERM
  // leaves no socket path to connect to, so stop() must wake accept()
  // without one. The daemon runs in a death-test child started from a fresh
  // exec of this binary, so it inherits no thread or sanitizer state from
  // the tests before it; alarm(10) kills a child whose stop() hangs, which
  // fails this test after 10 s instead of stalling the suite.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const std::string dir = fresh_dir("gone");
  std::filesystem::create_directories(dir);
  EXPECT_EXIT(
      {
        ::alarm(10);
        ServerConfig cfg;
        cfg.socket_path = dir + "/bsr.sock";
        cfg.workers = 1;
        Server server(std::move(cfg));
        server.start();
        std::filesystem::remove_all(dir);
        server.stop();
        ::_exit(server.running() ? 1 : 0);
      },
      ::testing::ExitedWithCode(0), "");
}

}  // namespace
}  // namespace bsr::serve
