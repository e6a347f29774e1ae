// The bsr_served server loop: accept thread + bounded connection queue +
// worker threads on common/thread_pool, serving the protocol.hpp ops from
// one result table keyed by run fingerprint, over an optional durable
// DiskResultStore.
//
// Request path for one run fingerprint fp:
//
//   fp's run finished ─────────────────────────► "memory"    (no work)
//   fp's run in flight ────────────────────────► "coalesced" (wait, share)
//   fp new: durable store hit ─────────────────► "store"     (no execution)
//   fp new: store miss ────────────────────────► "executed"  (one run)
//
// The first request for fp enters it into the table before loading or
// running it, and the finished result stays in that entry, so a fingerprint
// whose run succeeds executes once per daemon; a failed run's entry is
// erased, and the next request runs it again. Results are kept as their
// SERIALIZED text, so a repeat — same process or after a daemon restart —
// answers with bytes identical to the cold response (the
// serialize/deserialize fixpoint in serve/report_json.hpp).
//
// Admission control: the accept thread never blocks on workers. When
// queue_depth connections are already waiting, a new connection receives
// one {"ok":false,"error":"overloaded","retry":true} line and is closed —
// explicit backpressure, never unbounded queue growth.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <variant>

#include "bsr/run_config.hpp"
#include "common/json.hpp"
#include "common/metrics.hpp"
#include "common/socket.hpp"
#include "core/report.hpp"
#include "serve/protocol.hpp"
#include "serve/store.hpp"

namespace bsr::serve {

/// Everything configurable about one Server.
struct ServerConfig {
  /// Unix-socket path to listen on; empty = listen on localhost TCP instead.
  std::string socket_path;
  /// TCP port when socket_path is empty (0 = pick an ephemeral port).
  std::uint16_t tcp_port = 0;
  /// Concurrent connection-serving workers (run on a common/thread_pool).
  int workers = 4;
  /// Connections allowed to wait for a worker before new ones are refused
  /// with an "overloaded" response.
  int queue_depth = 64;
  /// Directory of the durable result store; empty = memory-only (results
  /// die with the process).
  std::string store_dir;
  /// The execution function for cache-miss runs. Defaults to bsr::run.
  /// Injectable so tests can gate, count, or fail executions
  /// deterministically.
  std::function<core::RunReport(const RunConfig&)> runner;
};

/// Monotone counters of one Server's lifetime (see stats()).
struct ServeStats {
  std::uint64_t connections = 0;  ///< accepted and served
  std::uint64_t overloaded = 0;   ///< refused by admission control
  std::uint64_t requests = 0;     ///< request lines parsed (any op)
  std::uint64_t bad_requests = 0; ///< lines answered with ok:false
  std::uint64_t runs = 0;         ///< run-op configs + sweep-op cells
  std::uint64_t memory_hits = 0;  ///< answered by a finished run in memory
  std::uint64_t coalesced = 0;    ///< waited for a run in flight
  std::uint64_t store_hits = 0;   ///< loaded from the durable store
  std::uint64_t executed = 0;     ///< simulator executions
};

/// One cached result: the serialized report (shared, immutable) plus the
/// scalar metrics the sweep op reports without re-deserializing.
struct CachedResult {
  std::shared_ptr<const std::string> json;
  double seconds = 0.0;
  double energy_j = 0.0;
  double ed2p = 0.0;
  double gflops = 0.0;
};

/// One daemon instance. start() spawns the accept thread and the worker
/// pool; stop() (or a client's shutdown op) drains and joins everything.
/// Construct -> start() -> wait() is the daemon main loop; tests drive
/// start()/stop() directly.
class Server {
 public:
  explicit Server(ServerConfig config);
  /// Joins all threads (calls stop() if still running).
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the socket and launches the accept thread + workers. Throws
  /// std::runtime_error when the socket cannot be bound.
  void start();

  /// Graceful shutdown: stop accepting, serve the already-queued
  /// connections, join all threads, unlink the Unix socket file.
  /// Idempotent.
  void stop();

  /// Blocks until a client's shutdown op, a request_stop(), or a concurrent
  /// stop() fires, then completes the shutdown (joins everything).
  void wait();

  /// Flags the daemon down without blocking or locking — the only Server
  /// call that is async-signal-safe (one atomic store), so bsr_served's
  /// SIGINT/SIGTERM handler can use it. wait() notices within ~100 ms.
  void request_stop() { shutdown_requested_.store(true); }

  /// True between start() and the completion of stop().
  [[nodiscard]] bool running() const { return running_.load(); }

  /// The bound TCP port (0 when serving a Unix socket).
  [[nodiscard]] std::uint16_t port() const { return port_; }
  /// The Unix socket path ("" when serving TCP).
  [[nodiscard]] const std::string& socket_path() const {
    return config_.socket_path;
  }

  /// Lifetime counters (copied under the stats lock).
  [[nodiscard]] ServeStats stats() const;
  /// Durable-store counters (all zero when no store is mounted).
  [[nodiscard]] StoreStats store_stats() const;
  /// Entries in the result table: finished runs plus runs in flight.
  [[nodiscard]] std::size_t cache_entries() const;

  /// Requests that joined `fingerprint`'s run while it was in flight (0 when
  /// it has no entry). A test's gated runner polls it until N-1 concurrent
  /// requests provably wait for the run.
  [[nodiscard]] std::uint64_t waiters(const std::string& fingerprint) const;

 private:
  void accept_loop();
  void worker_loop();
  void serve_connection(Socket conn);
  /// Dispatches one request line; returns false when the connection should
  /// close (shutdown op).
  bool handle_line(const std::string& line, const Socket& conn);
  /// The run op's reply up to its "report" key, and the cached report that
  /// follows it, sent as it is held instead of copied into the reply.
  std::pair<std::string, std::shared_ptr<const std::string>> handle_run(
      std::string_view config);
  std::string handle_sweep(const Request& req);
  std::string handle_stats();
  std::string handle_metrics();
  /// Adds one to a ServeStats counter and its registry mirror.
  void count(std::uint64_t ServeStats::*stat, common::Counter& counter);

  /// The result for one config, from the table, the store or a run. Returns
  /// it with its source tag ("memory" / "coalesced" / "store" / "executed").
  std::pair<CachedResult, const char*> resolve(const RunConfig& cfg,
                                               const std::string& fingerprint);

  ServerConfig config_;
  std::uint16_t port_ = 0;
  Socket listener_;
  std::unique_ptr<DiskResultStore> store_;

  std::thread accept_thread_;
  std::thread pool_thread_;  // runs ThreadPool::parallel_for over the workers

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<Socket> queue_;
  bool stopping_ = false;  // guarded by queue_mutex_

  // Connections currently being served, so stop() can shutdown(2) their
  // descriptors: a worker blocked reading an idle connection wakes with EOF
  // instead of stalling the join forever.
  std::mutex conns_mutex_;
  std::set<int> active_fds_;

  std::atomic<bool> running_{false};
  std::atomic<bool> shutdown_requested_{false};
  std::mutex shutdown_mutex_;
  std::condition_variable shutdown_cv_;

  /// A finished run as its waiters see it: the result, or the message of
  /// the error the run threw. Each waiter throws its own exception from the
  /// message, so no exception object is shared between threads.
  using Outcome = std::variant<CachedResult, std::string>;
  /// One fingerprint's result: pending while its run is in flight, ready
  /// once it finished. A failed run's entry is erased before its error
  /// reaches the requests that waited for it.
  struct Entry {
    std::shared_future<Outcome> result;
    std::uint64_t joined = 0;  ///< requests that waited for it in flight
  };
  mutable std::mutex results_mutex_;
  std::map<std::string, Entry> results_;

  mutable std::mutex stats_mutex_;
  ServeStats stats_;

  /// ServeStats mirrored onto the process-wide metrics registry
  /// (bsr/observability.hpp): the struct keeps its copy-out API, the
  /// registry gets the same monotone counts plus request-latency
  /// histograms, all sharing one `metrics`-op exposition. References are
  /// resolved once in the constructor; re-registration of the same names
  /// by a second Server in the same process returns the same instruments
  /// (the counts are process-cumulative, as Prometheus counters must be).
  struct Instruments {
    common::Counter& connections;
    common::Counter& overloaded;
    common::Counter& requests;
    common::Counter& bad_requests;
    common::Counter& runs;
    common::Counter& memory_hits;
    common::Counter& coalesced;
    common::Counter& store_hits;
    common::Counter& executed;
    common::Histogram& request_latency;  ///< all ops, seconds
    common::Histogram& run_latency;      ///< run-op resolve path, seconds
    common::Histogram& sweep_latency;    ///< sweep-op full grids, seconds
  };
  Instruments metrics_;
};

}  // namespace bsr::serve
