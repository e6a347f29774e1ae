#include "serve/server.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <future>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <tuple>
#include <utility>
#include <variant>
#include <vector>

#include "bsr/sweep.hpp"
#include "common/build_info.hpp"
#include "common/thread_pool.hpp"
#include "serve/protocol.hpp"
#include "serve/report_json.hpp"

namespace bsr::serve {

namespace {

/// The longest request line the daemon buffers. The largest request the
/// repo's clients send (a 64-device rack config with variability and faults)
/// is under 1 KB; a longer line is refused and its connection closed.
constexpr std::size_t kMaxRequestBytes = std::size_t{1} << 20;

/// Builds the cached-result record for a freshly available report.
CachedResult make_cached(const core::RunReport& report, std::string json) {
  CachedResult e;
  e.json = std::make_shared<const std::string>(std::move(json));
  e.seconds = report.seconds();
  e.energy_j = report.total_energy_j();
  e.ed2p = report.ed2p();
  e.gflops = report.gflops();
  return e;
}

/// The message of the exception being handled.
std::string current_error_message() {
  try {
    throw;
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown error";
  }
}

/// Seconds elapsed on the operational (steady) clock — never the simulated
/// SimTime axis; request latency is a property of the daemon, not the run.
double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

Server::Server(ServerConfig config)
    : config_(std::move(config)),
      metrics_{[] {
        auto& r = common::MetricsRegistry::global();
        const auto buckets = common::Histogram::default_latency_buckets_s();
        return Instruments{
            r.counter("bsr_serve_connections_total",
                      "connections accepted and served"),
            r.counter("bsr_serve_overloaded_total",
                      "connections refused by admission control"),
            r.counter("bsr_serve_requests_total",
                      "request lines parsed (any op)"),
            r.counter("bsr_serve_bad_requests_total",
                      "request lines answered with ok:false"),
            r.counter("bsr_serve_runs_total",
                      "run-op configs plus sweep-op cells resolved"),
            r.counter("bsr_serve_memory_hits_total",
                      "lookups answered by a finished run in memory"),
            r.counter("bsr_serve_coalesced_total",
                      "lookups that waited for a run in flight"),
            r.counter("bsr_serve_store_hits_total",
                      "lookups loaded from the durable store"),
            r.counter("bsr_serve_executed_total",
                      "lookups that executed the simulator"),
            r.histogram("bsr_serve_request_latency_seconds",
                        "wall time to serve one request line, any op",
                        buckets),
            r.histogram("bsr_serve_run_latency_seconds",
                        "wall time to serve one run op", buckets),
            r.histogram("bsr_serve_sweep_latency_seconds",
                        "wall time to serve one sweep op (whole grid)",
                        buckets),
        };
      }()} {
  if (config_.workers < 1) {
    throw std::invalid_argument("serve: need workers >= 1");
  }
  if (config_.queue_depth < 1) {
    throw std::invalid_argument("serve: need queue_depth >= 1");
  }
  if (!config_.runner) {
    config_.runner = [](const RunConfig& cfg) { return bsr::run(cfg); };
  }
  if (!config_.store_dir.empty()) {
    store_ = std::make_unique<DiskResultStore>(config_.store_dir);
  }
}

Server::~Server() { stop(); }

void Server::count(std::uint64_t ServeStats::*stat, common::Counter& counter) {
  {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    ++(stats_.*stat);
  }
  counter.inc();
}

void Server::start() {
  if (running_.load()) throw std::logic_error("serve: already started");
  if (config_.socket_path.empty()) {
    listener_ = listen_tcp_localhost(config_.tcp_port, /*backlog=*/128, &port_);
  } else {
    listener_ = listen_unix(config_.socket_path, /*backlog=*/128);
  }
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    stopping_ = false;
  }
  running_.store(true);
  accept_thread_ = std::thread([this] { accept_loop(); });
  // The connection workers run as one long parallel_for on the repo's
  // work-sharing pool: count == workers and grain 1, so each claimed index
  // becomes one persistent worker loop. The launcher thread just hosts the
  // blocking parallel_for call.
  pool_thread_ = std::thread([this] {
    ThreadPool pool(static_cast<std::size_t>(config_.workers));
    pool.parallel_for(static_cast<std::size_t>(config_.workers),
                      [this](std::size_t) { worker_loop(); });
  });
}

void Server::stop() {
  if (!running_.exchange(false)) return;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  // Wake the accept thread: on Linux a blocked accept() on a shut-down
  // listener fails with EINVAL, which accept_one() reads as "no more
  // connections". Closing the fd from another thread does not reliably
  // unblock it, and a throwaway connection cannot reach a socket path that
  // is already gone.
  ::shutdown(listener_.fd(), SHUT_RDWR);
  // Unblock workers parked in recv on idle connections: half-close their
  // descriptors so read_line() sees EOF and the worker drains out.
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    for (const int fd : active_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (pool_thread_.joinable()) pool_thread_.join();
  listener_.close();
  if (!config_.socket_path.empty()) {
    ::unlink(config_.socket_path.c_str());
  }
  {
    std::lock_guard<std::mutex> lock(shutdown_mutex_);
    shutdown_requested_.store(true);
  }
  shutdown_cv_.notify_all();
}

void Server::wait() {
  {
    std::unique_lock<std::mutex> lock(shutdown_mutex_);
    // Bounded waits, not a pure cv.wait: request_stop() is async-signal-safe
    // and therefore cannot notify the condition variable.
    while (!shutdown_requested_.load()) {
      shutdown_cv_.wait_for(lock, std::chrono::milliseconds(100));
    }
  }
  stop();
}

void Server::accept_loop() {
  for (;;) {
    Socket conn = accept_one(listener_);
    std::unique_lock<std::mutex> lock(queue_mutex_);
    if (stopping_) return;  // conn (possibly the wake-up dummy) just closes
    if (!conn.valid()) return;
    if (queue_.size() >= static_cast<std::size_t>(config_.queue_depth)) {
      lock.unlock();
      count(&ServeStats::overloaded, metrics_.overloaded);
      // Refused by admission control: one explicit backpressure line, then
      // close. Never enqueue beyond queue_depth.
      try {
        conn.send_all({overloaded_response(), "\n"});
      } catch (const std::exception&) {
        // Peer vanished before reading the rejection; nothing to do.
      }
      continue;
    }
    queue_.push_back(std::move(conn));
    lock.unlock();
    queue_cv_.notify_one();
  }
}

void Server::worker_loop() {
  for (;;) {
    Socket conn;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      conn = std::move(queue_.front());
      queue_.pop_front();
    }
    count(&ServeStats::connections, metrics_.connections);
    const int fd = conn.fd();
    {
      std::lock_guard<std::mutex> lock(conns_mutex_);
      active_fds_.insert(fd);
    }
    serve_connection(std::move(conn));
    {
      std::lock_guard<std::mutex> lock(conns_mutex_);
      active_fds_.erase(fd);
    }
  }
}

void Server::serve_connection(Socket conn) {
  try {
    LineReader reader(conn, kMaxRequestBytes);
    while (std::optional<std::string> line = reader.read_line()) {
      if (line->empty()) continue;
      if (!handle_line(*line, conn)) break;
    }
  } catch (const std::length_error& e) {
    // An oversized request line: one refusal, then the connection closes
    // with the rest of the line unread.
    count(&ServeStats::bad_requests, metrics_.bad_requests);
    try {
      conn.send_all({error_response(e.what(), /*retry=*/false), "\n"});
    } catch (const std::exception&) {
      // Peer vanished before reading the refusal; nothing to do.
    }
  } catch (const std::exception& e) {
    // A read/write error mid-connection only kills this connection.
    std::fprintf(stderr, "serve: connection dropped: %s\n", e.what());
  }
}

bool Server::handle_line(const std::string& line, const Socket& conn) {
  count(&ServeStats::requests, metrics_.requests);
  const auto t0 = std::chrono::steady_clock::now();
  std::string op;
  std::string response;
  // A run's cached report, sent between `response` and its closing brace.
  std::shared_ptr<const std::string> report;
  bool keep_open = true;
  bool shutdown = false;
  try {
    const Request req = parse_request(line);
    op = req.op;
    if (req.op == "run") {
      std::tie(response, report) = handle_run(req.config);
    } else if (req.op == "sweep") {
      response = handle_sweep(req);
    } else if (req.op == "stats") {
      response = handle_stats();
    } else if (req.op == "metrics") {
      response = handle_metrics();
    } else {  // "shutdown" (parse_request rejects everything else)
      JsonWriter w;
      w.obj_open();
      w.key("ok").value(true);
      w.key("op").value("shutdown");
      w.obj_close();
      response = w.take();
      keep_open = false;
      shutdown = true;
    }
  } catch (const std::exception& e) {
    count(&ServeStats::bad_requests, metrics_.bad_requests);
    response = error_response(e.what(), /*retry=*/false);
  }
  const double elapsed = seconds_since(t0);
  metrics_.request_latency.observe(elapsed);
  if (op == "run") {
    metrics_.run_latency.observe(elapsed);
  } else if (op == "sweep") {
    metrics_.sweep_latency.observe(elapsed);
  }
  if (report != nullptr) {
    conn.send_all({response, *report, "}\n"});
  } else {
    conn.send_all({response, "\n"});
  }
  if (shutdown) {
    // Flag the daemon down; the actual joins happen in wait()/stop() on a
    // non-worker thread. Mark stopping first so idle workers drain out.
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      stopping_ = true;
    }
    queue_cv_.notify_all();
    {
      std::lock_guard<std::mutex> lock(shutdown_mutex_);
      shutdown_requested_.store(true);
    }
    shutdown_cv_.notify_all();
  }
  return keep_open;
}

std::pair<CachedResult, const char*> Server::resolve(
    const RunConfig& cfg, const std::string& fingerprint) {
  count(&ServeStats::runs, metrics_.runs);
  std::shared_future<Outcome> result;
  // Engaged for the first request for fp, which loads or runs it and
  // publishes the outcome to every request that waits meanwhile.
  std::optional<std::promise<Outcome>> first;
  bool ready = false;
  {
    const std::lock_guard<std::mutex> lock(results_mutex_);
    const auto [it, inserted] = results_.try_emplace(fingerprint);
    Entry& entry = it->second;
    if (inserted) {
      entry.result = first.emplace().get_future().share();
    } else {
      ready = entry.result.wait_for(std::chrono::seconds(0)) ==
              std::future_status::ready;
      if (!ready) ++entry.joined;
      result = entry.result;
    }
  }
  if (!first) {
    // A failed run's error is thrown anew in every request that waited.
    const Outcome& outcome = result.get();
    if (const std::string* error = std::get_if<std::string>(&outcome)) {
      throw std::runtime_error(*error);
    }
    CachedResult hit = std::get<CachedResult>(outcome);
    if (ready) {
      count(&ServeStats::memory_hits, metrics_.memory_hits);
    } else {
      count(&ServeStats::coalesced, metrics_.coalesced);
    }
    return {std::move(hit), ready ? "memory" : "coalesced"};
  }

  CachedResult value;
  bool from_store = false;
  try {
    std::optional<StoredRecord> record;
    if (store_ != nullptr) record = store_->load_record(fingerprint);
    if (record) {
      // One parse gives both the metrics and the response bytes (the stored
      // report re-emitted verbatim).
      value = make_cached(record->report, std::move(record->json));
      from_store = true;
    } else {
      const core::RunReport report = config_.runner(cfg);
      value = make_cached(report, serialize_report(report));
      if (store_ != nullptr) store_->save_serialized(fingerprint, *value.json);
    }
  } catch (...) {
    {
      const std::lock_guard<std::mutex> lock(results_mutex_);
      results_.erase(fingerprint);
    }
    // The waiters get the message; this request keeps the exception.
    first->set_value(current_error_message());
    throw;
  }
  first->set_value(value);
  if (from_store) {
    count(&ServeStats::store_hits, metrics_.store_hits);
  } else {
    count(&ServeStats::executed, metrics_.executed);
  }
  return {std::move(value), from_store ? "store" : "executed"};
}

std::pair<std::string, std::shared_ptr<const std::string>> Server::handle_run(
    std::string_view config) {
  const RunConfig cfg =
      config.empty() ? RunConfig{} : config_from_json(config);
  cfg.validate();
  const std::string fingerprint = cfg.fingerprint();
  auto [entry, source] = resolve(cfg, fingerprint);

  JsonWriter w;
  w.obj_open();
  w.key("ok").value(true);
  w.key("op").value("run");
  w.key("source").value(source);
  w.key("fingerprint").value(fingerprint);
  w.key("report");
  return {w.take(), std::move(entry.json)};
}

std::string Server::handle_sweep(const Request& req) {
  const RunConfig base =
      req.config.empty() ? RunConfig{} : config_from_json(req.config);

  // Axes expand outermost-first in the order the request lists them (the
  // parser preserves member order).
  std::vector<Axis> axes;
  if (!req.axes.empty()) {
    const JsonValue axes_json = JsonValue::parse(req.axes);
    for (const auto& [name, values] : axes_json.members()) {
      const std::vector<JsonValue>& items = values.items();
      Axis axis;
      if (name == "strategy" || name == "abft") {
        std::vector<std::string> keys;
        for (const JsonValue& v : items) keys.push_back(v.as_string());
        axis = name == "strategy" ? strategy_axis(keys) : abft_axis(keys);
      } else if (name == "n") {
        std::vector<std::int64_t> ns;
        for (const JsonValue& v : items) ns.push_back(v.to_int64());
        axis = size_axis(ns);  // re-tunes the block per size
      } else if (name == "r") {
        // Labelled with the request's own number token, not ratio_axis's %g.
        axis.name = name;
        for (const JsonValue& v : items) {
          const double r = v.to_double();
          axis.points.push_back({v.number_token(), [r](RunConfig& c) {
                                   c.reclamation_ratio = r;
                                 }});
        }
      } else if (!items.empty()) {
        throw std::runtime_error("unknown sweep axis \"" + name +
                                 "\" (known axes: strategy, n, r, abft)");
      }
      if (axis.points.empty()) {
        throw std::runtime_error("sweep axis \"" + name + "\" has no values");
      }
      axes.push_back(std::move(axis));
    }
  }

  std::size_t cells = 1;
  for (const Axis& axis : axes) cells *= axis.points.size();
  constexpr std::size_t kMaxCells = 4096;
  if (cells > kMaxCells) {
    throw std::runtime_error("sweep expands to " + std::to_string(cells) +
                             " cells (limit " + std::to_string(kMaxCells) +
                             ")");
  }

  JsonWriter w;
  w.obj_open();
  w.key("ok").value(true);
  w.key("op").value("sweep");
  w.key("cells").value(static_cast<std::int64_t>(cells));
  w.key("rows").arr_open();
  for (std::size_t index = 0; index < cells; ++index) {
    RunConfig cfg = base;
    std::vector<std::pair<std::string, std::string>> coords;
    std::size_t stride = cells;
    for (const Axis& axis : axes) {
      stride /= axis.points.size();
      const AxisPoint& point =
          axis.points[(index / stride) % axis.points.size()];
      coords.emplace_back(axis.name, point.label);
      point.apply(cfg);
    }
    cfg.validate();
    const std::string fingerprint = cfg.fingerprint();
    const auto [entry, source] = resolve(cfg, fingerprint);
    w.obj_open();
    w.key("coords").obj_open();
    for (const auto& [axis, label] : coords) w.key(axis).value(label);
    w.obj_close();
    w.key("fingerprint").value(fingerprint);
    w.key("source").value(source);
    w.key("time_s").value(entry.seconds);
    w.key("energy_j").value(entry.energy_j);
    w.key("ed2p").value(entry.ed2p);
    w.key("gflops").value(entry.gflops);
    w.obj_close();
  }
  w.arr_close();
  w.obj_close();
  return w.take();
}

std::string Server::handle_stats() {
  ServeStats s;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    s = stats_;
  }
  JsonWriter w;
  w.obj_open();
  w.key("ok").value(true);
  w.key("op").value("stats");
  w.key("connections").value(static_cast<std::int64_t>(s.connections));
  w.key("overloaded").value(static_cast<std::int64_t>(s.overloaded));
  w.key("requests").value(static_cast<std::int64_t>(s.requests));
  w.key("bad_requests").value(static_cast<std::int64_t>(s.bad_requests));
  w.key("runs").value(static_cast<std::int64_t>(s.runs));
  w.key("memory_hits").value(static_cast<std::int64_t>(s.memory_hits));
  w.key("coalesced").value(static_cast<std::int64_t>(s.coalesced));
  w.key("store_hits").value(static_cast<std::int64_t>(s.store_hits));
  w.key("executed").value(static_cast<std::int64_t>(s.executed));
  w.key("cache_entries").value(static_cast<std::int64_t>(cache_entries()));
  w.key("workers").value(config_.workers);
  w.key("queue_depth").value(config_.queue_depth);
  if (store_ != nullptr) {
    const StoreStats st = store_->stats();
    w.key("store").obj_open();
    w.key("hits").value(static_cast<std::int64_t>(st.hits));
    w.key("misses").value(static_cast<std::int64_t>(st.misses));
    w.key("rejected").value(static_cast<std::int64_t>(st.rejected));
    w.key("saves").value(static_cast<std::int64_t>(st.saves));
    w.obj_close();
  }
  w.obj_close();
  return w.take();
}

std::string Server::handle_metrics() {
  // Point-in-time values are gauges refreshed here, at sampling time.
  auto& reg = common::MetricsRegistry::global();
  reg.gauge("bsr_build_info",
            "constant 1; the build stamp is this help line: " +
                common::build_info_line("bsr"))
      .set(1.0);
  reg.gauge("bsr_serve_cache_entries",
            "result-table entries: finished runs and runs in flight")
      .set(static_cast<double>(cache_entries()));
  reg.gauge("bsr_serve_workers", "configured connection-serving workers")
      .set(static_cast<double>(config_.workers));
  reg.gauge("bsr_serve_queue_depth",
            "connections allowed to wait before admission control refuses")
      .set(static_cast<double>(config_.queue_depth));
  if (store_ != nullptr) {
    const StoreStats st = store_->stats();
    reg.gauge("bsr_serve_store_record_hits", "this store's valid-record loads")
        .set(static_cast<double>(st.hits));
    reg.gauge("bsr_serve_store_record_misses", "this store's load misses")
        .set(static_cast<double>(st.misses));
    reg.gauge("bsr_serve_store_record_rejected",
              "this store's loud rejects (corrupt/stale/mismatched records)")
        .set(static_cast<double>(st.rejected));
    reg.gauge("bsr_serve_store_record_saves", "this store's records written")
        .set(static_cast<double>(st.saves));
  }

  JsonWriter w;
  w.obj_open();
  w.key("ok").value(true);
  w.key("op").value("metrics");
  w.key("version").value(common::build_info().version);
  w.key("exposition").value(reg.exposition());
  w.obj_close();
  return w.take();
}

ServeStats Server::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

StoreStats Server::store_stats() const {
  return store_ != nullptr ? store_->stats() : StoreStats{};
}

std::size_t Server::cache_entries() const {
  const std::lock_guard<std::mutex> lock(results_mutex_);
  return results_.size();
}

std::uint64_t Server::waiters(const std::string& fingerprint) const {
  const std::lock_guard<std::mutex> lock(results_mutex_);
  const auto it = results_.find(fingerprint);
  return it == results_.end() ? 0 : it->second.joined;
}

}  // namespace bsr::serve
