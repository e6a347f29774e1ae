// Discrete-event engine on the simulated integer-nanosecond clock.
//
// The single-node pipeline advances in lockstep — one iteration at a time,
// both lanes barriered at the iteration boundary. At cluster scale that
// barrier would serialize devices that have no data dependency on each other,
// so the cluster engine schedules *events*: task completions fire handlers
// that check successor readiness and enqueue the next completions. Events at
// equal simulated times fire in schedule order (a monotone sequence number
// breaks ties), which makes every run bitwise deterministic regardless of how
// the surrounding sweep is threaded.
//
// BasicEventEngine<Payload> stores events in one flat vector arranged as a
// binary min-heap over (time, seq). With a trivially-copyable Payload (the
// cluster engine's {kind, k, d} record) an event is a few words in
// preallocated storage — scheduling never allocates once reserve() has been
// called, where a std::function-per-event design pays type-erasure dispatch
// on every fire.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/sim_time.hpp"

namespace bsr::cluster {

template <typename Payload>
class BasicEventEngine {
 public:
  /// Schedules `payload` at absolute simulated time `t`. Scheduling in the
  /// past (t < now()) is clamped to now(): the event fires next, after
  /// already queued events of the same time.
  void schedule_at(SimTime t, Payload payload) {
    heap_.push_back(Event{max(t, now_), next_seq_++, std::move(payload)});
    std::push_heap(heap_.begin(), heap_.end(), later);
  }
  void schedule_after(SimTime delay, Payload payload) {
    schedule_at(now_ + delay, std::move(payload));
  }

  /// Preallocates flat storage for `n` simultaneously pending events, so the
  /// steady-state schedule/fire cycle never touches the allocator.
  void reserve(std::size_t n) { heap_.reserve(n); }

  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] std::size_t pending() const { return heap_.size(); }
  [[nodiscard]] std::uint64_t processed() const { return processed_; }

  /// Drains the queue, invoking `fire(payload)` for each event in (time, seq)
  /// order and advancing now() monotonically; returns the time of the last
  /// processed event (the makespan when the graph ran to completion). `fire`
  /// may schedule further events.
  template <typename Fire>
  SimTime run(Fire&& fire) {
    while (!heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end(), later);
      Event ev = std::move(heap_.back());
      heap_.pop_back();
      now_ = ev.time;
      ++processed_;
      fire(ev.payload);
    }
    return now_;
  }

 private:
  struct Event {
    SimTime time;
    std::uint64_t seq = 0;  ///< tie-break: equal-time events fire in order
    Payload payload;
  };
  /// Min-heap ordering over (time, seq).
  static bool later(const Event& a, const Event& b) {
    if (a.time != b.time) return b.time < a.time;
    return b.seq < a.seq;
  }

  std::vector<Event> heap_;
  SimTime now_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
};

}  // namespace bsr::cluster
