#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <memory>

namespace bsr {

namespace {
thread_local bool t_inside_pool_worker = false;
}  // namespace

// Shared-ownership batch descriptor: every participant (workers + caller)
// holds a shared_ptr, so no one can observe a destroyed batch even while the
// caller's stack frame unwinds.
struct ThreadPool::Batch {
  std::size_t count = 0;
  std::size_t grain = 1;
  const std::function<void(std::size_t, std::size_t)>* range_fn = nullptr;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> completed{0};
};

ThreadPool::ThreadPool(std::size_t num_threads) {
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lk(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  done_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::drain(const std::shared_ptr<Batch>& b) {
  for (;;) {
    const std::size_t begin = b->next.fetch_add(b->grain);
    if (begin >= b->count) return;
    const std::size_t end = std::min(begin + b->grain, b->count);
    (*b->range_fn)(begin, end);
    if (b->completed.fetch_add(end - begin) + (end - begin) == b->count) {
      // Last chunk done: retire the batch and wake everyone parked on it.
      std::lock_guard lk(mu_);
      if (batch_ == b) batch_ = nullptr;
      done_cv_.notify_all();
    }
  }
}

void ThreadPool::worker_loop() {
  t_inside_pool_worker = true;
  for (;;) {
    std::shared_ptr<Batch> b;
    {
      std::unique_lock lk(mu_);
      work_cv_.wait(lk, [&] { return stop_ || batch_ != nullptr; });
      if (stop_) return;
      b = batch_;
    }
    drain(b);
    // The claim counter is exhausted, but other participants may still be
    // executing chunks; park until the batch retires so we cannot re-grab it.
    {
      std::unique_lock lk(mu_);
      done_cv_.wait(lk, [&] { return stop_ || batch_ != b; });
      if (stop_) return;
    }
  }
}

void ThreadPool::parallel_ranges(
    std::size_t count, const std::function<void(std::size_t, std::size_t)>& fn) {
  if (count == 0) return;
  if (workers_.empty() || t_inside_pool_worker || count == 1) {
    fn(0, count);
    return;
  }
  auto batch = std::make_shared<Batch>();
  batch->count = count;
  batch->grain = std::max<std::size_t>(1, count / (workers_.size() * 4));
  batch->range_fn = &fn;
  {
    std::lock_guard lk(mu_);
    batch_ = batch;
  }
  work_cv_.notify_all();
  drain(batch);  // the calling thread participates
  // Wait for this batch's own chunks, not for the slot to change: a nested
  // call from this thread, or a second external caller, replaces batch_
  // while workers may still be running chunks of this one.
  std::unique_lock lk(mu_);
  done_cv_.wait(lk, [&] { return batch->completed.load() == batch->count; });
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& fn) {
  parallel_ranges(count, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
  });
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool(std::min<std::size_t>(
      16, std::max<std::size_t>(1, std::thread::hardware_concurrency())));
  return pool;
}

}  // namespace bsr
