// A small work-sharing thread pool used by the numeric kernels.
//
// The heterogeneous *scheduling* in this library is simulated (see sched/),
// but the linear-algebra substrate does real math, and GEMM-class kernels are
// parallelized across host cores through this pool. One pool is shared
// process-wide (ThreadPool::shared()) so nested kernels do not oversubscribe.
#pragma once

#include <condition_variable>
#include <memory>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace bsr {

class ThreadPool {
 public:
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Run fn(i) for i in [0, count), distributing contiguous chunks across the
  /// pool; blocks until all iterations complete. Reentrant calls from inside a
  /// worker fall back to serial execution to avoid deadlock. Nested calls
  /// from the participating caller thread and concurrent calls from other
  /// threads are parallel, and each still returns only after its own
  /// iterations have all run.
  void parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn);

  /// Like parallel_for but hands each worker a [begin, end) range.
  void parallel_ranges(std::size_t count,
                       const std::function<void(std::size_t begin, std::size_t end)>& fn);

  /// Process-wide pool sized to the hardware concurrency (capped at 16).
  static ThreadPool& shared();

 private:
  struct Batch;

  void worker_loop();
  void drain(const std::shared_ptr<Batch>& batch);

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::shared_ptr<Batch> batch_;  // guarded by mu_
  bool stop_ = false;
};

}  // namespace bsr
