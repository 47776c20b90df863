//===- support/ThreadPool.h - Fixed worker thread pool ---------*- C++ -*-===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed pool of worker threads with a futures-based submit API. The
/// allocator's work units — whole functions in a module, and the two
/// register-class graphs inside one function — are independent, so the
/// pool imposes no ordering; callers that need deterministic output
/// collect futures in submission order (see \c allocateModule).
///
/// Submitting from inside a worker is not supported (a task that blocks
/// on a future of the same pool can deadlock); the allocator keeps its
/// nested per-class parallelism on plain threads instead.
///
//===----------------------------------------------------------------------===//

#ifndef RA_SUPPORT_THREADPOOL_H
#define RA_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

namespace ra {

/// Fixed-size worker pool. Threads start in the constructor and join in
/// the destructor; queued tasks all run before shutdown completes.
class ThreadPool {
public:
  /// The most threads a command-line flag may ask for: rac --jobs,
  /// racd --workers, and the bench binaries' thread counts. Each is started up front, so the cap is checked when the
  /// flag is parsed, before any thread exists.
  static constexpr unsigned MaxThreads = 256;

  /// Starts \p NumThreads workers; 0 means one per hardware thread.
  explicit ThreadPool(unsigned NumThreads = 0);

  /// Drains the queue and joins every worker.
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  unsigned numThreads() const { return Workers.size(); }

  /// Enqueues \p Fn and returns a future for its result. Tasks may run
  /// in any order and on any worker. A task that throws never takes a
  /// worker down: the exception is captured by the packaged_task and
  /// rethrown from future::get() on the collecting thread, and the
  /// worker moves on to the next queued task.
  template <typename FnT>
  auto submit(FnT &&Fn) -> std::future<std::invoke_result_t<FnT>> {
    using ResultT = std::invoke_result_t<FnT>;
    auto Task = std::make_shared<std::packaged_task<ResultT()>>(
        std::forward<FnT>(Fn));
    std::future<ResultT> Result = Task->get_future();
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      Queue.push([Task] { (*Task)(); });
    }
    WakeWorker.notify_one();
    return Result;
  }

  /// Clamps a requested job count: 0 -> hardware concurrency, and never
  /// less than 1 (hardware_concurrency may report 0).
  static unsigned resolveJobs(unsigned Requested);

private:
  void workerLoop();

  std::vector<std::thread> Workers;
  std::queue<std::function<void()>> Queue;
  std::mutex Mutex;
  std::condition_variable WakeWorker;
  bool Stopping = false;
};

} // namespace ra

#endif // RA_SUPPORT_THREADPOOL_H
