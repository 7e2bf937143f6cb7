// Reusable fork-join worker pool shared by the parallel engines (the
// detection driver in core/detect_scan.h, SP-Tuner, the serving path)
// and the sp::pipeline StageGraph scheduler.
//
// run() invokes `job(worker_id)` once per worker (ids 0..thread_count-1)
// and returns when every invocation has finished. Worker 0 executes on
// the calling thread, so thread_count == 1 spawns no threads at all and
// runs the job inline. Pool threads persist across run() calls, so
// repeated use (49 snapshot detections, every query_many batch) pays
// thread start-up once.
//
// run() is not reentrant and not thread-safe: callers that share a pool
// across threads must serialize it (SiblingService does so with a mutex
// around its batch path), and a job must not call run() on the pool
// executing it. Jobs must not throw; an escaping exception terminates
// the process.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sp::core {

class WorkerPool {
 public:
  /// `thread_count` 0 picks the hardware concurrency (capped at 64).
  explicit WorkerPool(unsigned thread_count = 0);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Runs `job(worker_id)` on every worker (ids 0..thread_count-1, id 0 on
  /// the calling thread) and returns when all have finished.
  void run(const std::function<void(unsigned)>& job);

  [[nodiscard]] unsigned thread_count() const noexcept { return thread_count_; }

 private:
  void worker_loop(unsigned worker_id);

  unsigned thread_count_;

  // lock-order: 40 core.worker_pool.mutex (innermost engine lock:
  // nests inside serve.service.pool_mutex via query_many → run(); never
  // held while a job executes)
  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  const std::function<void(unsigned)>* job_ = nullptr;
  std::uint64_t generation_ = 0;
  unsigned running_ = 0;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace sp::core
