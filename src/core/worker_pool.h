// Reusable worker pool shared by the parallel engines (the detection
// driver in core/detect_scan.h, SP-Tuner, the serving path) with two
// dispatch modes over one set of persistent threads:
//
//  * Fork-join — run() invokes `job(worker_id)` once per worker (ids
//    0..thread_count-1) and returns when every invocation has finished.
//    Worker 0 executes on the calling thread, so thread_count == 1 spawns
//    no threads at all. This is the parallel_for-style mode the detection
//    and SP-Tuner engines use.
//  * Task queue — submit() enqueues an independent task; pool threads
//    drain the queue in FIFO order. This is the mode the sp::pipeline
//    StageGraph scheduler dispatches DAG stages on, so campaign stages
//    and parallel_for users share one pool. With no pool threads
//    (thread_count == 1) a submitted task runs inline on the calling
//    thread — submit() is then synchronous, which keeps single-threaded
//    runs deterministic and dependency-ordered.
//
// Pool threads persist across dispatches, so repeated use (49 snapshot
// detections, every query_many batch, hundreds of campaign stages) pays
// thread start-up once.
//
// Sharing rules:
//  * run() is not reentrant and not thread-safe: callers that share a
//    pool across threads must serialize fork-join dispatch (SiblingService
//    does so with a mutex around its batch path). A run() issued while
//    queued tasks are executing waits for the busy workers to pick up the
//    job after their current task.
//  * submit() is thread-safe (tasks may submit further tasks).
//  * A task must not issue a fork-join run() or a blocking wait_idle() on
//    the pool executing it — every worker could end up waiting for the
//    others and deadlock. Tasks needing inner parallelism use a different
//    pool or run serial.
//  * Tasks must not throw; an escaping exception terminates the process.
//
// Destruction drains the queue: every task submitted before ~WorkerPool
// still runs.
#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace sp::core {

class WorkerPool {
 public:
  /// `thread_count` 0 picks the hardware concurrency (capped at 64, like
  /// SpTunerMs).
  explicit WorkerPool(unsigned thread_count = 0);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Runs `job(worker_id)` on every worker (ids 0..thread_count-1, id 0 on
  /// the calling thread) and returns when all have finished.
  void run(const std::function<void(unsigned)>& job);

  /// Enqueues one independent task for execution by a pool thread. When
  /// the pool has no threads (thread_count == 1) the task runs inline
  /// before submit() returns.
  void submit(std::function<void()> task);

  /// Blocks until the task queue is empty and no submitted task is still
  /// executing. Does not wait for fork-join jobs (run() already does).
  void wait_idle();

  [[nodiscard]] unsigned thread_count() const noexcept { return thread_count_; }

 private:
  /// A queued task plus its enqueue instant, so dequeue can report the
  /// queue wait to the `worker_pool.task_wait_us` histogram.
  struct QueuedTask {
    std::function<void()> fn;
    std::chrono::steady_clock::time_point enqueued;
  };

  void worker_loop(unsigned worker_id);
  void run_task(std::function<void()>& task,
                std::chrono::steady_clock::time_point enqueued);

  unsigned thread_count_;

  // lock-order: 40 core.worker_pool.mutex (innermost engine lock:
  // nests inside serve.service.pool_mutex via query_many → run(); never
  // held while a job or task body executes)
  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::condition_variable idle_cv_;
  const std::function<void(unsigned)>* job_ = nullptr;
  std::uint64_t generation_ = 0;
  unsigned running_ = 0;
  std::deque<QueuedTask> tasks_;
  unsigned active_tasks_ = 0;
  bool stopping_ = false;
  std::vector<std::thread> workers_;

  // Process-wide observability (obs::MetricsRegistry::global()): every
  // pool shares one set of metrics — the fleet view, not per-instance.
  obs::Gauge queue_depth_;        // worker_pool.queue_depth
  obs::Histogram task_wait_us_;   // enqueue → dequeue
  obs::Histogram task_run_us_;    // dequeue → completion
};

}  // namespace sp::core
