#include "core/worker_pool.h"

#include <algorithm>

namespace sp::core {

WorkerPool::WorkerPool(unsigned thread_count) {
  if (thread_count == 0) thread_count = std::max(1u, std::thread::hardware_concurrency());
  thread_count_ = std::min(thread_count, 64u);
  // Worker 0 is the calling thread; only 1..thread_count-1 are pool threads.
  workers_.reserve(thread_count_ - 1);
  for (unsigned id = 1; id < thread_count_; ++id) {
    workers_.emplace_back([this, id] { worker_loop(id); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void WorkerPool::worker_loop(unsigned worker_id) {
  std::uint64_t seen = 0;
  std::unique_lock lock(mutex_);
  for (;;) {
    work_cv_.wait(lock, [&] { return stopping_ || generation_ != seen; });
    if (generation_ == seen) return;  // stopping, and no job is pending
    seen = generation_;
    const std::function<void(unsigned)>* job = job_;
    lock.unlock();
    (*job)(worker_id);
    lock.lock();
    if (--running_ == 0) done_cv_.notify_all();
  }
}

void WorkerPool::run(const std::function<void(unsigned)>& job) {
  if (workers_.empty()) {
    job(0);
    return;
  }
  {
    std::lock_guard lock(mutex_);
    job_ = &job;
    ++generation_;
    running_ = static_cast<unsigned>(workers_.size());
  }
  work_cv_.notify_all();
  job(0);
  std::unique_lock lock(mutex_);
  done_cv_.wait(lock, [&] { return running_ == 0; });
}

}  // namespace sp::core
