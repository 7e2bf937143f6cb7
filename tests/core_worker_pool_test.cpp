// Tests for WorkerPool's fork-join run() contract. The pool's threaded
// users (detection, SP-Tuner, the serve batch path, the StageGraph
// scheduler) race it under TSan in scripts/tier1.sh stage 2.
#include "core/worker_pool.h"

#include <gtest/gtest.h>

#include <mutex>
#include <set>

namespace sp::core {
namespace {

TEST(WorkerPoolTask, ForkJoinRunsEveryWorkerExactlyOnce) {
  WorkerPool pool(4);
  ASSERT_EQ(pool.thread_count(), 4u);
  std::mutex mutex;
  std::multiset<unsigned> ids;
  pool.run([&](unsigned id) {
    std::lock_guard lock(mutex);
    ids.insert(id);
  });
  EXPECT_EQ(ids, (std::multiset<unsigned>{0, 1, 2, 3}));
}

}  // namespace
}  // namespace sp::core
