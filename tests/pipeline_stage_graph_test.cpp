// StageGraph scheduler: ordering, failure containment, cycle detection,
// observer delivery — and the concurrency stress the TSan stage runs.
#include "pipeline/stage_graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "core/worker_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sp::pipeline {
namespace {

TEST(PipelineStageGraph, ExecutionsLandAsTraceSpans) {
  obs::TraceRecorder recorder;
  obs::TraceRecorder::set_active(&recorder);
  StageGraph graph;
  const auto a = graph.add("evolve[2024-09]", {}, [] { return StageOutcome::success(); });
  graph.add("detect[2024-09]", {a}, [] { return StageOutcome::success(); });
  core::WorkerPool pool(2);
  EXPECT_TRUE(graph.run(pool));
  obs::TraceRecorder::set_active(nullptr);

  std::set<std::string> names;
  for (const auto& event : recorder.events()) {
    EXPECT_EQ(event.category, "stage");
    names.insert(event.name);
  }
  EXPECT_EQ(names, (std::set<std::string>{"evolve[2024-09]", "detect[2024-09]"}));
}

TEST(PipelineStageGraph, DiamondRunsInTopologicalOrderOnSerialPool) {
  StageGraph graph;
  std::vector<std::string> order;
  const auto body = [&order](std::string name) {
    return [&order, name = std::move(name)] {
      order.push_back(name);
      return StageOutcome::success();
    };
  };
  const auto a = graph.add("a", {}, body("a"));
  const auto b = graph.add("b", {a}, body("b"));
  const auto c = graph.add("c", {a}, body("c"));
  graph.add("d", {b, c}, body("d"));

  core::WorkerPool pool(1);
  EXPECT_TRUE(graph.run(pool));
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order.front(), "a");
  EXPECT_EQ(order.back(), "d");
  for (const StageResult& result : graph.results()) {
    EXPECT_EQ(result.status, StageStatus::Done);
    EXPECT_GT(result.peak_rss_kb, 0);
  }
}

// Stages run in the order they were added, not depth-first: b1 runs
// before a1's dependent a2. For a campaign this is month by month.
TEST(PipelineStageGraph, SerialPoolRunsStagesInAddOrder) {
  StageGraph graph;
  std::vector<std::string> order;
  const auto body = [&order](std::string name) {
    return [&order, name = std::move(name)] {
      order.push_back(name);
      return StageOutcome::success();
    };
  };
  const auto a1 = graph.add("a1", {}, body("a1"));
  const auto b1 = graph.add("b1", {}, body("b1"));
  graph.add("a2", {a1}, body("a2"));
  graph.add("b2", {b1}, body("b2"));

  core::WorkerPool pool(1);
  EXPECT_TRUE(graph.run(pool));
  EXPECT_EQ(order, (std::vector<std::string>{"a1", "b1", "a2", "b2"}));
}

// Every worker drains the graph, the calling thread included, so a pool
// of N runs N independent stages at once. Each stage waits (up to 2 s)
// for the peak concurrency to reach N, then records it.
TEST(PipelineStageGraph, PoolOfNRunsNStagesAtOnce) {
  constexpr int kWorkers = 4;
  StageGraph graph;
  std::mutex mutex;
  std::condition_variable changed;
  int active = 0;
  int peak = 0;
  std::vector<int> peaks;
  for (int i = 0; i < kWorkers; ++i) {
    graph.add("s" + std::to_string(i), {}, [&] {
      std::unique_lock lock(mutex);
      peak = std::max(peak, ++active);
      changed.notify_all();
      changed.wait_for(lock, std::chrono::seconds(2), [&] { return peak == kWorkers; });
      peaks.push_back(peak);
      --active;
      return StageOutcome::success();
    });
  }
  core::WorkerPool pool(kWorkers);
  EXPECT_TRUE(graph.run(pool));
  EXPECT_EQ(peaks, std::vector<int>(kWorkers, kWorkers));
}

TEST(PipelineStageGraph, StageWaitHistogramGainsOneSamplePerStageThatRan) {
  const obs::Histogram waits =
      obs::MetricsRegistry::global().histogram("pipeline.stage_wait_us");
  const std::uint64_t before = obs::HistogramSnapshot::of(waits).count;

  StageGraph graph;
  const auto root = graph.add("root", {}, [] { return StageOutcome::success(); });
  const auto bad = graph.add("bad", {root}, [] { return StageOutcome::failure("no"); });
  graph.add("doomed", {bad}, [] { return StageOutcome::success(); });  // never runs
  graph.add("cached", {root}, [] { return StageOutcome::hit(); });
  core::WorkerPool pool(2);
  EXPECT_FALSE(graph.run(pool));

  EXPECT_EQ(obs::HistogramSnapshot::of(waits).count - before, 3u);  // root, bad, cached
}

TEST(PipelineStageGraph, ChainsStayOrderedAcrossWorkers) {
  constexpr int kChains = 4;
  constexpr int kLength = 12;
  StageGraph graph;
  std::mutex mutex;
  std::vector<std::vector<int>> seen(kChains);
  for (int chain = 0; chain < kChains; ++chain) {
    StageGraph::StageId previous = 0;
    for (int step = 0; step < kLength; ++step) {
      std::vector<StageGraph::StageId> deps;
      if (step > 0) deps.push_back(previous);
      previous = graph.add(
          "c" + std::to_string(chain) + "s" + std::to_string(step), std::move(deps),
          [&mutex, &seen, chain, step] {
            const std::lock_guard<std::mutex> lock(mutex);
            seen[chain].push_back(step);
            return StageOutcome::success();
          });
    }
  }
  core::WorkerPool pool(4);
  EXPECT_TRUE(graph.run(pool));
  for (int chain = 0; chain < kChains; ++chain) {
    ASSERT_EQ(seen[chain].size(), static_cast<std::size_t>(kLength));
    for (int step = 0; step < kLength; ++step) EXPECT_EQ(seen[chain][step], step);
  }
}

TEST(PipelineStageGraph, FailureSkipsDependentsButNotIndependentBranches) {
  StageGraph graph;
  std::atomic<int> executed{0};
  const auto ok = [&executed] {
    executed.fetch_add(1);
    return StageOutcome::success();
  };
  const auto root = graph.add("root", {}, ok);
  const auto bad = graph.add("bad", {root}, [&executed] {
    executed.fetch_add(1);
    return StageOutcome::failure("boom");
  });
  const auto doomed = graph.add("doomed", {bad}, ok);
  graph.add("doomed2", {doomed}, ok);
  graph.add("independent", {root}, ok);

  core::WorkerPool pool(2);
  EXPECT_FALSE(graph.run(pool));
  EXPECT_EQ(executed.load(), 3);  // root, bad, independent — doomed bodies never ran

  const auto& results = graph.results();
  EXPECT_EQ(results[root].status, StageStatus::Done);
  EXPECT_EQ(results[bad].status, StageStatus::Failed);
  EXPECT_EQ(results[bad].error, "boom");
  EXPECT_EQ(results[doomed].status, StageStatus::Skipped);
  EXPECT_NE(results[doomed].error.find("bad"), std::string::npos);
  EXPECT_EQ(results[doomed + 1].status, StageStatus::Skipped);
  EXPECT_EQ(results[doomed + 2].status, StageStatus::Done);
}

TEST(PipelineStageGraph, CachedStagesCountAsSuccess) {
  StageGraph graph;
  const auto a = graph.add("a", {}, [] { return StageOutcome::hit(); });
  graph.add("b", {a}, [] { return StageOutcome::success(); });
  core::WorkerPool pool(1);
  EXPECT_TRUE(graph.run(pool));
  EXPECT_EQ(graph.results()[a].status, StageStatus::Cached);
}

TEST(PipelineStageGraph, CycleThrowsBeforeAnythingExecutes) {
  StageGraph graph;
  std::atomic<int> executed{0};
  const auto body = [&executed] {
    executed.fetch_add(1);
    return StageOutcome::success();
  };
  const auto a = graph.add("a", {2}, body);  // depends on c: a -> c -> b -> a
  const auto b = graph.add("b", {a}, body);
  graph.add("c", {b}, body);
  core::WorkerPool pool(1);
  EXPECT_THROW((void)graph.run(pool), std::logic_error);
  EXPECT_EQ(executed.load(), 0);
}

TEST(PipelineStageGraph, UnknownDependencyIdThrows) {
  StageGraph graph;
  graph.add("a", {42}, [] { return StageOutcome::success(); });
  core::WorkerPool pool(1);
  EXPECT_THROW((void)graph.run(pool), std::out_of_range);
}

TEST(PipelineStageGraph, SecondRunThrows) {
  StageGraph graph;
  graph.add("a", {}, [] { return StageOutcome::success(); });
  core::WorkerPool pool(1);
  EXPECT_TRUE(graph.run(pool));
  EXPECT_THROW((void)graph.run(pool), std::logic_error);
}

TEST(PipelineStageGraph, ObserverSeesEveryTerminalStageExactlyOnce) {
  StageGraph graph;
  const auto root = graph.add("root", {}, [] { return StageOutcome::failure("no"); });
  graph.add("child", {root}, [] { return StageOutcome::success(); });
  graph.add("free", {}, [] { return StageOutcome::success(); });

  std::mutex mutex;
  std::vector<std::pair<std::string, StageStatus>> observed;
  graph.set_observer([&](const StageResult& result) {
    const std::lock_guard<std::mutex> lock(mutex);
    observed.emplace_back(result.name, result.status);
  });
  core::WorkerPool pool(2);
  EXPECT_FALSE(graph.run(pool));

  ASSERT_EQ(observed.size(), 3u);
  std::set<std::string> names;
  for (const auto& [name, status] : observed) {
    names.insert(name);
    if (name == "root") {
      EXPECT_EQ(status, StageStatus::Failed);
    } else if (name == "child") {
      EXPECT_EQ(status, StageStatus::Skipped);
    } else {
      EXPECT_EQ(status, StageStatus::Done);
    }
  }
  EXPECT_EQ(names.size(), 3u);
}

// The TSan target: a wide layered graph on a multi-worker pool, every
// stage touching shared state through the documented synchronization
// (results published by dependency edges, counters atomic).
TEST(PipelineStageGraph, StressLayeredGraphOnManyWorkers) {
  constexpr int kLayers = 8;
  constexpr int kWidth = 12;
  StageGraph graph;
  std::atomic<int> executed{0};
  std::vector<int> values(kLayers * kWidth, 0);  // written pre-deps, read post-deps

  std::vector<StageGraph::StageId> previous_layer;
  for (int layer = 0; layer < kLayers; ++layer) {
    std::vector<StageGraph::StageId> current;
    for (int i = 0; i < kWidth; ++i) {
      const int slot = layer * kWidth + i;
      // Every stage depends on two stages of the previous layer.
      std::vector<StageGraph::StageId> deps;
      if (layer > 0) {
        deps.push_back(previous_layer[static_cast<std::size_t>(i)]);
        deps.push_back(previous_layer[static_cast<std::size_t>((i + 1) % kWidth)]);
      }
      const std::vector<int> dep_slots =
          layer > 0 ? std::vector<int>{(layer - 1) * kWidth + i,
                                       (layer - 1) * kWidth + (i + 1) % kWidth}
                    : std::vector<int>{};
      current.push_back(graph.add(
          "s" + std::to_string(slot), std::move(deps),
          [&values, &executed, slot, dep_slots] {
            int sum = 1;
            for (const int dep : dep_slots) sum += values[static_cast<std::size_t>(dep)];
            values[static_cast<std::size_t>(slot)] = sum;
            executed.fetch_add(1);
            return StageOutcome::success();
          }));
    }
    previous_layer = std::move(current);
  }

  core::WorkerPool pool(4);
  EXPECT_TRUE(graph.run(pool));
  EXPECT_EQ(executed.load(), kLayers * kWidth);
  // Bottom layer values are a pure function of the DAG — spot-check one.
  EXPECT_GT(values[static_cast<std::size_t>((kLayers - 1) * kWidth)], kLayers);
}

}  // namespace
}  // namespace sp::pipeline
