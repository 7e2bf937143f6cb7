#include "pipeline/stage_graph.h"

#include <chrono>
#include <deque>
#include <stdexcept>
#include <utility>

#include "obs/rss.h"
#include "obs/trace.h"

namespace sp::pipeline {

std::string_view to_string(StageStatus status) noexcept {
  switch (status) {
    case StageStatus::Pending: return "pending";
    case StageStatus::Running: return "running";
    case StageStatus::Done: return "done";
    case StageStatus::Cached: return "cached";
    case StageStatus::Failed: return "failed";
    case StageStatus::Skipped: return "skipped";
  }
  return "unknown";
}

StageGraph::StageId StageGraph::add(std::string name, std::vector<StageId> deps, StageFn fn) {
  const StageId id = stages_.size();
  Stage stage;
  stage.name = std::move(name);
  stage.fn = std::move(fn);
  stage.deps = std::move(deps);
  stages_.push_back(std::move(stage));
  return id;
}

void StageGraph::set_observer(std::function<void(const StageResult&)> observer) {
  observer_ = std::move(observer);
}

void StageGraph::verify_acyclic() const {
  // Kahn's algorithm; anything left over sits on a cycle.
  std::vector<std::size_t> indegree(stages_.size(), 0);
  for (const Stage& stage : stages_) {
    for (const StageId dep : stage.deps) {
      if (dep >= stages_.size()) {
        throw std::out_of_range("StageGraph: dependency id out of range");
      }
    }
    indegree[&stage - stages_.data()] = stage.deps.size();
  }
  std::vector<std::vector<StageId>> dependents(stages_.size());
  for (StageId id = 0; id < stages_.size(); ++id) {
    for (const StageId dep : stages_[id].deps) dependents[dep].push_back(id);
  }
  std::deque<StageId> queue;
  for (StageId id = 0; id < stages_.size(); ++id) {
    if (indegree[id] == 0) queue.push_back(id);
  }
  std::size_t processed = 0;
  while (!queue.empty()) {
    const StageId id = queue.front();
    queue.pop_front();
    ++processed;
    for (const StageId child : dependents[id]) {
      if (--indegree[child] == 0) queue.push_back(child);
    }
  }
  if (processed != stages_.size()) {
    for (StageId id = 0; id < stages_.size(); ++id) {
      if (indegree[id] != 0) {
        throw std::logic_error("StageGraph: dependency cycle involving stage '" +
                               stages_[id].name + "'");
      }
    }
  }
}

void StageGraph::finish(StageId id, StageStatus status, std::string error, double wall_ms,
                        long rss_kb, std::vector<StageId>& newly_ready,
                        std::vector<StageId>& finalized) {
  // Caller holds mutex_. Skip propagation is processed iteratively so a
  // failure fanning out over a long chain cannot overflow the stack.
  struct Terminal {
    StageId id;
    StageStatus status;
    std::string error;
    double wall_ms;
    long rss_kb;
  };
  std::vector<Terminal> stack;
  stack.push_back({id, status, std::move(error), wall_ms, rss_kb});
  while (!stack.empty()) {
    Terminal terminal = std::move(stack.back());
    stack.pop_back();
    StageResult& result = results_[terminal.id];
    result.status = terminal.status;
    result.error = std::move(terminal.error);
    result.wall_ms = terminal.wall_ms;
    result.peak_rss_kb = terminal.rss_kb;
    ++finished_;
    finalized.push_back(terminal.id);
    const bool ok =
        terminal.status == StageStatus::Done || terminal.status == StageStatus::Cached;
    for (const StageId child_id : stages_[terminal.id].dependents) {
      Stage& child = stages_[child_id];
      if (!ok && !child.doomed) {
        child.doomed = true;
        child.doom_reason = "dependency '" + stages_[terminal.id].name + "' " +
                            std::string(to_string(terminal.status));
      }
      if (--child.waiting == 0) {
        if (child.doomed) {
          stack.push_back({child_id, StageStatus::Skipped, child.doom_reason, 0.0, 0});
        } else {
          newly_ready.push_back(child_id);
        }
      }
    }
  }
}

void StageGraph::drain(const obs::Histogram& stage_wait_us) {
  std::vector<StageId> newly_ready;
  for (;;) {
    StageId id = 0;
    bool stop = false;
    Clock::time_point ready_at;
    {
      std::unique_lock lock(mutex_);
      // The previous stage's dependents become ready only here, after its
      // observers ran, so the manifest records every stage before any of
      // its dependents can complete.
      const Clock::time_point now = Clock::now();
      for (const StageId ready_id : newly_ready) {
        stages_[ready_id].ready_at = now;
        ready_.push(ready_id);
      }
      if (!newly_ready.empty()) ready_cv_.notify_all();
      newly_ready.clear();
      ready_cv_.wait(lock, [&] { return !ready_.empty() || finished_ == stages_.size(); });
      if (ready_.empty()) return;  // every stage is terminal
      id = ready_.top();
      ready_.pop();
      // Graceful stop: "stop" means no new stage body starts, however many
      // stages are ready.
      stop = stop_requested();
      if (!stop) results_[id].status = StageStatus::Running;
      ready_at = stages_[id].ready_at;
    }

    StageStatus status = StageStatus::Skipped;
    std::string error = "stop requested";
    double wall_ms = 0.0;
    long rss_kb = 0;
    if (!stop) {
      const Clock::time_point start = Clock::now();
      stage_wait_us.record(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(start - ready_at).count()));
      // One trace span per stage execution, on the worker thread that ran
      // it — the Perfetto view of the DAG schedule (cached stages are
      // near-zero slivers, the evolve chain is the critical path).
      const obs::ScopedSpan span(stages_[id].name, "stage");
      StageOutcome outcome = stages_[id].fn ? stages_[id].fn() : StageOutcome::success();
      wall_ms = std::chrono::duration<double, std::milli>(Clock::now() - start).count();
      rss_kb = obs::peak_rss_kb();
      status = !outcome.ok      ? StageStatus::Failed
               : outcome.cached ? StageStatus::Cached
                                : StageStatus::Done;
      error = std::move(outcome.error);
    }

    std::vector<StageResult> observed;
    {
      std::lock_guard lock(mutex_);
      std::vector<StageId> finalized;
      finish(id, status, std::move(error), wall_ms, rss_kb, newly_ready, finalized);
      if (finished_ == stages_.size()) ready_cv_.notify_all();
      observed.reserve(finalized.size());
      for (const StageId finished_id : finalized) observed.push_back(results_[finished_id]);
    }
    if (observer_) {
      std::lock_guard lock(observer_mutex_);
      for (const StageResult& result : observed) observer_(result);
    }
  }
}

bool StageGraph::run(core::WorkerPool& pool) {
  if (ran_) throw std::logic_error("StageGraph::run called twice");
  ran_ = true;
  verify_acyclic();

  results_.assign(stages_.size(), {});
  const Clock::time_point now = Clock::now();
  for (StageId id = 0; id < stages_.size(); ++id) {
    results_[id].id = id;
    results_[id].name = stages_[id].name;
    Stage& stage = stages_[id];
    stage.waiting = stage.deps.size();
    for (const StageId dep : stage.deps) stages_[dep].dependents.push_back(id);
    if (stage.waiting == 0) {
      stage.ready_at = now;
      ready_.push(id);
    }
  }

  // Every worker, the calling thread included, drains the graph; run()
  // returns once all of them have — observers included.
  const obs::Histogram stage_wait_us =
      obs::MetricsRegistry::global().histogram("pipeline.stage_wait_us");
  pool.run([this, &stage_wait_us](unsigned) { drain(stage_wait_us); });

  for (const StageResult& result : results_) {
    if (result.status != StageStatus::Done && result.status != StageStatus::Cached) {
      return false;
    }
  }
  return true;
}

}  // namespace sp::pipeline
