// StageGraph — a deterministic DAG scheduler over core::WorkerPool.
//
// Stages are added with explicit dependency edges. run() issues one
// fork-join run() on the pool, and every worker — the calling thread
// included — drains the graph: it takes the ready stage (all parents
// Done/Cached) with the lowest id, executes it, and repeats until every
// stage is terminal. Independent stages — different months of a
// campaign, the two sides of a diamond — therefore execute concurrently
// on up to thread_count workers while chains stay ordered. A 1-thread
// pool runs the stages exactly in the order they were added (the
// serial baseline runs the exact same stage bodies), and preferring low
// ids keeps a multi-worker schedule close to that order, so work added
// early (a campaign's early months) finishes before later work piles up.
//
// Failure containment: a stage returning !ok is Failed; every transitive
// dependent is Skipped (never executed), while independent branches keep
// running to completion — a detection bug in month 7 does not throw away
// months 1-6 or 8-49, and their checkpoints make the eventual re-run
// cheap.
//
// A dependency cycle is a programming error and throws std::logic_error
// from run() before anything executes.
//
// Timing/observability: every executed stage records wall-clock duration
// and the process peak RSS (getrusage ru_maxrss, in KB) sampled at stage
// completion — ru_maxrss is a process-wide high-water mark, so per-stage
// values are "peak so far", monotone along completion order; the maximum
// across stages is the campaign's true peak. The wait from a stage
// becoming ready to a worker starting it lands in the process-wide
// `pipeline.stage_wait_us` histogram.
//
// Stage bodies must not throw (the pool terminates on escaping
// exceptions) and must not call run() on the pool that is executing
// them. Inner parallelism belongs to a pool of its own — each of the
// campaign's detect stages scans on a one-thread pool of its own.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <string>
#include <string_view>
#include <vector>

#include "core/worker_pool.h"
#include "obs/metrics.h"

namespace sp::pipeline {

enum class StageStatus : std::uint8_t {
  Pending,   // not yet scheduled
  Running,   // taken by a worker
  Done,      // body ran and succeeded
  Cached,    // body found a valid checkpoint and did no work
  Failed,    // body reported an error
  Skipped,   // a transitive dependency failed; body never ran
};

[[nodiscard]] std::string_view to_string(StageStatus status) noexcept;

/// What a stage body reports back.
struct StageOutcome {
  bool ok = true;
  bool cached = false;   // valid checkpoint found; no work done
  std::string error;     // populated when !ok

  [[nodiscard]] static StageOutcome success() { return {}; }
  [[nodiscard]] static StageOutcome hit() { return {.ok = true, .cached = true, .error = {}}; }
  [[nodiscard]] static StageOutcome failure(std::string message) {
    return {.ok = false, .cached = false, .error = std::move(message)};
  }
};

struct StageResult {
  std::size_t id = 0;         // the StageGraph::StageId add() returned
  std::string name;
  StageStatus status = StageStatus::Pending;
  std::string error;
  double wall_ms = 0.0;       // body execution time (0 for Skipped)
  long peak_rss_kb = 0;       // process ru_maxrss at completion (0 for Skipped)
};

class StageGraph {
 public:
  using StageId = std::size_t;
  using StageFn = std::function<StageOutcome()>;

  /// Adds a stage depending on previously added stages. `deps` ids must be
  /// < the new stage's id in the common build-forward case, but any valid
  /// id is accepted (cycles are rejected at run()).
  StageId add(std::string name, std::vector<StageId> deps, StageFn fn);

  [[nodiscard]] std::size_t size() const noexcept { return stages_.size(); }

  /// Called (serialized, off the graph lock) each time a stage reaches a
  /// terminal status, before any of its dependents can start — the CLI
  /// progress line and the manifest incremental save hook. A stage that
  /// ran is observed on the worker that ran its body, right after the
  /// body returns; a Skipped stage on the worker that finalized it.
  void set_observer(std::function<void(const StageResult&)> observer);

  /// Cooperative stop (the SIGINT/SIGTERM graceful-stop hook): once
  /// `*stop` reads true, stages that have not started are finalized as
  /// Skipped instead of executing — in-flight stages finish normally,
  /// observers still fire for every finalized stage (so the manifest
  /// records the partial run), and run() returns false. Skipped is
  /// exactly what resume re-runs, so an interrupted manifest resumes to
  /// the identical artifacts. The pointee must outlive run().
  void set_stop_flag(const std::atomic<bool>* stop) noexcept { stop_ = stop; }

  /// Executes the whole graph on `pool`; returns true when every stage is
  /// Done or Cached. Call at most once per graph.
  bool run(core::WorkerPool& pool);

  /// Terminal results, in stage-id order (valid after run()).
  [[nodiscard]] const std::vector<StageResult>& results() const noexcept { return results_; }

 private:
  using Clock = std::chrono::steady_clock;

  struct Stage {
    std::string name;
    StageFn fn;
    std::vector<StageId> deps;
    std::vector<StageId> dependents;
    std::size_t waiting = 0;   // unfinished deps
    bool doomed = false;       // some transitive dep failed
    std::string doom_reason;   // which dependency doomed it
    Clock::time_point ready_at;
  };

  void verify_acyclic() const;
  /// Marks stage `id` terminal, propagates readiness/doom to dependents.
  /// Appends dependents that became ready to `newly_ready` and every stage
  /// finalized by this completion (the stage itself plus Skipped
  /// descendants) to `finalized`. Caller holds `mutex_`.
  void finish(StageId id, StageStatus status, std::string error, double wall_ms,
              long rss_kb, std::vector<StageId>& newly_ready,
              std::vector<StageId>& finalized);
  /// One worker's share of run(): take the lowest ready id, execute it,
  /// repeat until every stage is terminal.
  void drain(const obs::Histogram& stage_wait_us);
  [[nodiscard]] bool stop_requested() const noexcept {
    return stop_ != nullptr && stop_->load();
  }

  std::vector<Stage> stages_;
  std::vector<StageResult> results_;
  std::function<void(const StageResult&)> observer_;

  const std::atomic<bool>* stop_ = nullptr;
  // lock-order: 30 pipeline.stage_graph.mutex (graph state; a worker
  // takes it only between stages and releases it before executing a
  // stage body and before observer callbacks)
  std::mutex mutex_;
  // lock-order: 31 pipeline.stage_graph.observer_mutex (observer calls
  // serialized, off the graph lock; leaf)
  std::mutex observer_mutex_;
  std::condition_variable ready_cv_;  // a stage became ready, or the graph finished
  std::priority_queue<StageId, std::vector<StageId>, std::greater<>> ready_;
  std::size_t finished_ = 0;
  bool ran_ = false;
};

}  // namespace sp::pipeline
