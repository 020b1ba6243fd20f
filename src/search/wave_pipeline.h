#ifndef GALVATRON_SEARCH_WAVE_PIPELINE_H_
#define GALVATRON_SEARCH_WAVE_PIPELINE_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>

#include "util/thread_pool.h"

namespace galvatron {

/// One wave of independent tasks run by a WavePipeline: in the optimizer,
/// one batch size's (PP degree, micro-batch count) configurations.
struct PipelineWave {
  size_t num_tasks = 0;
  // Guarded by the pipeline's mutex.
  size_t started = 0;
  size_t finished = 0;
  std::exception_ptr error;  // first exception a task threw
};

/// Runs waves of tasks with a lookahead of one wave. The caller publishes
/// waves in order and finishes them in the same order; the pool's workers
/// take tasks from the oldest published wave first, so while the caller
/// waits for or merges wave w they already run wave w+1's. Only the caller
/// publishes, finishes and stops, and it keeps at most two waves published
/// (the one it finishes next and the one run ahead) — the lookahead is the
/// caller's discipline, not a knob. The caller runs no published task
/// itself, so the search's heap traffic stays off it save for what its
/// merge runs (the optimizer's exit test runs a few stage DPs there).
///
/// With no pool every wave runs inline on the caller, task by task in
/// index order, inside Finish: the serial sweep is the same loop.
///
/// Stop skips every published task that has not started and then raises
/// `*abandon` — the optimizer's cancel hook reads it, so running tasks
/// return within one DP column; in that order, so a worker that sees the
/// flag finds nothing left to start — then waits for them and lowers the
/// flag again. Discard does the same to a single wave and keeps the workers.
/// The destructor stops, so no worker outlives the state its tasks
/// reference.
class WavePipeline {
 public:
  using RunFn = std::function<void(PipelineWave&, size_t)>;

  /// `pool` may be null (inline execution); its workers run the tasks for
  /// the pipeline's lifetime. `abandon` must outlive the pipeline.
  WavePipeline(ThreadPool* pool, std::atomic<bool>* abandon, RunFn run);
  ~WavePipeline() { Stop(); }

  WavePipeline(const WavePipeline&) = delete;
  WavePipeline& operator=(const WavePipeline&) = delete;

  /// Opens `wave` to the workers (a no-op inline).
  void Publish(PipelineWave* wave);

  /// Returns once every task of `wave` — the oldest published wave — has
  /// run (inline: runs them, in index order). Rethrows the first exception
  /// one of `wave`'s own tasks threw; another wave's never surfaces here.
  void Finish(PipelineWave* wave);

  /// Drops `wave`, the only published wave, unmerged: skips its unstarted
  /// tasks and abandons its running ones as Stop does, but keeps the
  /// workers for the waves published next. A no-op inline, where an
  /// unfinished wave never ran.
  void Discard(PipelineWave* wave);

  /// Skips unstarted tasks, abandons running ones and retires the workers.
  /// Idempotent; nothing runs once it returns.
  void Stop();

 private:
  /// Runs tasks, oldest published wave first, until Stop.
  void WorkerLoop();

  ThreadPool* pool_;
  std::atomic<bool>* abandon_;
  RunFn run_;
  bool stopped_ = false;  // caller thread only

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<PipelineWave*> open_;  // published, unfinished, oldest first
  bool closing_ = false;
};

}  // namespace galvatron

#endif  // GALVATRON_SEARCH_WAVE_PIPELINE_H_
