#include "search/wave_pipeline.h"

#include <utility>

namespace galvatron {

WavePipeline::WavePipeline(ThreadPool* pool, std::atomic<bool>* abandon,
                           RunFn run)
    : pool_(pool), abandon_(abandon), run_(std::move(run)) {
  if (pool_ == nullptr) return;
  for (int t = 0; t < pool_->num_threads(); ++t) {
    pool_->Submit([this] { WorkerLoop(); });
  }
}

void WavePipeline::Publish(PipelineWave* wave) {
  if (pool_ == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    open_.push_back(wave);
  }
  cv_.notify_all();
}

void WavePipeline::Finish(PipelineWave* wave) {
  if (pool_ == nullptr) {
    for (size_t i = 0; i < wave->num_tasks; ++i) run_(*wave, i);
    return;
  }
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [wave] { return wave->finished == wave->num_tasks; });
  open_.pop_front();
  if (wave->error) {
    lock.unlock();
    std::rethrow_exception(wave->error);
  }
}

void WavePipeline::Discard(PipelineWave* wave) {
  if (pool_ == nullptr) return;
  std::unique_lock<std::mutex> lock(mu_);
  // Claim the unstarted tasks before raising the flag: a worker whose task
  // sees it must find nothing left to start.
  wave->finished += wave->num_tasks - wave->started;
  wave->started = wave->num_tasks;
  abandon_->store(true, std::memory_order_relaxed);
  cv_.wait(lock, [wave] { return wave->finished == wave->num_tasks; });
  open_.pop_front();
  abandon_->store(false, std::memory_order_relaxed);
}

void WavePipeline::Stop() {
  if (pool_ == nullptr || stopped_) return;
  stopped_ = true;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (PipelineWave* wave : open_) {
      wave->finished += wave->num_tasks - wave->started;
      wave->started = wave->num_tasks;
    }
    closing_ = true;
    // Raised only once nothing is left to start (see Discard).
    abandon_->store(true, std::memory_order_relaxed);
  }
  cv_.notify_all();
  pool_->Wait();  // every worker loop has returned: nothing runs
  abandon_->store(false, std::memory_order_relaxed);
}

void WavePipeline::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    // The oldest published wave with an unstarted task.
    PipelineWave* wave = nullptr;
    for (PipelineWave* open : open_) {
      if (open->started < open->num_tasks) {
        wave = open;
        break;
      }
    }
    if (wave == nullptr) {
      if (closing_) return;
      cv_.wait(lock);
      continue;
    }
    const size_t index = wave->started++;
    lock.unlock();
    // A throwing task still counts as finished, so no wait ever hangs; the
    // wave keeps its first exception for Finish.
    std::exception_ptr error;
    try {
      run_(*wave, index);
    } catch (...) {
      error = std::current_exception();
    }
    lock.lock();
    if (error && !wave->error) wave->error = std::move(error);
    if (++wave->finished == wave->num_tasks) cv_.notify_all();
  }
}

}  // namespace galvatron
