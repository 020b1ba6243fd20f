#ifndef GALVATRON_SERVE_HANDLERS_H_
#define GALVATRON_SERVE_HANDLERS_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "api/galvatron.h"
#include "calibrate/fit.h"
#include "calibrate/profile.h"
#include "serve/http.h"
#include "serve/metrics.h"
#include "serve/plan_cache.h"
#include "util/json.h"
#include "util/thread_pool.h"

namespace galvatron {
namespace serve {

struct PlanServiceOptions {
  /// Entries in the response-level plan cache (0 disables it).
  size_t plan_cache_entries = 128;
  /// Distinct (model, cluster-topology, estimator-options) PlanningContexts
  /// kept warm. Each holds a SharedCostCache and a DpFrontierCache that
  /// persist across requests; budget-only cluster variants share one
  /// context (per-layer costs never depend on the memory budget).
  size_t context_cache_entries = 8;
  /// Default per-request wall-clock deadline for /v1/plan in milliseconds;
  /// 0 means unlimited. A request's own "deadline_ms" field overrides it.
  double default_deadline_ms = 0.0;
  /// Path of the persistent plan-cache journal (see PlanCacheOptions);
  /// empty keeps the plan cache in-memory only.
  std::string plan_cache_journal;
  /// Worker threads executing async ("async": true) plan requests.
  int async_workers = 2;
  /// Calibration samples retained from traced /v1/measure runs (the newest
  /// are kept; POST /v1/calibrate fits from this buffer). 0 disables
  /// capture, and /v1/calibrate then answers FailedPrecondition.
  size_t calibration_sample_capacity = 65536;
  /// When the journal file exceeds this many bytes, the next Put compacts
  /// it down to a snapshot of the live cache (see PlanCacheOptions);
  /// 0 = never compact on size.
  int64_t plan_cache_journal_max_bytes = 0;
  /// Completed/pending async jobs retained for polling. When full and no
  /// completed job can be evicted, new submissions are rejected with 429.
  size_t async_jobs = 128;
  /// Optional telemetry sink shared with the HttpServer.
  ServeMetrics* metrics = nullptr;
};

/// The planning service behind galvatron_serve. Routes:
///
///   POST /v1/plan     {"model": "<zoo name>" | {...spec...},
///                      "cluster": {...spec...},
///                      "options": {...optimizer knobs...},   (optional)
///                      "deadline_ms": 250,                   (optional)
///                      "async": true}                        (optional)
///     -> {"plan": {...}, "estimated": {...}, "search_stats": {...},
///         "plan_cache_hit": false}
///     async form -> 202 {"plan_id": "plan-7", "poll": "/v1/plan/plan-7",
///                        "status": "pending"}
///
///   GET /v1/plan/<id> -> 202 {"status": "pending", ...} while running,
///                        then the finished plan response verbatim
///                        (byte-identical to the synchronous answer);
///                        404 for unknown or evicted ids.
///
///   POST /v1/measure  {"model": ..., "cluster": ..., "plan": {...},
///                      "sim": {...simulator knobs...}}        (optional)
///     -> {"metrics": {...SimMetrics...}}
///     With "explain": true the traced run's comm samples are also retained
///     in a bounded buffer as calibration observations.
///
///   POST /v1/calibrate {"min_group_samples": 2}               (optional)
///     Fits a calibration profile (src/calibrate/) from the retained
///     /v1/measure samples and atomically swaps it in: subsequent /v1/plan
///     searches price communication with the fitted scales. The profile
///     version is folded into both the plan-cache key and the warm-context
///     key, so stale cached answers are never replayed across a swap.
///     -> {"applied": true, "version": 3, "profile": {...}}
///     {"reset": true} instead drops the active profile and clears the
///     sample buffer. Rejected fits (no samples, out-of-range
///     coefficients) leave the active profile untouched
///     (galvatron_serve_calibration_{applied,rejected}_total;
///     galvatron_serve_calibration_staleness_measures gauges how many
///     traced measures arrived since the active fit).
///
///   GET /healthz      -> {"status": "ok", "version": "..."}
///   GET /metrics      -> Prometheus text exposition
///
/// The search is deterministic, so /v1/plan responses are cacheable: the
/// request's canonical signature (WriteJson-normalized model/cluster plus
/// the resolved option values) keys an LRU PlanCache, and a hit replays the
/// cold run's plan/estimated/search_stats byte-identically with
/// "plan_cache_hit": true. The cache can persist across restarts through an
/// append-only journal (PlanServiceOptions::plan_cache_journal).
///
/// Cold-path machinery (the repeated-request fast paths, in lookup order):
///  1. plan cache — exact repeats replay the serialized response.
///  2. singleflight — concurrent identical requests share ONE search: the
///     first becomes the leader, the rest block and replay the leader's
///     byte-identical response (metric: galvatron_serve_coalesced_total).
///  3. warm-start — near-miss requests (same model/options, cluster
///     differing only in per-device memory) share a PlanningContext whose
///     DpFrontierCache replays completed DP frontiers instead of re-running
///     the kernel (metric: galvatron_serve_warm_start_total, counting
///     searches on a context an earlier request created that replayed at
///     least one frontier).
///
/// Every error is a structured JSON body (MakeJsonErrorResponse) with the
/// Status-mapped HTTP code; hostile input never crashes the process.
/// Thread-safe; Handle may run on many workers at once.
class PlanService {
 public:
  explicit PlanService(PlanServiceOptions options = {});

  /// Drains async workers, then compacts the plan-cache journal (via
  /// PlanCache's destructor), so a SIGTERM'd daemon restarts warm.
  ~PlanService();

  PlanService(const PlanService&) = delete;
  PlanService& operator=(const PlanService&) = delete;

  /// The HttpServer::Handler entry point.
  HttpResponse Handle(const HttpRequest& request);

  PlanCache::Stats plan_cache_stats() const { return plan_cache_.stats(); }

 private:
  /// One in-flight /v1/plan computation, shared leader-to-followers.
  struct InFlight {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    /// Leader timed out against ITS deadline; followers (whose deadlines
    /// may be longer) loop back to re-check the cache or lead themselves.
    bool retry = false;
    HttpResponse response;
  };

  /// One async plan submission, held until polled or evicted.
  struct AsyncJob {
    std::string id;
    bool done = false;
    HttpResponse response;
  };

  /// A warm context plus the calibration profile its estimator points at
  /// (the shared_ptr keeps EstimatorOptions::calibration alive for as long
  /// as the context can price anything).
  struct WarmContext {
    std::shared_ptr<PlanningContext> context;
    std::shared_ptr<const calibrate::CalibrationProfile> calibration;
  };

  /// The warm context under `key`, created from the rest when there is
  /// none; `*created` tells which.
  std::shared_ptr<PlanningContext> GetOrCreateContext(
      const std::string& key, const ModelSpec& model,
      const ClusterSpec& cluster, const EstimatorOptions& estimator_options,
      std::shared_ptr<const calibrate::CalibrationProfile> calibration,
      bool* created);

  /// The active profile and its version under calibration_mu_.
  std::shared_ptr<const calibrate::CalibrationProfile> ActiveCalibration(
      int64_t* version) const;

  HttpResponse HandlePlan(const HttpRequest& request);
  /// The post-singleflight search path: parse specs, find the warm
  /// context, run the optimizer, serialize, fill the plan cache.
  /// `options` are the request's options as HandlePlan parsed them (their
  /// signature is already part of `cache_key`). `calibration` is the
  /// profile snapshot whose version HandlePlan folded into `cache_key` —
  /// passed through (not re-read) so the cached response is always priced
  /// by exactly the profile its key names.
  HttpResponse ComputePlan(
      OptimizerOptions options, const JsonValue& model_value,
      const JsonValue& cluster_value, const std::string& model_canonical,
      const std::string& cache_key, double deadline_ms,
      std::shared_ptr<const calibrate::CalibrationProfile> calibration,
      int64_t calibration_version);
  HttpResponse SubmitAsyncPlan(const JsonValue& root);
  HttpResponse HandlePlanPoll(const std::string& id);
  HttpResponse HandleMeasure(const HttpRequest& request);
  HttpResponse HandleCalibrate(const HttpRequest& request);
  HttpResponse HandleHealthz() const;
  HttpResponse HandleMetrics() const;

  PlanServiceOptions options_;
  PlanCache plan_cache_;

  // Tiny LRU of warm PlanningContexts (front = most recently used).
  mutable std::mutex contexts_mu_;
  std::list<std::pair<std::string, WarmContext>> contexts_;
  std::unordered_map<std::string, decltype(contexts_)::iterator>
      contexts_index_;

  // Calibration: the active trace-fitted profile, swapped whole by POST
  // /v1/calibrate (readers copy the shared_ptr under the mutex, then price
  // lock-free), plus the bounded sample buffer /v1/measure feeds.
  mutable std::mutex calibration_mu_;
  std::shared_ptr<const calibrate::CalibrationProfile> calibration_;
  int64_t calibration_version_ = 0;
  std::vector<calibrate::CommObservation> calibration_samples_;
  double calibration_overlap_estimate_ = 0.0;

  // Singleflight table: cache key -> the in-flight computation.
  std::mutex inflight_mu_;
  std::unordered_map<std::string, std::shared_ptr<InFlight>> inflight_;

  // Async job table (front = newest).
  std::mutex jobs_mu_;
  std::list<std::shared_ptr<AsyncJob>> jobs_;
  std::unordered_map<std::string, std::shared_ptr<AsyncJob>> jobs_index_;
  std::atomic<int64_t> next_job_id_{0};

  // Declared last so it is destroyed FIRST: its destructor drains queued
  // async plans, which touch every member above.
  std::unique_ptr<ThreadPool> async_pool_;
};

}  // namespace serve
}  // namespace galvatron

#endif  // GALVATRON_SERVE_HANDLERS_H_
