#ifndef GALVATRON_SERVE_METRICS_H_
#define GALVATRON_SERVE_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace galvatron {
namespace serve {

/// Process-lifetime serving telemetry, rendered in the Prometheus text
/// exposition format by GET /metrics. Thread-safe: counters are updated
/// from the accept thread and every worker.
class ServeMetrics {
 public:
  ServeMetrics() = default;
  ServeMetrics(const ServeMetrics&) = delete;
  ServeMetrics& operator=(const ServeMetrics&) = delete;

  /// One completed request on `endpoint` (the route, not the raw target)
  /// answered with `http_status` after `latency_seconds` of handling.
  void RecordRequest(const std::string& endpoint, int http_status,
                     double latency_seconds);

  /// One connection dropped by admission control (429 before handling).
  void RecordRejected() { rejected_.fetch_add(1, std::memory_order_relaxed); }

  /// One /v1/measure request that asked for (and received) the traced
  /// attribution summary via "explain": true.
  void RecordExplain() { explain_.fetch_add(1, std::memory_order_relaxed); }

  /// Plan-cache lookup outcome of one /v1/plan request.
  void RecordPlanCache(bool hit);

  /// One /v1/plan request that joined an identical in-flight search and
  /// replayed the leader's response instead of searching itself.
  void RecordCoalesced() {
    coalesced_.fetch_add(1, std::memory_order_relaxed);
  }

  /// One /v1/plan search that warm-started from cached DP frontiers: it
  /// ran on a PlanningContext an earlier request created and at least one
  /// of the stage searches it ran replayed one
  /// (SearchStats::dp_frontier_hits > 0; stages only bounded from a
  /// frontier do not count).
  void RecordWarmStart() {
    warm_start_.fetch_add(1, std::memory_order_relaxed);
  }

  /// One async /v1/plan submission (HTTP 202 with a poll handle).
  void RecordAsyncSubmit() {
    async_submitted_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Outcome of one POST /v1/calibrate: `applied` when the fitted profile
  /// validated and was swapped in. Applying resets the staleness gauge.
  void RecordCalibration(bool applied) {
    if (applied) {
      calibration_applied_.fetch_add(1, std::memory_order_relaxed);
      measures_since_calibration_.store(0, std::memory_order_relaxed);
    } else {
      calibration_rejected_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// One /v1/measure that captured calibration samples; drives the
  /// staleness gauge (traced measures seen since the active profile was
  /// fitted — a large value means the profile no longer reflects recent
  /// observations).
  void RecordCalibrationSamples() {
    measures_since_calibration_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Adds one request's cost-cache lookup deltas (SearchStats'
  /// cost_cache_hits/misses). Deltas, not lifetime counters, so the totals
  /// aggregate correctly across many PlanningContexts, each with its own
  /// cache.
  void RecordCostCache(int64_t delta_hits, int64_t delta_misses);

  void IncInFlight() { in_flight_.fetch_add(1, std::memory_order_relaxed); }
  void DecInFlight() { in_flight_.fetch_sub(1, std::memory_order_relaxed); }

  int64_t plan_cache_hits() const;
  int64_t rejected() const {
    return rejected_.load(std::memory_order_relaxed);
  }
  int64_t explain() const {
    return explain_.load(std::memory_order_relaxed);
  }
  int64_t coalesced() const {
    return coalesced_.load(std::memory_order_relaxed);
  }
  int64_t warm_start() const {
    return warm_start_.load(std::memory_order_relaxed);
  }
  int64_t calibration_applied() const {
    return calibration_applied_.load(std::memory_order_relaxed);
  }
  int64_t calibration_rejected() const {
    return calibration_rejected_.load(std::memory_order_relaxed);
  }

  /// Prometheus text exposition (version 0.0.4) of every metric:
  /// request counts by endpoint/status, latency histograms per endpoint,
  /// plan-cache and cost-cache hit/miss counters, in-flight gauge and the
  /// admission-rejected counter.
  std::string Render() const;

 private:
  struct Histogram {
    std::vector<int64_t> buckets;  // cumulative counts, one per bound + +Inf
    double sum = 0.0;
    int64_t count = 0;
  };

  mutable std::mutex mu_;
  std::map<std::pair<std::string, int>, int64_t> requests_;  // (endpoint, status)
  std::map<std::string, Histogram> latency_;                 // endpoint
  int64_t plan_cache_hits_ = 0;
  int64_t plan_cache_misses_ = 0;
  int64_t cost_cache_hits_ = 0;
  int64_t cost_cache_misses_ = 0;
  std::atomic<int64_t> in_flight_{0};
  std::atomic<int64_t> rejected_{0};
  std::atomic<int64_t> explain_{0};
  std::atomic<int64_t> coalesced_{0};
  std::atomic<int64_t> warm_start_{0};
  std::atomic<int64_t> async_submitted_{0};
  std::atomic<int64_t> calibration_applied_{0};
  std::atomic<int64_t> calibration_rejected_{0};
  std::atomic<int64_t> measures_since_calibration_{0};
};

}  // namespace serve
}  // namespace galvatron

#endif  // GALVATRON_SERVE_METRICS_H_
