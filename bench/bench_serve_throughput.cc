/// Serving throughput: requests/sec of POST /v1/plan over a loopback
/// HttpServer across the cold-path fast paths —
///
///   serve_cold            fresh service per request: full sweep, empty
///                         caches (the first-request experience)
///   serve_cost_cache_warm plan cache disabled, one warm PlanningContext:
///                         repeats run against hot cost + frontier caches
///   serve_plan_cache_hit  repeated identical request: response replayed
///                         from the PlanCache (steady-state dashboards)
///   serve_warm_start      near-miss workload: distinct memory budgets on
///                         one model, largest primed first — every request
///                         misses the plan cache but warm-starts its DP
///                         from cached Pareto frontiers
///   serve_coalesced       a concurrent burst of identical cold requests:
///                         singleflight runs ONE search, the rest replay
///   serve_post_restart    identical requests against a service restarted
///                         on a persisted plan-cache journal
///
/// Writes BENCH_serve.json (merge-on-write, see bench_json.h). The hit,
/// warm-start, coalesced and post-restart paths must each come out >= 10x
/// faster than cold — those ratios are acceptance criteria, recorded as
/// serve_speedups — and the near-miss workload must show a nonzero
/// cross-request cost-cache hit rate (the shared-PlanningContext fix).
///
/// `--smoke` shrinks the request counts for CI and skips the JSON write;
/// the tripwires still run.
///
/// The instance is the acceptance-criteria one: BERT-Huge-32 on the 8-GPU
/// Titan node, default optimizer options.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "api/galvatron.h"
#include "api/plan_io.h"
#include "bench/bench_json.h"
#include "serve/handlers.h"
#include "serve/http.h"
#include "serve/http_server.h"
#include "serve/metrics.h"
#include "util/json.h"
#include "util/math_util.h"

namespace galvatron {
namespace {

using serve::HttpFetch;
using serve::HttpRequest;
using serve::HttpServer;
using serve::HttpServerOptions;
using serve::PlanService;
using serve::PlanServiceOptions;
using serve::ServeMetrics;

struct BenchConfig {
  bool smoke = false;
  int cold_runs = 5;
  int warm_runs = 20;
  int hit_runs = 200;
  int warm_start_budgets = 12;
  int coalesced_burst = 32;
  int restart_runs = 50;
};

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string PlanBody(int64_t device_memory = 16 * kGB) {
  const ClusterSpec cluster = MakeTitanNode8(device_memory);
  return "{\"model\": \"" +
         std::string(ModelIdToString(ModelId::kBertHuge32)) +
         "\", \"cluster\": " + ClusterSpecToJson(cluster) + "}";
}

/// One timed POST /v1/plan against `port`; aborts the bench on any failure
/// (a broken server must not silently record garbage). `body_out`, when
/// given, receives the response body.
double TimedPlanRequest(int port, const std::string& body,
                        std::string* body_out = nullptr) {
  const double start = NowSeconds();
  auto response = HttpFetch("127.0.0.1", port, "POST", "/v1/plan", body,
                            /*timeout_ms=*/120000);
  const double elapsed = NowSeconds() - start;
  if (!response.ok() || response->status != 200) {
    std::fprintf(stderr, "plan request failed: %s\n",
                 response.ok() ? response->body.c_str()
                               : response.status().ToString().c_str());
    std::exit(1);
  }
  if (body_out != nullptr) *body_out = response->body;
  return elapsed;
}

struct Timing {
  double total_seconds = 0;
  int requests = 0;
  double requests_per_sec() const { return requests / total_seconds; }
  double ms_per_request() const { return 1e3 * total_seconds / requests; }
};

/// Cold: a fresh PlanService (empty plan cache, empty cost caches) serves
/// exactly one request, repeated cold_runs times.
Timing BenchCold(const BenchConfig& config, const std::string& body) {
  Timing timing;
  for (int i = 0; i < config.cold_runs; ++i) {
    PlanService service;
    auto server = HttpServer::Start(
        HttpServerOptions{},
        [&](const HttpRequest& r) { return service.Handle(r); });
    if (!server.ok()) std::exit(1);
    timing.total_seconds += TimedPlanRequest((*server)->port(), body);
    ++timing.requests;
    (*server)->Shutdown();
  }
  return timing;
}

/// Cost-cache warm: the plan cache is disabled, so every request runs a
/// real search, but all of them share one PlanningContext whose cost and
/// DP-frontier caches the warmup request filled.
Timing BenchCostCacheWarm(const BenchConfig& config, const std::string& body) {
  PlanServiceOptions options;
  options.plan_cache_entries = 0;  // force the search every time
  PlanService service(options);
  auto server = HttpServer::Start(
      HttpServerOptions{},
      [&](const HttpRequest& r) { return service.Handle(r); });
  if (!server.ok()) std::exit(1);
  TimedPlanRequest((*server)->port(), body);  // warm the context caches
  Timing timing;
  for (int i = 0; i < config.warm_runs; ++i) {
    timing.total_seconds += TimedPlanRequest((*server)->port(), body);
    ++timing.requests;
  }
  (*server)->Shutdown();
  return timing;
}

/// Plan-cache hit: repeated identical request against a default service.
Timing BenchPlanCacheHit(const BenchConfig& config, const std::string& body) {
  PlanService service;
  auto server = HttpServer::Start(
      HttpServerOptions{},
      [&](const HttpRequest& r) { return service.Handle(r); });
  if (!server.ok()) std::exit(1);
  TimedPlanRequest((*server)->port(), body);  // populate the plan cache
  Timing timing;
  for (int i = 0; i < config.hit_runs; ++i) {
    timing.total_seconds += TimedPlanRequest((*server)->port(), body);
    ++timing.requests;
  }
  (*server)->Shutdown();
  return timing;
}

/// Extracts one integer field out of a /v1/plan response's search_stats.
int64_t SearchStatsField(const std::string& body, const char* field) {
  auto parsed = ParseJson(body);
  if (!parsed.ok()) return -1;
  const JsonValue* stats = FindMember(*parsed, "search_stats");
  if (stats == nullptr) return -1;
  auto value = GetInt64(*stats, field, -1);
  return value.ok() ? *value : -1;
}

/// Warm start: prime one PlanningContext at the widest budget, then time
/// requests at distinct smaller budgets. Every one is a plan-cache miss
/// (new signature) on the primed context: its first pass reads the
/// context's stage table, the stages the priming search solved replay
/// their cached frontiers, and the configurations that search pruned run
/// their stage DPs now (a pruned configuration publishes no frontier). A
/// final request at a budget ABOVE the primed one re-runs the kernel
/// against the shared cost cache, proving the cross-request hit rate is
/// nonzero.
Timing BenchWarmStart(const BenchConfig& config, ServeMetrics* metrics,
                      int64_t* cross_request_cost_hits) {
  PlanServiceOptions options;
  options.metrics = metrics;
  PlanService service(options);
  auto server = HttpServer::Start(
      HttpServerOptions{},
      [&](const HttpRequest& r) { return service.Handle(r); });
  if (!server.ok()) std::exit(1);
  const int port = (*server)->port();
  TimedPlanRequest(port, PlanBody(24 * kGB));  // prime the frontiers
  Timing timing;
  for (int i = 0; i < config.warm_start_budgets; ++i) {
    // Distinct per-device budgets in (12 GB, 24 GB): distinct plan-cache
    // keys, one shared context.
    const int64_t budget = 12 * kGB + i * kGB + 512 * (int64_t{1} << 20);
    timing.total_seconds += TimedPlanRequest(port, PlanBody(budget));
    ++timing.requests;
  }
  std::string wider_body;
  TimedPlanRequest(port, PlanBody(26 * kGB), &wider_body);
  *cross_request_cost_hits = SearchStatsField(wider_body, "cost_cache_hits");
  (*server)->Shutdown();
  return timing;
}

/// Coalesced: a burst of identical concurrent cold requests. Singleflight
/// must answer the whole burst off one search, so the burst's aggregate
/// throughput beats one-search-per-request by roughly the burst size.
Timing BenchCoalesced(const BenchConfig& config, const std::string& body,
                      ServeMetrics* metrics) {
  PlanServiceOptions service_options;
  service_options.metrics = metrics;
  PlanService service(service_options);
  HttpServerOptions server_options;
  server_options.num_threads = 8;
  server_options.max_in_flight = 2 * config.coalesced_burst;
  auto server = HttpServer::Start(
      server_options, [&](const HttpRequest& r) { return service.Handle(r); });
  if (!server.ok()) std::exit(1);
  const int port = (*server)->port();

  std::vector<std::thread> clients;
  clients.reserve(config.coalesced_burst);
  const double start = NowSeconds();
  for (int i = 0; i < config.coalesced_burst; ++i) {
    clients.emplace_back([&] { TimedPlanRequest(port, body); });
  }
  for (std::thread& client : clients) client.join();
  Timing timing;
  timing.total_seconds = NowSeconds() - start;
  timing.requests = config.coalesced_burst;
  (*server)->Shutdown();
  return timing;
}

/// Post-restart: plan once against a journaled service, tear it down (the
/// destructor compacts the journal), restart on the same journal and time
/// identical requests — all plan-cache hits restored from disk.
Timing BenchPostRestart(const BenchConfig& config, const std::string& body,
                        int64_t* restored) {
  const std::string journal = "bench_serve_plan_cache.jsonl";
  std::remove(journal.c_str());
  {
    PlanServiceOptions options;
    options.plan_cache_journal = journal;
    PlanService service(options);
    auto server = HttpServer::Start(
        HttpServerOptions{},
        [&](const HttpRequest& r) { return service.Handle(r); });
    if (!server.ok()) std::exit(1);
    TimedPlanRequest((*server)->port(), body);
    (*server)->Shutdown();
  }  // service destroyed: journal compacted

  PlanServiceOptions options;
  options.plan_cache_journal = journal;
  PlanService service(options);
  *restored = service.plan_cache_stats().journal_restored;
  auto server = HttpServer::Start(
      HttpServerOptions{},
      [&](const HttpRequest& r) { return service.Handle(r); });
  if (!server.ok()) std::exit(1);
  Timing timing;
  for (int i = 0; i < config.restart_runs; ++i) {
    timing.total_seconds += TimedPlanRequest((*server)->port(), body);
    ++timing.requests;
  }
  (*server)->Shutdown();
  std::remove(journal.c_str());
  return timing;
}

int Run(const BenchConfig& config) {
  const std::string body = PlanBody();
  const Timing cold = BenchCold(config, body);
  const Timing warm = BenchCostCacheWarm(config, body);
  const Timing hit = BenchPlanCacheHit(config, body);

  ServeMetrics warm_start_metrics;
  int64_t cross_request_cost_hits = -1;
  const Timing warm_start =
      BenchWarmStart(config, &warm_start_metrics, &cross_request_cost_hits);

  ServeMetrics coalesced_metrics;
  const Timing coalesced = BenchCoalesced(config, body, &coalesced_metrics);

  int64_t restored = 0;
  const Timing restart = BenchPostRestart(config, body, &restored);

  const double hit_speedup = hit.requests_per_sec() / cold.requests_per_sec();
  const double warm_speedup =
      warm.requests_per_sec() / cold.requests_per_sec();
  const double warm_start_speedup =
      warm_start.requests_per_sec() / cold.requests_per_sec();
  const double coalesced_speedup =
      coalesced.requests_per_sec() / cold.requests_per_sec();
  const double restart_speedup =
      restart.requests_per_sec() / cold.requests_per_sec();

  if (!config.smoke) {
    bench::BenchJson out("BENCH_serve.json");
    out.Record("serve_cold", "requests_per_sec", cold.requests_per_sec());
    out.Record("serve_cold", "ms_per_request", cold.ms_per_request());
    out.Record("serve_cold", "requests", cold.requests);
    out.Record("serve_cost_cache_warm", "requests_per_sec",
               warm.requests_per_sec());
    out.Record("serve_cost_cache_warm", "ms_per_request",
               warm.ms_per_request());
    out.Record("serve_cost_cache_warm", "requests", warm.requests);
    out.Record("serve_plan_cache_hit", "requests_per_sec",
               hit.requests_per_sec());
    out.Record("serve_plan_cache_hit", "ms_per_request",
               hit.ms_per_request());
    out.Record("serve_plan_cache_hit", "requests", hit.requests);
    out.Record("serve_warm_start", "requests_per_sec",
               warm_start.requests_per_sec());
    out.Record("serve_warm_start", "ms_per_request",
               warm_start.ms_per_request());
    out.Record("serve_warm_start", "requests", warm_start.requests);
    out.Record("serve_warm_start", "dp_warm_started",
               static_cast<double>(warm_start_metrics.warm_start()));
    out.Record("serve_warm_start", "cross_request_cost_cache_hits",
               static_cast<double>(cross_request_cost_hits));
    out.Record("serve_coalesced", "requests_per_sec",
               coalesced.requests_per_sec());
    out.Record("serve_coalesced", "ms_per_request",
               coalesced.ms_per_request());
    out.Record("serve_coalesced", "requests", coalesced.requests);
    out.Record("serve_coalesced", "coalesced_requests",
               static_cast<double>(coalesced_metrics.coalesced()));
    out.Record("serve_post_restart", "requests_per_sec",
               restart.requests_per_sec());
    out.Record("serve_post_restart", "ms_per_request",
               restart.ms_per_request());
    out.Record("serve_post_restart", "requests", restart.requests);
    out.Record("serve_post_restart", "journal_restored_entries",
               static_cast<double>(restored));
    out.Record("serve_speedups", "plan_cache_hit_over_cold", hit_speedup);
    out.Record("serve_speedups", "cost_cache_warm_over_cold", warm_speedup);
    out.Record("serve_speedups", "warm_start_over_cold", warm_start_speedup);
    out.Record("serve_speedups", "coalesced_over_cold", coalesced_speedup);
    out.Record("serve_speedups", "post_restart_over_cold", restart_speedup);
    if (!out.Save()) {
      std::fprintf(stderr, "could not write BENCH_serve.json\n");
      return 1;
    }
  }

  std::printf(
      "%s\n"
      "  cold:            %8.1f req/s  (%.2f ms/req, n=%d)\n"
      "  cost-cache warm: %8.1f req/s  (%.2f ms/req, %.2fx cold)\n"
      "  plan-cache hit:  %8.1f req/s  (%.3f ms/req, %.0fx cold)\n"
      "  warm start:      %8.1f req/s  (%.2f ms/req, %.1fx cold, "
      "%lld warm-started, %lld cross-request cost hits)\n"
      "  coalesced burst: %8.1f req/s  (%.2f ms/req, %.1fx cold, "
      "%lld coalesced)\n"
      "  post restart:    %8.1f req/s  (%.3f ms/req, %.0fx cold, "
      "%lld restored)\n",
      config.smoke ? "smoke run (BENCH_serve.json not written)"
                   : "wrote BENCH_serve.json",
      cold.requests_per_sec(), cold.ms_per_request(), cold.requests,
      warm.requests_per_sec(), warm.ms_per_request(), warm_speedup,
      hit.requests_per_sec(), hit.ms_per_request(), hit_speedup,
      warm_start.requests_per_sec(), warm_start.ms_per_request(),
      warm_start_speedup,
      static_cast<long long>(warm_start_metrics.warm_start()),
      static_cast<long long>(cross_request_cost_hits),
      coalesced.requests_per_sec(), coalesced.ms_per_request(),
      coalesced_speedup,
      static_cast<long long>(coalesced_metrics.coalesced()),
      restart.requests_per_sec(), restart.ms_per_request(), restart_speedup,
      static_cast<long long>(restored));

  // Perf tripwires: every repeated-request fast path must clear 10x cold,
  // and the shared-context machinery must actually have fired.
  int failures = 0;
  const auto require = [&failures](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "FAIL: %s\n", what);
      ++failures;
    }
  };
  require(hit_speedup >= 10.0, "plan-cache hit speedup is below 10x cold");
  require(warm_start_speedup >= 10.0,
          "warm-start speedup is below 10x cold");
  require(coalesced_speedup >= 10.0, "coalesced speedup is below 10x cold");
  require(restart_speedup >= 10.0, "post-restart speedup is below 10x cold");
  require(warm_start_metrics.warm_start() > 0,
          "no search warm-started from cached DP frontiers");
  require(cross_request_cost_hits > 0,
          "cross-request cost-cache hit rate is zero");
  require(coalesced_metrics.coalesced() > 0,
          "no request coalesced onto an in-flight search");
  require(restored > 0, "no plan-cache entry restored from the journal");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace galvatron

int main(int argc, char** argv) {
  galvatron::BenchConfig config;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      config.smoke = true;
      config.cold_runs = 2;
      config.warm_runs = 5;
      config.hit_runs = 20;
      config.warm_start_budgets = 4;
      config.coalesced_burst = 32;
      config.restart_runs = 10;
    } else {
      std::fprintf(stderr, "unknown flag %s (supported: --smoke)\n", argv[i]);
      return 2;
    }
  }
  return galvatron::Run(config);
}
