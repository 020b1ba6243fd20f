/// The serve workloads: an in-process PlanService behind HttpServer on
/// loopback with the shipped default options, driven by closed-loop clients
/// (see ../README.md for why each mix). Also the serve probe plan_cold
/// uses for its serve.* metrics.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <thread>
#include <unordered_map>

#include "api/plan_io.h"
#include "bench.h"
#include "serve/handlers.h"
#include "serve/http.h"
#include "serve/http_server.h"
#include "serve/metrics.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

namespace serve = galvatron::serve;
using galvatron::ClusterSpec;
using galvatron::FindMember;
using galvatron::Galvatron;
using galvatron::JsonValue;
using galvatron::kGB;
using galvatron::ModelId;
using galvatron::ModelSpec;
using galvatron::OptimizerOptions;
using galvatron::ParseJson;
using galvatron::StrFormat;
using galvatron::TrainingPlan;
using galvatron::WriteJson;

constexpr int kSetupRepeats = 11;
/// Rounds of a window; each runs on one CPU, the next one each round (see
/// ClosedLoop::Measure), so a run visits every CPU many times.
constexpr int kRounds = 32;
/// Traced runs alternate untraced and traced rounds, so both halves see the
/// same cache state and the tracing overhead is their ratio.
constexpr int kTracedRounds = 32;
constexpr int kRequestTimeoutMs = 120000;

enum Kind { kPlan = 0, kMeasure = 1, kCalibrate = 2 };
constexpr const char* kTargets[] = {"/v1/plan", "/v1/measure",
                                    "/v1/calibrate"};
constexpr const char* kClientSpans[] = {"client.POST /v1/plan",
                                        "client.POST /v1/measure",
                                        "client.POST /v1/calibrate"};
constexpr char kHandleSpan[] = "serve.PlanService::Handle";
constexpr char kCacheHitFlag[] = ", \"plan_cache_hit\": ";

struct Op {
  int kind = kPlan;
  int key = 0;
};

/// One request a client sent.
struct Sample {
  Op what;
  double start = 0.0;
  double end = 0.0;
  int status = 0;          // HTTP status; 0 when no response arrived
  uint64_t body_hash = 0;  // of the body, cut before its plan_cache_hit flag
  bool cache_hit = false;
  bool traced = false;
  int round = -1;          // -1: warm-up
  int64_t span_id = 0;     // client span id, sent as ?rid= when traced
};

/// Response bodies of a run, one copy per distinct hash. Get is only called
/// once the clients have joined.
class BodyStore {
 public:
  uint64_t Add(std::string body) {
    const uint64_t hash = Fnv1a(body);
    std::lock_guard<std::mutex> lock(mu_);
    bodies_.try_emplace(hash, std::move(body));
    return hash;
  }
  const std::string& Get(uint64_t hash) const {
    static const std::string kMissing;
    auto it = bodies_.find(hash);
    return it == bodies_.end() ? kMissing : it->second;
  }
  /// A stored /v1/plan body (cut before its cache flag), parsed.
  galvatron::Result<JsonValue> ParsePlanBody(uint64_t hash) const {
    return ParseJson(Get(hash) + "}");
  }

 private:
  std::mutex mu_;
  std::unordered_map<uint64_t, std::string> bodies_;
};

/// The daemon as galvatron_serve wires it: default PlanServiceOptions and
/// HttpServerOptions plus the shared ServeMetrics sink. Traced requests
/// carry "?rid=<client span id>" (Handle ignores the query); only those are
/// wrapped in a handler span.
class Daemon {
 public:
  Daemon() {
    serve::PlanServiceOptions options;
    options.metrics = &metrics_;
    service_ = std::make_unique<serve::PlanService>(options);
    serve::HttpServerOptions server_options;
    server_options.metrics = &metrics_;
    serve::PlanService* service = service_.get();
    auto server = serve::HttpServer::Start(
        server_options, [service](const serve::HttpRequest& request) {
          const size_t rid = request.target.find("?rid=");
          if (rid == std::string::npos) return service->Handle(request);
          const int64_t id = std::atoll(request.target.c_str() + rid + 5);
          Span span(kHandleSpan, true, id, id);
          serve::HttpResponse response = service->Handle(request);
          span.Finish();
          return response;
        });
    GALVATRON_CHECK(server.ok()) << server.status().ToString();
    server_ = std::move(server).value();
    auto health = serve::HttpFetch("127.0.0.1", port(), "GET", "/healthz", "");
    GALVATRON_CHECK(health.ok() && health->status == 200)
        << "the daemon did not answer /healthz";
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int port() const { return server_->port(); }
  const serve::ServeMetrics& metrics() const { return metrics_; }

 private:
  serve::ServeMetrics metrics_;
  std::unique_ptr<serve::PlanService> service_;
  // Declared last, destroyed first: the server drains before the service
  // it calls goes away.
  std::unique_ptr<serve::HttpServer> server_;
};

struct ServeCounters {
  int64_t hits = 0;
  int64_t coalesced = 0;
  int64_t rejected = 0;
};

ServeCounters CountersOf(const serve::ServeMetrics& metrics) {
  return {metrics.plan_cache_hits(), metrics.coalesced(), metrics.rejected()};
}

ServeCounters Delta(const ServeCounters& after, const ServeCounters& before) {
  return {after.hits - before.hits, after.coalesced - before.coalesced,
          after.rejected - before.rejected};
}

/// A serve workload's request stream, driven by closed-loop clients: each
/// sends its next request only after its previous answer arrived, the way
/// galvatron_cli --server and launchers wait for their plan.
class ClosedLoop {
 public:
  using Bodies = std::array<const std::vector<std::string>*, 3>;

  ClosedLoop(int port, const RunConfig& config, int clients,
             std::function<Op(int64_t)> op_at, Bodies bodies)
      : port_(port),
        config_(config),
        clients_(clients),
        op_at_(std::move(op_at)),
        bodies_(bodies) {}

  /// Ops [0, count), untimed: fills the caches before measuring.
  void WarmUp(int64_t count) {
    RunClients([this, count](int64_t* op, int* round, bool* traced) {
      *op = next_op_.fetch_add(1);
      *round = -1;
      *traced = false;
      return *op < count;
    });
    next_op_ = count;
  }

  /// The timed window: `rounds` rounds of config.seconds / rounds each (or
  /// of config.ops / rounds ops). In traced runs odd rounds are traced;
  /// `trace_all` traces every round. `after_round(r)`, when given, runs on
  /// the calling thread after round r, between the rounds' timings.
  ///
  /// Each round runs the whole process — clients, server threads and the
  /// searches they start — on one CPU, the next one each round (in traced
  /// runs each untraced and traced pair of rounds shares one). A round trip
  /// then wakes no idle CPU: on a shared virtual host such a wake-up takes
  /// from microseconds to milliseconds as the neighbours' load comes and
  /// goes, and it, not the daemon, would decide the latencies.
  void Measure(int rounds, bool trace_all = false,
               const std::function<void(int)>& after_round = nullptr) {
    rounds_ = rounds;
    const int64_t first = next_op_.load();
    for (int r = 0; r < rounds; ++r) {
      const bool traced = trace_all || (config_.trace && r % 2 == 1);
      const int64_t end_op = first + config_.ops * (r + 1) / rounds;
      PinProcess(config_.trace ? r / 2 : r);
      const double round_start = NowSeconds();
      RunClients([&](int64_t* op, int* round, bool* is_traced) {
        if (config_.ops > 0) {
          *op = next_op_.fetch_add(1);
          if (*op >= end_op) return false;
        } else {
          if (NowSeconds() - round_start >= config_.seconds / rounds) {
            return false;
          }
          *op = next_op_.fetch_add(1);
        }
        *round = r;
        *is_traced = traced;
        return true;
      });
      PinProcess(-1);
      // Ops fetched past a fixed-count round were not sent.
      if (config_.ops > 0) next_op_ = end_op;
      if (after_round) after_round(r);
    }
  }

  const std::vector<Sample>& samples() const { return samples_; }
  const BodyStore& bodies() const { return store_; }
  int rounds() const { return rounds_; }

  /// 200 responses per second in each round, of one kind or (-1) of all:
  /// the count over the span from the round's first send to its last
  /// answer.
  std::vector<double> RoundRates(int kind) const {
    std::vector<double> rates;
    for (const RoundCount& round : RoundCounts(kind)) {
      rates.push_back(Ratio(round.count, round.seconds));
    }
    return rates;
  }

  /// 200 responses per second over all rounds together.
  double WindowRate(int kind) const {
    double count = 0.0, seconds = 0.0;
    for (const RoundCount& round : RoundCounts(kind)) {
      count += round.count;
      seconds += round.seconds;
    }
    return Ratio(count, seconds);
  }

  /// Digest of every op sent so far (kind and key, in op order).
  std::string MixDigest() const {
    uint64_t hash = Fnv1a("");
    for (int64_t i = 0; i < next_op_.load(); ++i) {
      const Op op = op_at_(i);
      hash = Fnv1a(StrFormat("%d:%d;", op.kind, op.key), hash);
    }
    return Hex(hash);
  }

 private:
  struct RoundCount {
    double count = 0.0;
    double seconds = 0.0;
  };

  std::vector<RoundCount> RoundCounts(int kind) const {
    std::vector<double> first(static_cast<size_t>(rounds_), 1e300);
    std::vector<double> last(static_cast<size_t>(rounds_), 0.0);
    std::vector<RoundCount> rounds(static_cast<size_t>(rounds_));
    for (const Sample& s : samples_) {
      if (s.round < 0) continue;
      const size_t r = static_cast<size_t>(s.round);
      first[r] = std::min(first[r], s.start);
      last[r] = std::max(last[r], s.end);
      if (s.status == 200 && (kind < 0 || s.what.kind == kind)) {
        ++rounds[r].count;
      }
    }
    for (size_t r = 0; r < rounds.size(); ++r) {
      rounds[r].seconds = std::max(0.0, last[r] - first[r]);
    }
    return rounds;
  }

  template <typename Next>
  void RunClients(Next next) {
    std::vector<std::thread> threads;
    for (int c = 0; c < clients_; ++c) {
      threads.emplace_back([this, &next] {
        int64_t op = 0;
        int round = -1;
        bool traced = false;
        while (next(&op, &round, &traced)) Send(op, round, traced);
      });
    }
    for (std::thread& thread : threads) thread.join();
  }

  void Send(int64_t index, int round, bool traced) {
    Sample sample;
    sample.what = op_at_(index);
    sample.round = round;
    sample.traced = traced;
    std::string target = kTargets[sample.what.kind];
    Span span(kClientSpans[sample.what.kind], traced);
    if (traced) {
      sample.span_id = span.id();
      target += "?rid=" + std::to_string(span.id());
    }
    auto response = serve::HttpFetch(
        "127.0.0.1", port_, "POST", target,
        (*bodies_[static_cast<size_t>(sample.what.kind)])
            [static_cast<size_t>(sample.what.key)],
        kRequestTimeoutMs);
    sample.start = span.start();
    sample.end = sample.start + span.Finish();
    if (response.ok()) {
      sample.status = response->status;
      std::string& body = response->body;
      const size_t flag = body.rfind(kCacheHitFlag);
      if (sample.what.kind == kPlan && flag != std::string::npos) {
        sample.cache_hit =
            body.compare(flag + std::strlen(kCacheHitFlag), 4, "true") == 0;
        body.resize(flag);
      }
      sample.body_hash = store_.Add(std::move(body));
    }
    std::lock_guard<std::mutex> lock(mu_);
    samples_.push_back(sample);
  }

  const int port_;
  const RunConfig config_;
  const int clients_;
  const std::function<Op(int64_t)> op_at_;
  const Bodies bodies_;
  std::atomic<int64_t> next_op_{0};
  int rounds_ = 0;
  BodyStore store_;
  std::mutex mu_;
  std::vector<Sample> samples_;
};

/// Client span id -> handler seconds of every traced request.
std::unordered_map<int64_t, double> HandlerSeconds() {
  std::unordered_map<int64_t, double> seconds;
  for (const SpanRecord& span : Tracer::Global().Spans()) {
    if (std::strcmp(span.name, kHandleSpan) == 0) {
      seconds[span.parent] = span.end - span.start;
    }
  }
  return seconds;
}

/// The end-to-end metrics of a serve window. A failed request counts at the
/// request timeout, so it misses every latency limit.
void SetServeEndToEnd(const ClosedLoop& loop, RunResult* result) {
  std::vector<double> all_ms, plan_ms, measure_ms;
  for (const Sample& s : loop.samples()) {
    if (s.round < 0) continue;
    const double ms = s.status == 200 ? 1e3 * (s.end - s.start)
                                      : static_cast<double>(kRequestTimeoutMs);
    all_ms.push_back(ms);
    if (s.what.kind == kPlan) plan_ms.push_back(ms);
    if (s.what.kind == kMeasure) measure_ms.push_back(ms);
  }
  const std::vector<double> req_rates = loop.RoundRates(-1);
  const std::vector<double> plan_rates = loop.RoundRates(kPlan);
  result->rounds = loop.rounds();
  result->Set("req_per_s", loop.WindowRate(-1), "1/s", req_rates);
  result->Set("plans_per_s", loop.WindowRate(kPlan), "1/s", plan_rates);
  result->Set("req_ms_p50", Percentile(all_ms, 50.0), "ms");
  result->Set("req_ms_p99", Percentile(all_ms, 99.0), "ms");
  result->Set("plan_ms_p50", Percentile(plan_ms, 50.0), "ms");
  result->Set("plan_ms_p90", Percentile(plan_ms, 90.0), "ms");
  result->Set("plan_req_ms_p99", Percentile(plan_ms, 99.0), "ms");
  if (!measure_ms.empty()) {
    result->Set("measure_req_ms_p50", Percentile(measure_ms, 50.0), "ms");
  }
}

void SetTracingOverhead(const ClosedLoop& loop, RunResult* result) {
  std::vector<double> plain, traced;
  const std::vector<double> rates = loop.RoundRates(-1);
  for (size_t r = 0; r < rates.size(); ++r) {
    (r % 2 == 1 ? traced : plain).push_back(rates[r]);
  }
  result->Set("tracing_overhead_ratio", Ratio(Median(plain), Median(traced)),
              "ratio");
}

/// serve.* from the traced requests of the window and the daemon's counter
/// deltas over it. With `wire_search`, also the search.* counters the
/// /v1/plan wire format carries (configs, states, cache and frontier hit
/// ratios, estimator calls), per plan request: a cache hit costs nothing.
void SetServeLayerMetrics(const ClosedLoop& loop, const ServeCounters& delta,
                          bool wire_search, RunResult* result) {
  const std::unordered_map<int64_t, double> handler = HandlerSeconds();
  std::vector<double> handler_ms, wire_ms;
  double plan_handler = 0.0, search = 0.0, configs = 0.0, states = 0.0;
  double misses = 0.0, cost_hits = 0.0, cost_lookups = 0.0;
  double frontier_hits = 0.0, frontier_lookups = 0.0;
  double traced_plans = 0.0, window_plans = 0.0, computed = 0.0, cold = 0.0;
  // Computed bodies count once: coalesced followers replay the leader's.
  std::set<uint64_t> seen;
  for (const Sample& s : loop.samples()) {
    if (s.round < 0) continue;
    if (s.what.kind == kPlan) ++window_plans;
    if (!s.traced) continue;
    auto it = handler.find(s.span_id);
    if (it == handler.end()) continue;
    handler_ms.push_back(1e3 * it->second);
    wire_ms.push_back(1e3 * (s.end - s.start - it->second));
    if (s.what.kind != kPlan || s.status != 200) continue;
    ++traced_plans;
    plan_handler += it->second;
    if (s.cache_hit || !seen.insert(s.body_hash).second) continue;
    auto body = loop.bodies().ParsePlanBody(s.body_hash);
    const JsonValue* stats = body.ok() ? FindMember(*body, "search_stats")
                                       : nullptr;
    if (stats == nullptr) continue;
    const auto number = [stats](const char* key) {
      const JsonValue* value = FindMember(*stats, key);
      return value != nullptr ? value->number : 0.0;
    };
    // A search on a newly created context: every lifetime miss of its cost
    // cache is its own.
    ++computed;
    if (number("cost_cache_lifetime_misses") == number("cost_cache_misses")) {
      ++cold;
    }
    search += number("search_seconds");
    configs += number("configs_explored");
    states += number("dp_states_explored");
    misses += number("cost_cache_misses");
    cost_hits += number("cost_cache_hits");
    cost_lookups += number("cost_cache_hits") + number("cost_cache_misses");
    frontier_hits += number("dp_frontier_hits");
    frontier_lookups +=
        number("dp_frontier_hits") + number("dp_frontier_misses");
  }
  // The daemon counts hits and coalesced requests; the rest searched, on
  // a warm context (warm start) or a fresh one (cold), split as in the
  // traced requests.
  const double searched = 1.0 - Ratio(static_cast<double>(delta.hits),
                                      window_plans) -
                          Ratio(static_cast<double>(delta.coalesced),
                                window_plans);
  const double cold_share = Ratio(cold, computed);
  result->Set("serve.handler_ms_p50", Percentile(handler_ms, 50.0), "ms");
  result->Set("serve.handler_ms_p99", Percentile(handler_ms, 99.0), "ms");
  result->Set("serve.wire_ms_p50", Percentile(wire_ms, 50.0), "ms");
  result->Set("serve.plan_cache_hit_ratio",
              Ratio(static_cast<double>(delta.hits), window_plans), "ratio");
  result->Set("serve.warm_start_ratio", searched * (1.0 - cold_share),
              "ratio");
  result->Set("serve.coalesced_ratio",
              Ratio(static_cast<double>(delta.coalesced), window_plans),
              "ratio");
  result->Set("serve.cold_ratio", searched * cold_share, "ratio");
  result->Set("serve.search_ms_share", Ratio(search, plan_handler), "ratio");
  result->Set("serve.rejected", static_cast<double>(delta.rejected), "count");
  if (wire_search) {
    const double plans = std::max(1.0, traced_plans);
    result->Set("search.configs_explored", configs / plans, "count");
    result->Set("search.dp_states", states / plans, "count");
    result->Set("search.cost_cache_hit_ratio", Ratio(cost_hits, cost_lookups),
                "ratio");
    result->Set("search.dp_frontier_hit_ratio",
                Ratio(frontier_hits, frontier_lookups), "ratio");
    result->Set("estimator.calls", misses / plans, "count");
  }
}

/// Counts every sample as attempted and every non-200 as failed.
void CountStatuses(const ClosedLoop& loop, RunResult* result) {
  for (const Sample& s : loop.samples()) {
    ++result->attempted;
    if (s.status != 200) {
      result->Fail(StrFormat("%s key %d: HTTP %d", kTargets[s.what.kind],
                             s.what.key, s.status));
    }
  }
}

// ---- serve_zipf ------------------------------------------------------------

constexpr ModelId kZipfModels[] = {ModelId::kBertHuge32, ModelId::kBertHuge48,
                                   ModelId::kT5Large32,  ModelId::kT5Large48,
                                   ModelId::kViTHuge32,  ModelId::kSwinHuge32};
/// Per-device budgets of every fabric's keys, in GB.
constexpr int kZipfBudgetsGb[] = {10, 12, 14, 16, 18, 20, 22, 24};
constexpr int kZipfFabrics = 4;
constexpr double kZipfExponent = 1.3;
constexpr int64_t kZipfWarmupOps = 2000;

/// 8-GPU TITAN and A100 clusters: one node of 8, and two nodes of 4 over
/// InfiniBand. Larger clusters make single cold searches so long that a
/// few of them decide a run's throughput.
ClusterSpec ZipfFabric(int fabric, int64_t budget) {
  const bool a100 = fabric % 2 == 1;
  const int nodes = fabric < 2 ? 1 : 2;
  return galvatron::MakeHomogeneousCluster(
      StrFormat("%s-%dx%d", a100 ? "a100" : "titan", nodes, 8 / nodes), nodes,
      /*gpus_per_node=*/8 / nodes, budget, a100 ? 17e12 : 6.5e12,
      a100 ? galvatron::LinkClass::kNvLink : galvatron::LinkClass::kPcie3,
      galvatron::LinkClass::kInfiniBand100);
}

struct ZipfKey {
  int model = 0;
  std::string cluster_json;
};

struct ZipfState {
  std::vector<ModelSpec> models;  // by ZipfKey::model
  std::vector<ZipfKey> keys;
  std::vector<std::string> bodies;  // /v1/plan bodies, by key
  std::vector<double> cdf;          // by popularity rank
  std::vector<int> key_of_rank;
  std::unique_ptr<Daemon> daemon;
};

std::unique_ptr<ZipfState> BuildZipf() {
  auto state = std::make_unique<ZipfState>();
  for (ModelId id : kZipfModels) state->models.push_back(galvatron::BuildModel(id));
  for (int m = 0; m < 6; ++m) {
    for (int f = 0; f < kZipfFabrics; ++f) {
      for (int gb : kZipfBudgetsGb) {
        ZipfKey key{m, galvatron::ClusterSpecToJson(ZipfFabric(f, gb * kGB))};
        state->bodies.push_back(StrFormat(
            "{\"model\": \"%s\", \"cluster\": %s}",
            std::string(galvatron::ModelIdToString(kZipfModels[m])).c_str(),
            key.cluster_json.c_str()));
        state->keys.push_back(std::move(key));
      }
    }
  }
  // Popularity ranks are a fixed shuffle of the keys: every seed sees the
  // same hot set and cache pressure; the seed draws the request sequence.
  const size_t n = state->keys.size();
  state->key_of_rank.resize(n);
  std::iota(state->key_of_rank.begin(), state->key_of_rank.end(), 0);
  galvatron::Rng rng(0x5eed);
  for (size_t i = n - 1; i > 0; --i) {
    std::swap(state->key_of_rank[i], state->key_of_rank[rng.NextBelow(i + 1)]);
  }
  double total = 0.0;
  for (size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
    state->cdf.push_back(total);
  }
  for (double& c : state->cdf) c /= total;
  state->daemon = std::make_unique<Daemon>();
  return state;
}

/// The serve_zipf request stream, in blocks of kZipfBlock requests. A
/// block's keys are a systematic sample of the Zipf weights from a seeded
/// offset, so every key's count in it is within one of its expected count,
/// in a seeded order. Independent draws let the number of rarely asked,
/// evicted and so cold keys — which decides a run's throughput — drift from
/// seed to seed.
class ZipfStream {
 public:
  ZipfStream(const ZipfState& state, uint64_t seed)
      : state_(state), seed_(seed) {}

  Op At(int64_t i) {
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, fresh] = blocks_.try_emplace(i / kZipfBlock);
    if (fresh) it->second = MakeBlock(i / kZipfBlock);
    return Op{kPlan, it->second[static_cast<size_t>(i % kZipfBlock)]};
  }

 private:
  static constexpr int64_t kZipfBlock = 1000;

  std::vector<int> MakeBlock(int64_t block) const {
    const uint64_t first = static_cast<uint64_t>(block * kZipfBlock);
    const double offset = UnitDraw(seed_, 0, static_cast<uint64_t>(block));
    std::vector<int> keys;
    for (int64_t j = 0; j < kZipfBlock; ++j) {
      const double u = (static_cast<double>(j) + offset) / kZipfBlock;
      const size_t rank = std::min<size_t>(
          std::lower_bound(state_.cdf.begin(), state_.cdf.end(), u) -
              state_.cdf.begin(),
          state_.cdf.size() - 1);
      keys.push_back(state_.key_of_rank[rank]);
    }
    for (size_t j = keys.size() - 1; j > 0; --j) {
      const double u = UnitDraw(seed_, 1, first + j);
      std::swap(keys[j], keys[static_cast<size_t>(u * static_cast<double>(j + 1))]);
    }
    return keys;
  }

  const ZipfState& state_;
  const uint64_t seed_;
  std::mutex mu_;
  std::map<int64_t, std::vector<int>> blocks_;
};

/// A key's plan from a direct, cold library call, for the output check.
struct Expected {
  std::optional<ClusterSpec> cluster;
  OptimizerOptions options;
  std::optional<TrainingPlan> plan;
  std::string plan_json;  // WriteJson-canonical, as the daemon serves it
  std::string error;
};

Expected DirectPlan(const ModelSpec& model, const ZipfKey& key) {
  Expected e;
  auto cluster = galvatron::ParseClusterSpecJson(key.cluster_json);
  if (!cluster.ok()) {
    e.error = cluster.status().ToString();
    return e;
  }
  e.cluster = std::move(cluster).value();
  auto plan = Galvatron::Plan(model, *e.cluster, e.options);
  if (!plan.ok()) {
    e.error = plan.status().ToString();
    return e;
  }
  e.plan = plan->plan;
  e.plan_json = WriteJson(*ParseJson(galvatron::PlanToJson(plan->plan)));
  return e;
}

// ---- serve_calibrate -------------------------------------------------------

constexpr ModelId kCalibrateModels[] = {ModelId::kBertHuge32,
                                        ModelId::kViTHuge32};
constexpr int kCalibrateBudgetsGb[] = {12, 16, 20, 24};
constexpr int kCalibrateEvery = 200;
/// Measures are the majority so that req_ms_p50 sits inside the measure
/// band: with plans in the majority, plan-cache hits were barely over half
/// of all requests and the median flipped between the hit and measure
/// bands (spread 0.45 over ten seeds). The 16 plan misses after each fit
/// are then about 23% of plan requests, so plan_ms_p90 sits inside the
/// warm-start band, not on the edge of the hit band.
constexpr double kPlanShare = 0.35;
constexpr int64_t kCalibrateWarmupOps = 150;

struct CalibrateState {
  std::vector<ModelSpec> models;
  std::vector<ClusterSpec> clusters;  // by plan key
  std::vector<int> key_model;         // by plan key
  std::vector<std::string> plan_bodies;
  std::vector<int> measure_key;  // the plan key each measured plan answers
  std::vector<TrainingPlan> measure_plans;
  std::vector<std::string> measure_bodies;
  std::vector<std::string> calibrate_bodies{"{}"};
  std::unique_ptr<Daemon> daemon;
};

std::unique_ptr<CalibrateState> BuildCalibrate() {
  auto state = std::make_unique<CalibrateState>();
  for (ModelId id : kCalibrateModels) {
    state->models.push_back(galvatron::BuildModel(id));
  }
  for (int m = 0; m < 2; ++m) {
    const std::string model_name(galvatron::ModelIdToString(kCalibrateModels[m]));
    for (int f = 0; f < 2; ++f) {
      for (int gb : kCalibrateBudgetsGb) {
        ClusterSpec cluster = ZipfFabric(f, gb * kGB);
        const std::string cluster_json = galvatron::ClusterSpecToJson(cluster);
        state->plan_bodies.push_back(
            StrFormat("{\"model\": \"%s\", \"cluster\": %s}",
                      model_name.c_str(), cluster_json.c_str()));
        if (gb == 16 || gb == 24) {
          // The plans /v1/measure prices are obtained here, at set-up.
          OptimizerOptions options;
          options.search_threads = ClientThreads();
          auto plan = Galvatron::Plan(state->models[static_cast<size_t>(m)],
                                      cluster, options);
          GALVATRON_CHECK(plan.ok()) << plan.status().ToString();
          state->measure_key.push_back(static_cast<int>(state->clusters.size()));
          state->measure_bodies.push_back(StrFormat(
              "{\"model\": \"%s\", \"cluster\": %s, \"plan\": %s, "
              "\"explain\": true}",
              model_name.c_str(), cluster_json.c_str(),
              galvatron::PlanToJson(plan->plan).c_str()));
          state->measure_plans.push_back(plan->plan);
        }
        state->key_model.push_back(m);
        state->clusters.push_back(std::move(cluster));
      }
    }
  }
  state->daemon = std::make_unique<Daemon>();
  return state;
}

}  // namespace

void RunServeProbe(const std::vector<ReferencePlan>& plans,
                   RunResult* result) {
  Daemon daemon;
  std::vector<std::string> bodies;
  for (const ReferencePlan& ref : plans) bodies.push_back(ref.request_body);
  RunConfig config;
  config.trace = true;
  config.ops = 2 * static_cast<int>(bodies.size());
  ClosedLoop loop(daemon.port(), config, /*clients=*/1,
                  [](int64_t op) { return Op{kPlan, static_cast<int>(op / 2)}; },
                  {&bodies, &bodies, &bodies});
  const ServeCounters before = CountersOf(daemon.metrics());
  loop.Measure(/*rounds=*/1, /*trace_all=*/true);
  SetServeLayerMetrics(loop, Delta(CountersOf(daemon.metrics()), before),
                       /*wire_search=*/false, result);
  CountStatuses(loop, result);
}

RunResult RunServeZipf(const RunConfig& config) {
  RunResult result;
  const std::unique_ptr<ZipfState> state =
      TimedSetup(kSetupRepeats, &result, BuildZipf);
  const ZipfState& s = *state;

  // Every key's plan from a direct, cold library Plan, before the window:
  // the output check's reference and measure_req_ms_p50's inputs.
  std::vector<Expected> expected(s.keys.size());
  {
    galvatron::ThreadPool pool(ClientThreads());
    galvatron::ParallelFor(&pool, static_cast<int>(s.keys.size()), [&](int i) {
      const size_t k = static_cast<size_t>(i);
      expected[k] =
          DirectPlan(s.models[static_cast<size_t>(s.keys[k].model)], s.keys[k]);
    });
  }
  std::vector<int> measured_keys;
  std::vector<MeasureInput> measure_inputs;
  for (size_t k = 0; k < s.keys.size(); ++k) {
    const Expected& e = expected[k];
    if (!e.plan) continue;
    measured_keys.push_back(static_cast<int>(k));
    measure_inputs.push_back(
        {&s.models[static_cast<size_t>(s.keys[k].model)], &*e.plan, &*e.cluster});
  }
  // After round r, outside the rounds' time, every eighth key's plan is
  // measured, from key r % 8 on: the measures spread over the window as
  // the requests do, and every key is measured kRounds / 8 times.
  std::vector<galvatron::Result<galvatron::SimMetrics>> simulated(
      measure_inputs.size(), galvatron::Status::Internal("not simulated"));
  std::vector<double> measure_ms;  // mean ms per measure, per round
  double measure_ms_total = 0.0;
  size_t measures = 0;
  const auto measure_some = [&](int round) {
    double ms = 0.0;
    int count = 0;
    for (size_t i = static_cast<size_t>(round % 8); i < measure_inputs.size();
         i += 8) {
      ms += MeasureMs(measure_inputs[i], measures++, &simulated[i]);
      ++count;
    }
    measure_ms_total += ms;
    if (count > 0) measure_ms.push_back(ms / count);
  };

  ZipfStream stream(s, config.seed);
  ClosedLoop loop(
      s.daemon->port(), config, kServeClients,
      [&stream](int64_t i) { return stream.At(i); },
      {&s.bodies, &s.bodies, &s.bodies});
  loop.WarmUp(config.ops > 0 ? config.ops / 4 : kZipfWarmupOps);
  const ServeCounters before = CountersOf(s.daemon->metrics());
  loop.Measure(config.trace ? kTracedRounds : kRounds, /*trace_all=*/false,
               measure_some);
  const ServeCounters delta = Delta(CountersOf(s.daemon->metrics()), before);
  result.Set("peak_rss_mb", PeakRssMb(), "MB");
  SetServeEndToEnd(loop, &result);
  result.mix_digest = loop.MixDigest();
  CountStatuses(loop, &result);

  // Output check: every 200 body's plan equals its key's direct Plan.
  std::map<std::pair<int, uint64_t>, int64_t> responses;
  for (const Sample& smp : loop.samples()) {
    if (smp.status == 200) ++responses[{smp.what.key, smp.body_hash}];
  }
  for (const auto& [key_and_hash, count] : responses) {
    const Expected& e = expected[static_cast<size_t>(key_and_hash.first)];
    auto body = loop.bodies().ParsePlanBody(key_and_hash.second);
    const JsonValue* plan = body.ok() ? FindMember(*body, "plan") : nullptr;
    if (!e.error.empty() || plan == nullptr || WriteJson(*plan) != e.plan_json) {
      result.Fail(StrFormat("/v1/plan key %d: served plan differs from a "
                            "direct Plan%s%s",
                            key_and_hash.first, e.error.empty() ? "" : ": ",
                            e.error.c_str()),
                  count);
    }
  }
  std::vector<double> sps;
  for (size_t i = 0; i < simulated.size(); ++i) {
    if (!simulated[i].ok() || simulated[i]->oom) {
      result.Fail(StrFormat("/v1/plan key %d: the plan does not simulate",
                            measured_keys[i]));
      continue;
    }
    sps.push_back(simulated[i]->throughput_samples_per_sec);
  }
  result.Set("plan_sim_sps_geomean", GeoMean(sps), "1/s");
  // No /v1/measure requests here: the mean Measure (with "explain") of
  // every key's plan. A median would flip between the plan sizes.
  result.Set("measure_req_ms_p50",
             Ratio(measure_ms_total, static_cast<double>(measures)), "ms",
             measure_ms);

  if (config.trace) {
    // Probe inputs: the most popular keys.
    std::vector<ReferencePlan> refs;
    for (int key : s.key_of_rank) {
      if (refs.size() == 16) break;
      const Expected& e = expected[static_cast<size_t>(key)];
      if (!e.plan) continue;
      const ZipfKey& zipf_key = s.keys[static_cast<size_t>(key)];
      refs.push_back({&s.models[static_cast<size_t>(zipf_key.model)],
                      &*e.cluster, e.options, *e.plan,
                      s.bodies[static_cast<size_t>(key)]});
    }
    SetSearchMetrics(ProbePlanCalls(refs, &result), &result);
    SetServeLayerMetrics(loop, delta, /*wire_search=*/true, &result);
    RunLayerProbes(refs, /*fit_calibration=*/true, &result);
    SetTracingOverhead(loop, &result);
  }
  return result;
}

RunResult RunServeCalibrate(const RunConfig& config) {
  RunResult result;
  const std::unique_ptr<CalibrateState> state =
      TimedSetup(kSetupRepeats, &result, BuildCalibrate);
  const CalibrateState& s = *state;
  const int plan_keys = static_cast<int>(s.plan_bodies.size());
  const int measure_keys = static_cast<int>(s.measure_bodies.size());
  ClosedLoop loop(
      s.daemon->port(), config, kServeClients,
      [seed = config.seed, plan_keys, measure_keys](int64_t i) {
        const uint64_t index = static_cast<uint64_t>(i);
        if (i % kCalibrateEvery == kCalibrateEvery - 1) {
          return Op{kCalibrate, 0};
        }
        if (UnitDraw(seed, 1, index) < kPlanShare) {
          return Op{kPlan, static_cast<int>(UnitDraw(seed, 2, index) * plan_keys)};
        }
        return Op{kMeasure,
                  static_cast<int>(UnitDraw(seed, 3, index) * measure_keys)};
      },
      {&s.plan_bodies, &s.measure_bodies, &s.calibrate_bodies});
  loop.WarmUp(kCalibrateWarmupOps);
  const ServeCounters before = CountersOf(s.daemon->metrics());
  loop.Measure(config.trace ? kTracedRounds : kRounds);
  const ServeCounters delta = Delta(CountersOf(s.daemon->metrics()), before);
  result.Set("peak_rss_mb", PeakRssMb(), "MB");
  SetServeEndToEnd(loop, &result);
  result.mix_digest = loop.MixDigest();
  CountStatuses(loop, &result);

  // Output checks. A /v1/plan response belongs to profile version e when e
  // calibrations had completed before it was sent and none was in flight
  // while it was; responses overlapping a calibration are not compared.
  std::vector<std::pair<double, double>> calibrations;
  for (const Sample& smp : loop.samples()) {
    if (smp.what.kind == kCalibrate && smp.status == 200) {
      calibrations.emplace_back(smp.start, smp.end);
    }
  }
  std::map<std::pair<int, int>, uint64_t> plan_body;  // (key, version)
  std::map<int, uint64_t> measure_body;
  std::map<int, uint64_t> first_version_body;
  for (const Sample& smp : loop.samples()) {
    if (smp.status != 200) continue;
    if (smp.what.kind == kMeasure) {
      auto [it, inserted] = measure_body.try_emplace(smp.what.key, smp.body_hash);
      if (!inserted && it->second != smp.body_hash) {
        result.Fail(StrFormat("/v1/measure key %d: response differs from the "
                              "first one",
                              smp.what.key));
      }
    } else if (smp.what.kind == kPlan) {
      int version = 0;
      bool ambiguous = false;
      for (const auto& [start, end] : calibrations) {
        if (end < smp.start) {
          ++version;
        } else if (start < smp.end) {
          ambiguous = true;
        }
      }
      if (ambiguous) continue;
      auto [it, inserted] =
          plan_body.try_emplace({smp.what.key, version}, smp.body_hash);
      if (!inserted && it->second != smp.body_hash) {
        result.Fail(StrFormat("/v1/plan key %d: responses differ within "
                              "profile version %d",
                              smp.what.key, version));
      }
      if (version == 0) first_version_body.try_emplace(smp.what.key, smp.body_hash);
    }
  }
  for (const auto& [key, hash] : measure_body) {
    auto body = ParseJson(loop.bodies().Get(hash));
    const JsonValue* metrics = body.ok() ? FindMember(*body, "metrics") : nullptr;
    const JsonValue* oom = metrics ? FindMember(*metrics, "oom") : nullptr;
    const JsonValue* sps =
        metrics ? FindMember(*metrics, "throughput_samples_per_sec") : nullptr;
    if (oom == nullptr || oom->boolean || sps == nullptr || !(sps->number > 0.0)) {
      result.Fail(StrFormat("/v1/measure key %d: out of memory or no "
                            "throughput",
                            key));
    }
  }

  // Before the first fit the profile is the default one, so each key's
  // plan then equals a direct, cold library Plan. Plan quality is that
  // plan's simulation, for every key whatever the seed asked.
  std::vector<Expected> expected(static_cast<size_t>(plan_keys));
  {
    galvatron::ThreadPool pool(ClientThreads());
    galvatron::ParallelFor(&pool, plan_keys, [&](int k) {
      const size_t key = static_cast<size_t>(k);
      expected[key] = DirectPlan(
          s.models[static_cast<size_t>(s.key_model[key])],
          ZipfKey{s.key_model[key], galvatron::ClusterSpecToJson(s.clusters[key])});
    });
  }
  for (const auto& [key, hash] : first_version_body) {
    auto body = loop.bodies().ParsePlanBody(hash);
    const JsonValue* plan = body.ok() ? FindMember(*body, "plan") : nullptr;
    if (plan == nullptr ||
        WriteJson(*plan) != expected[static_cast<size_t>(key)].plan_json) {
      result.Fail(StrFormat("/v1/plan key %d: plan before the first fit "
                            "differs from a direct Plan",
                            key));
    }
  }
  std::vector<double> sps;
  std::vector<ReferencePlan> refs;
  for (size_t key = 0; key < expected.size(); ++key) {
    const Expected& e = expected[key];
    const ModelSpec& model = s.models[static_cast<size_t>(s.key_model[key])];
    auto measured = e.plan ? Galvatron::Measure(model, *e.plan, *e.cluster)
                           : galvatron::Result<galvatron::SimMetrics>(
                                 galvatron::Status::Internal(e.error));
    if (!measured.ok() || measured->oom) {
      result.Fail(StrFormat("/v1/plan key %zu: direct plan does not simulate",
                            key));
      continue;
    }
    sps.push_back(measured->throughput_samples_per_sec);
    refs.push_back({&model, &*e.cluster, e.options, *e.plan, s.plan_bodies[key]});
  }
  result.Set("plan_sim_sps_geomean", GeoMean(sps), "1/s");

  if (config.trace) {
    SetSearchMetrics(ProbePlanCalls(refs, &result), &result);
    SetServeLayerMetrics(loop, delta, /*wire_search=*/true, &result);
    std::vector<ReferencePlan> probes = refs;
    for (size_t j = 0; j < s.measure_plans.size(); ++j) {
      const size_t key = static_cast<size_t>(s.measure_key[j]);
      probes.push_back({&s.models[static_cast<size_t>(s.key_model[key])],
                        &s.clusters[key], OptimizerOptions{},
                        s.measure_plans[j], s.measure_bodies[j]});
    }
    RunLayerProbes(probes, /*fit_calibration=*/false, &result);

    // calibrate.* from the daemon's own fits in the traced rounds.
    const std::unordered_map<int64_t, double> handler = HandlerSeconds();
    std::vector<double> fit_ms, samples;
    double fits = 0.0, applied = 0.0;
    for (const Sample& smp : loop.samples()) {
      if (smp.round < 0 || smp.what.kind != kCalibrate) continue;
      ++fits;
      auto it = handler.find(smp.span_id);
      if (smp.traced && it != handler.end()) fit_ms.push_back(1e3 * it->second);
      auto body = ParseJson(loop.bodies().Get(smp.body_hash));
      if (smp.status != 200 || !body.ok()) continue;
      const JsonValue* was_applied = FindMember(*body, "applied");
      const JsonValue* fitted = FindMember(*body, "samples");
      if (was_applied != nullptr && was_applied->boolean) ++applied;
      if (fitted != nullptr) samples.push_back(fitted->number);
    }
    result.Set("calibrate.fit_ms", Median(fit_ms), "ms");
    result.Set("calibrate.samples", Mean(samples), "count");
    result.Set("calibrate.applied_ratio", Ratio(applied, fits), "ratio");
    SetTracingOverhead(loop, &result);
  }
  return result;
}

}  // namespace perfbench
