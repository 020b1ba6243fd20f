#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/galvatron.h"
#include "api/plan_io.h"
#include "ir/transformer_builder.h"
#include "serve/handlers.h"
#include "serve/http.h"
#include "serve/http_server.h"
#include "serve/metrics.h"
#include "util/json.h"
#include "util/math_util.h"

namespace galvatron {
namespace serve {
namespace {

/// The acceptance-criteria instance: BERT-Huge-32 on the 8-GPU Titan node.
class ServeTest : public ::testing::Test {
 protected:
  ServeTest()
      : cluster_(MakeTitanNode8(16 * kGB)),
        model_(BuildModel(ModelId::kBertHuge32)) {}

  std::string PlanRequestBody(const std::string& extra = "") const {
    return "{\"model\": \"" + std::string(ModelIdToString(ModelId::kBertHuge32)) +
           "\", \"cluster\": " + ClusterSpecToJson(cluster_) + extra + "}";
  }

  static HttpRequest Post(const std::string& target, const std::string& body) {
    HttpRequest request;
    request.method = "POST";
    request.target = target;
    request.body = body;
    return request;
  }

  static HttpRequest Get(const std::string& target) {
    HttpRequest request;
    request.method = "GET";
    request.target = target;
    return request;
  }

  ClusterSpec cluster_;
  ModelSpec model_;
};

TEST_F(ServeTest, HealthzReportsVersion) {
  PlanService service;
  const HttpResponse response = service.Handle(Get("/healthz"));
  EXPECT_EQ(response.status, 200);
  auto body = ParseJson(response.body);
  ASSERT_TRUE(body.ok()) << body.status();
  auto status_field = GetString(*body, "status");
  ASSERT_TRUE(status_field.ok());
  EXPECT_EQ(*status_field, "ok");
  auto version = GetString(*body, "version");
  ASSERT_TRUE(version.ok());
  EXPECT_EQ(*version, Galvatron::Version());
}

TEST_F(ServeTest, RoutingRejectsWrongMethodsAndUnknownPaths) {
  PlanService service;
  EXPECT_EQ(service.Handle(Post("/healthz", "")).status, 405);
  EXPECT_EQ(service.Handle(Post("/metrics", "")).status, 405);
  EXPECT_EQ(service.Handle(Get("/v1/plan")).status, 405);
  EXPECT_EQ(service.Handle(Get("/v1/measure")).status, 405);
  EXPECT_EQ(service.Handle(Get("/nope")).status, 404);
  // Query strings are stripped before routing.
  EXPECT_EQ(service.Handle(Get("/healthz?verbose=1")).status, 200);
}

TEST_F(ServeTest, PlanIsByteIdenticalToDirectSearchAndCacheHitReplaysIt) {
  ServeMetrics metrics;
  PlanServiceOptions options;
  options.metrics = &metrics;
  PlanService service(options);

  const HttpResponse cold = service.Handle(Post("/v1/plan", PlanRequestBody()));
  ASSERT_EQ(cold.status, 200) << cold.body;
  auto cold_json = ParseJson(cold.body);
  ASSERT_TRUE(cold_json.ok()) << cold_json.status();
  auto cold_hit = GetBool(*cold_json, "plan_cache_hit");
  ASSERT_TRUE(cold_hit.ok());
  EXPECT_FALSE(*cold_hit);

  // Byte-identity against a direct library call with default options.
  auto direct = Galvatron::Plan(model_, cluster_);
  ASSERT_TRUE(direct.ok()) << direct.status();
  const JsonValue* served_plan = FindMember(*cold_json, "plan");
  ASSERT_NE(served_plan, nullptr);
  auto direct_json = ParseJson(PlanToJson(direct->plan));
  ASSERT_TRUE(direct_json.ok());
  EXPECT_EQ(WriteJson(*served_plan), WriteJson(*direct_json));

  // The round-tripped plan still parses and validates.
  auto reparsed = PlanFromJsonValue(*served_plan);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_TRUE(reparsed->Validate(model_, cluster_.num_devices()).ok());

  // A repeated identical request is a plan-cache hit whose
  // plan/estimated/search_stats fragments are byte-identical to the cold
  // run; only the plan_cache_hit marker flips.
  const HttpResponse warm = service.Handle(Post("/v1/plan", PlanRequestBody()));
  ASSERT_EQ(warm.status, 200) << warm.body;
  auto warm_json = ParseJson(warm.body);
  ASSERT_TRUE(warm_json.ok());
  auto warm_hit = GetBool(*warm_json, "plan_cache_hit");
  ASSERT_TRUE(warm_hit.ok());
  EXPECT_TRUE(*warm_hit);
  for (const char* field : {"plan", "estimated", "search_stats"}) {
    const JsonValue* cold_member = FindMember(*cold_json, field);
    const JsonValue* warm_member = FindMember(*warm_json, field);
    ASSERT_NE(cold_member, nullptr) << field;
    ASSERT_NE(warm_member, nullptr) << field;
    EXPECT_EQ(WriteJson(*cold_member), WriteJson(*warm_member)) << field;
  }
  EXPECT_EQ(metrics.plan_cache_hits(), 1);
  EXPECT_EQ(service.plan_cache_stats().hits, 1);

  // A deadline change must NOT change the cache key: results are
  // deadline-independent, only their arrival is.
  const HttpResponse with_deadline = service.Handle(
      Post("/v1/plan", PlanRequestBody(", \"deadline_ms\": 60000")));
  ASSERT_EQ(with_deadline.status, 200) << with_deadline.body;
  auto deadline_json = ParseJson(with_deadline.body);
  ASSERT_TRUE(deadline_json.ok());
  auto deadline_hit = GetBool(*deadline_json, "plan_cache_hit");
  ASSERT_TRUE(deadline_hit.ok());
  EXPECT_TRUE(*deadline_hit);
}

TEST_F(ServeTest, ExpiredDeadlineReturnsStructuredErrorNotAHang) {
  PlanService service;  // fresh service: nothing cached
  const HttpResponse response = service.Handle(
      Post("/v1/plan", PlanRequestBody(", \"deadline_ms\": 0.001")));
  EXPECT_EQ(response.status, 504) << response.body;
  auto body = ParseJson(response.body);
  ASSERT_TRUE(body.ok()) << response.body;
  const JsonValue* error = FindMember(*body, "error");
  ASSERT_NE(error, nullptr);
  auto code = GetString(*error, "code");
  ASSERT_TRUE(code.ok());
  EXPECT_EQ(*code, "Cancelled");
}

TEST_F(ServeTest, MalformedPlanRequestsGetStructured400s) {
  PlanService service;
  const std::vector<std::string> bad = {
      "",                                     // empty body
      "not json",                             // unparseable
      "[1, 2]",                               // not an object
      "{\"cluster\": {}}",                    // missing model
      "{\"model\": \"BERT-Huge-32\"}",        // missing cluster
      PlanRequestBody(", \"bogus\": 1"),      // unknown top-level key
      "{\"model\": \"no-such-model\", \"cluster\": " +
          ClusterSpecToJson(cluster_) + "}",  // unknown zoo name -> 404
      PlanRequestBody(", \"deadline_ms\": -5"),
      PlanRequestBody(", \"options\": {\"schedule\": \"warp\"}"),
      PlanRequestBody(", \"options\": {\"search_threads\": \"four\"}"),
  };
  for (const std::string& body : bad) {
    const HttpResponse response = service.Handle(Post("/v1/plan", body));
    EXPECT_GE(response.status, 400) << body;
    EXPECT_LT(response.status, 500) << body;
    auto parsed = ParseJson(response.body);
    ASSERT_TRUE(parsed.ok()) << "error body must be valid JSON: "
                             << response.body;
    EXPECT_NE(FindMember(*parsed, "error"), nullptr) << response.body;
  }
}

TEST_F(ServeTest, MeasureRunsTheSimulatorOnAServedPlan) {
  PlanService service;
  auto direct = Galvatron::Plan(model_, cluster_);
  ASSERT_TRUE(direct.ok());
  const std::string body =
      "{\"model\": \"BERT-Huge-32\", \"cluster\": " +
      ClusterSpecToJson(cluster_) + ", \"plan\": " +
      PlanToJson(direct->plan) + ", \"sim\": {\"check_memory\": true}}";
  const HttpResponse response = service.Handle(Post("/v1/measure", body));
  ASSERT_EQ(response.status, 200) << response.body;
  auto parsed = ParseJson(response.body);
  ASSERT_TRUE(parsed.ok());
  const JsonValue* metrics = FindMember(*parsed, "metrics");
  ASSERT_NE(metrics, nullptr);
  auto iteration = GetDouble(*metrics, "iteration_seconds");
  ASSERT_TRUE(iteration.ok());
  auto sim = Galvatron::Measure(model_, direct->plan, cluster_);
  ASSERT_TRUE(sim.ok());
  EXPECT_DOUBLE_EQ(*iteration, sim->iteration_seconds);
  auto oom = GetBool(*metrics, "oom");
  ASSERT_TRUE(oom.ok());
  EXPECT_FALSE(*oom);
}

TEST_F(ServeTest, MeasureExplainReturnsAttributionAndCountsInMetrics) {
  ServeMetrics serve_metrics;
  PlanServiceOptions options;
  options.metrics = &serve_metrics;
  PlanService service(options);
  auto direct = Galvatron::Plan(model_, cluster_);
  ASSERT_TRUE(direct.ok());
  const std::string common =
      "\"model\": \"BERT-Huge-32\", \"cluster\": " +
      ClusterSpecToJson(cluster_) + ", \"plan\": " + PlanToJson(direct->plan);

  // Without explain, no attribution key and no counter increment.
  const HttpResponse plain =
      service.Handle(Post("/v1/measure", "{" + common + "}"));
  ASSERT_EQ(plain.status, 200) << plain.body;
  auto plain_json = ParseJson(plain.body);
  ASSERT_TRUE(plain_json.ok());
  EXPECT_EQ(FindMember(*plain_json, "attribution"), nullptr);
  EXPECT_EQ(serve_metrics.explain(), 0);

  const HttpResponse response = service.Handle(
      Post("/v1/measure", "{" + common + ", \"explain\": true}"));
  ASSERT_EQ(response.status, 200) << response.body;
  auto parsed = ParseJson(response.body);
  ASSERT_TRUE(parsed.ok()) << parsed.status();

  // Metrics are unchanged by the traced run (same simulator arithmetic).
  const JsonValue* metrics = FindMember(*parsed, "metrics");
  ASSERT_NE(metrics, nullptr);
  auto iteration = GetDouble(*metrics, "iteration_seconds");
  ASSERT_TRUE(iteration.ok());
  auto sim = Galvatron::Measure(model_, direct->plan, cluster_);
  ASSERT_TRUE(sim.ok());
  EXPECT_DOUBLE_EQ(*iteration, sim->iteration_seconds);

  // The attribution summary conserves: critical path == makespan ==
  // iteration time, and the per-stream residuals are reported (tiny).
  const JsonValue* attribution = FindMember(*parsed, "attribution");
  ASSERT_NE(attribution, nullptr);
  auto makespan = GetDouble(*attribution, "makespan_sec");
  auto critical = GetDouble(*attribution, "critical_path_sec");
  ASSERT_TRUE(makespan.ok() && critical.ok());
  EXPECT_DOUBLE_EQ(*makespan, sim->iteration_seconds);
  EXPECT_NEAR(*critical, *makespan, 1e-9 * *makespan);
  ASSERT_NE(FindMember(*attribution, "categories"), nullptr);
  ASSERT_NE(FindMember(*attribution, "conservation"), nullptr);
  auto path = GetMember(*attribution, "critical_path",
                        JsonValue::Kind::kArray);
  ASSERT_TRUE(path.ok());
  EXPECT_LE((*path)->array.size(), 128u);  // the serving size cap

  // Counted in /metrics.
  EXPECT_EQ(serve_metrics.explain(), 1);
  const HttpResponse exposition = service.Handle(Get("/metrics"));
  EXPECT_NE(
      exposition.body.find("galvatron_serve_measure_explain_total 1"),
      std::string::npos)
      << exposition.body;
}

TEST_F(ServeTest, CalibrateFitsFromMeasuredTracesAndInvalidatesCaches) {
  ServeMetrics metrics;
  PlanServiceOptions options;
  options.metrics = &metrics;
  PlanService service(options);

  // Nothing measured yet: the fit is rejected, not fabricated.
  const HttpResponse premature = service.Handle(Post("/v1/calibrate", ""));
  EXPECT_EQ(premature.status, 422) << premature.body;
  EXPECT_EQ(metrics.calibration_rejected(), 1);
  EXPECT_EQ(metrics.calibration_applied(), 0);

  // Cold plan, then a byte-identical cache hit — the pre-calibration world.
  const HttpResponse cold = service.Handle(Post("/v1/plan", PlanRequestBody()));
  ASSERT_EQ(cold.status, 200) << cold.body;
  auto cold_json = ParseJson(cold.body);
  ASSERT_TRUE(cold_json.ok());
  {
    const HttpResponse hit = service.Handle(Post("/v1/plan", PlanRequestBody()));
    ASSERT_EQ(hit.status, 200);
    auto hit_json = ParseJson(hit.body);
    ASSERT_TRUE(hit_json.ok());
    EXPECT_TRUE(*GetBool(*hit_json, "plan_cache_hit"));
  }

  // A traced measure fills the calibration sample buffer.
  auto direct = Galvatron::Plan(model_, cluster_);
  ASSERT_TRUE(direct.ok());
  const std::string measure_body =
      "{\"model\": \"BERT-Huge-32\", \"cluster\": " +
      ClusterSpecToJson(cluster_) + ", \"plan\": " + PlanToJson(direct->plan) +
      ", \"explain\": true}";
  ASSERT_EQ(service.Handle(Post("/v1/measure", measure_body)).status, 200);
  {
    const HttpResponse exposition = service.Handle(Get("/metrics"));
    EXPECT_NE(exposition.body.find(
                  "galvatron_serve_calibration_staleness_measures 1"),
              std::string::npos)
        << exposition.body;
  }

  // The fit applies (empty body = defaults) and returns the full profile.
  const HttpResponse applied = service.Handle(Post("/v1/calibrate", ""));
  ASSERT_EQ(applied.status, 200) << applied.body;
  auto applied_json = ParseJson(applied.body);
  ASSERT_TRUE(applied_json.ok()) << applied_json.status();
  EXPECT_TRUE(*GetBool(*applied_json, "applied"));
  auto version = GetInt64(*applied_json, "version", 0);
  ASSERT_TRUE(version.ok());
  EXPECT_EQ(*version, 1);
  const JsonValue* profile_value = FindMember(*applied_json, "profile");
  ASSERT_NE(profile_value, nullptr);
  auto profile = calibrate::CalibrationProfileFromJsonValue(*profile_value);
  ASSERT_TRUE(profile.ok()) << profile.status();
  EXPECT_FALSE(profile->groups.empty());
  EXPECT_EQ(metrics.calibration_applied(), 1);

  // The swap invalidated the plan cache: the same request misses, searches
  // under the fitted profile, and only THEN becomes a hit again.
  const HttpResponse recal = service.Handle(Post("/v1/plan", PlanRequestBody()));
  ASSERT_EQ(recal.status, 200) << recal.body;
  auto recal_json = ParseJson(recal.body);
  ASSERT_TRUE(recal_json.ok());
  EXPECT_FALSE(*GetBool(*recal_json, "plan_cache_hit"));
  // Calibrated pricing genuinely moved the estimate (the simulator's jitter
  // guarantees fitted scales != 1).
  const JsonValue* cold_estimated = FindMember(*cold_json, "estimated");
  const JsonValue* recal_estimated = FindMember(*recal_json, "estimated");
  ASSERT_NE(cold_estimated, nullptr);
  ASSERT_NE(recal_estimated, nullptr);
  EXPECT_NE(WriteJson(*recal_estimated), WriteJson(*cold_estimated));
  {
    const HttpResponse hit = service.Handle(Post("/v1/plan", PlanRequestBody()));
    auto hit_json = ParseJson(hit.body);
    ASSERT_TRUE(hit_json.ok());
    EXPECT_TRUE(*GetBool(*hit_json, "plan_cache_hit"));
  }
  {
    const HttpResponse exposition = service.Handle(Get("/metrics"));
    EXPECT_NE(exposition.body.find(
                  "galvatron_serve_calibration_applied_total 1"),
              std::string::npos);
    EXPECT_NE(exposition.body.find(
                  "galvatron_serve_calibration_rejected_total 1"),
              std::string::npos);
    EXPECT_NE(exposition.body.find(
                  "galvatron_serve_calibration_staleness_measures 0"),
              std::string::npos)
        << "applying the fit must reset the staleness gauge";
  }

  // Reset drops the profile AND advances the version; the next search runs
  // uncalibrated and reproduces the original cold fragments byte-for-byte.
  const HttpResponse reset =
      service.Handle(Post("/v1/calibrate", "{\"reset\": true}"));
  ASSERT_EQ(reset.status, 200) << reset.body;
  auto reset_json = ParseJson(reset.body);
  ASSERT_TRUE(reset_json.ok());
  EXPECT_FALSE(*GetBool(*reset_json, "applied"));
  EXPECT_TRUE(*GetBool(*reset_json, "reset"));
  const HttpResponse post_reset =
      service.Handle(Post("/v1/plan", PlanRequestBody()));
  ASSERT_EQ(post_reset.status, 200);
  auto post_reset_json = ParseJson(post_reset.body);
  ASSERT_TRUE(post_reset_json.ok());
  EXPECT_FALSE(*GetBool(*post_reset_json, "plan_cache_hit"));
  // search_stats is excluded: it embeds wall-clock search_seconds, which a
  // fresh (if identical) search cannot reproduce.
  for (const char* field : {"plan", "estimated"}) {
    const JsonValue* before = FindMember(*cold_json, field);
    const JsonValue* after = FindMember(*post_reset_json, field);
    ASSERT_NE(before, nullptr) << field;
    ASSERT_NE(after, nullptr) << field;
    EXPECT_EQ(WriteJson(*after), WriteJson(*before)) << field;
  }
  // Resetting also cleared the sample buffer.
  EXPECT_EQ(service.Handle(Post("/v1/calibrate", "")).status, 422);
}

TEST_F(ServeTest, CalibrateRejectsHostileRequests) {
  PlanService service;
  EXPECT_EQ(service.Handle(Get("/v1/calibrate")).status, 405);
  EXPECT_EQ(service.Handle(Post("/v1/calibrate", "not json")).status, 400);
  EXPECT_EQ(service.Handle(Post("/v1/calibrate", "[]")).status, 400);
  EXPECT_EQ(
      service.Handle(Post("/v1/calibrate", "{\"bogus_key\": 1}")).status, 400);
  EXPECT_EQ(
      service.Handle(Post("/v1/calibrate", "{\"reset\": \"yes\"}")).status,
      400);
  EXPECT_EQ(service
                .Handle(Post("/v1/calibrate",
                             "{\"min_group_samples\": 0}"))
                .status,
            400);
  EXPECT_EQ(service
                .Handle(Post("/v1/calibrate",
                             "{\"min_group_samples\": 10000000}"))
                .status,
            400);

  // Capture disabled: /v1/calibrate is a structured 422, never a crash.
  PlanServiceOptions no_capture;
  no_capture.calibration_sample_capacity = 0;
  PlanService disabled(no_capture);
  auto direct = Galvatron::Plan(model_, cluster_);
  ASSERT_TRUE(direct.ok());
  const std::string measure_body =
      "{\"model\": \"BERT-Huge-32\", \"cluster\": " +
      ClusterSpecToJson(cluster_) + ", \"plan\": " + PlanToJson(direct->plan) +
      ", \"explain\": true}";
  ASSERT_EQ(disabled.Handle(Post("/v1/measure", measure_body)).status, 200);
  EXPECT_EQ(disabled.Handle(Post("/v1/calibrate", "")).status, 422);
}

TEST_F(ServeTest, MetricsExpositionCountsRequestsAndCacheOutcomes) {
  ServeMetrics metrics;
  PlanServiceOptions options;
  options.metrics = &metrics;
  PlanService service(options);
  ASSERT_EQ(service.Handle(Post("/v1/plan", PlanRequestBody())).status, 200);
  ASSERT_EQ(service.Handle(Post("/v1/plan", PlanRequestBody())).status, 200);
  const HttpResponse exposition = service.Handle(Get("/metrics"));
  EXPECT_EQ(exposition.status, 200);
  EXPECT_NE(exposition.content_type.find("text/plain"), std::string::npos);
  EXPECT_NE(exposition.body.find("galvatron_serve_plan_cache_hits_total 1"),
            std::string::npos)
      << exposition.body;
  EXPECT_NE(exposition.body.find("galvatron_serve_plan_cache_misses_total 1"),
            std::string::npos);
  EXPECT_NE(exposition.body.find("galvatron_serve_plan_cache_size 1"),
            std::string::npos);
  EXPECT_NE(exposition.body.find("galvatron_serve_cost_cache_hits_total"),
            std::string::npos);
  // Request counts and latency histograms are recorded by the HttpServer
  // layer, exercised in the loopback tests below; here the exposition just
  // has to carry the metric families.
  EXPECT_NE(exposition.body.find("galvatron_serve_requests_total"),
            std::string::npos);
  EXPECT_NE(exposition.body.find("galvatron_serve_rejected_total 0"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Loopback tests: a real HttpServer on an ephemeral port.
// ---------------------------------------------------------------------------

/// Sends raw bytes to the server, half-closes the write side, and returns
/// everything the server answers — for exercising framing errors a
/// well-formed client cannot produce.
std::string RawExchange(int port, const std::string& bytes) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  (void)!::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
  ::shutdown(fd, SHUT_WR);
  std::string response;
  char buffer[4096];
  ssize_t n;
  while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
    response.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(ServeLoopbackTest, HealthzOverARealSocket) {
  PlanService service;
  HttpServerOptions options;
  auto server = HttpServer::Start(
      options, [&](const HttpRequest& r) { return service.Handle(r); });
  ASSERT_TRUE(server.ok()) << server.status();
  auto response = HttpFetch("127.0.0.1", (*server)->port(), "GET", "/healthz",
                            "", /*timeout_ms=*/5000);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->status, 200);
  EXPECT_NE(response->body.find("\"status\": \"ok\""), std::string::npos);
  (*server)->Shutdown();
}

TEST(ServeLoopbackTest, HostileFramingGetsStructuredErrorsNeverAHang) {
  PlanService service;
  HttpServerOptions options;
  options.max_body_bytes = 1024;
  options.io_timeout_ms = 300;
  auto server = HttpServer::Start(
      options, [&](const HttpRequest& r) { return service.Handle(r); });
  ASSERT_TRUE(server.ok()) << server.status();
  const int port = (*server)->port();

  // Garbage request line -> 400 with a JSON error body.
  std::string response = RawExchange(port, "NOT_HTTP\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.1 400"), std::string::npos) << response;
  EXPECT_NE(response.find("\"error\""), std::string::npos);

  // Declared Content-Length above the limit -> 413 before the body is read.
  response = RawExchange(port,
                         "POST /v1/plan HTTP/1.1\r\nHost: x\r\n"
                         "Content-Length: 999999999\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.1 413"), std::string::npos) << response;

  // Truncated body (peer half-closes mid-request) -> 408.
  response = RawExchange(port,
                         "POST /v1/plan HTTP/1.1\r\nHost: x\r\n"
                         "Content-Length: 100\r\n\r\n{\"model\":");
  EXPECT_NE(response.find("HTTP/1.1 408"), std::string::npos) << response;

  // Transfer-Encoding is not implemented -> 501.
  response = RawExchange(port,
                         "POST /v1/plan HTTP/1.1\r\nHost: x\r\n"
                         "Transfer-Encoding: chunked\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.1 501"), std::string::npos) << response;

  // An oversized body through the well-formed client path too.
  const std::string big(2048, 'x');
  auto fetched = HttpFetch("127.0.0.1", port, "POST", "/v1/plan", big, 5000);
  ASSERT_TRUE(fetched.ok()) << fetched.status();
  EXPECT_EQ(fetched->status, 413);

  (*server)->Shutdown();
}

TEST(ServeLoopbackTest, AdmissionControlAnswers429BeyondMaxInFlight) {
  std::mutex mu;
  std::condition_variable cv;
  bool entered = false;
  bool release = false;

  HttpServerOptions options;
  options.max_in_flight = 1;
  options.num_threads = 2;
  auto server = HttpServer::Start(options, [&](const HttpRequest&) {
    {
      std::unique_lock<std::mutex> lock(mu);
      entered = true;
      cv.notify_all();
      cv.wait(lock, [&] { return release; });
    }
    HttpResponse ok;
    ok.body = "{}";
    return ok;
  });
  ASSERT_TRUE(server.ok()) << server.status();
  const int port = (*server)->port();

  std::atomic<int> first_status{0};
  std::thread first([&] {
    auto response = HttpFetch("127.0.0.1", port, "GET", "/healthz", "", 10000);
    first_status.store(response.ok() ? response->status : -1);
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return entered; });
  }
  // The slot is occupied: the accept thread must turn us away with 429.
  auto rejected = HttpFetch("127.0.0.1", port, "GET", "/healthz", "", 10000);
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  first.join();
  ASSERT_TRUE(rejected.ok()) << rejected.status();
  EXPECT_EQ(rejected->status, 429);
  EXPECT_NE(rejected->body.find("\"error\""), std::string::npos);
  EXPECT_EQ(first_status.load(), 200);
  (*server)->Shutdown();
}

TEST(ServeLoopbackTest, ShutdownDrainsInFlightRequests) {
  std::atomic<bool> finished{false};
  std::mutex mu;
  std::condition_variable cv;
  bool started = false;
  HttpServerOptions options;
  auto server = HttpServer::Start(options, [&](const HttpRequest&) {
    {
      std::lock_guard<std::mutex> lock(mu);
      started = true;
    }
    cv.notify_all();
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    finished.store(true);
    HttpResponse ok;
    ok.body = "{\"drained\": true}";
    return ok;
  });
  ASSERT_TRUE(server.ok()) << server.status();
  const int port = (*server)->port();

  std::atomic<int> client_status{0};
  std::string client_body;
  std::thread client([&] {
    auto response = HttpFetch("127.0.0.1", port, "GET", "/x", "", 10000);
    client_status.store(response.ok() ? response->status : -1);
    if (response.ok()) client_body = response->body;
  });
  // Wait until the handler has started, then shut down: Shutdown must
  // block until the handler finished and the response was written. (The
  // timeout only bounds a failure in which the request never arrives.)
  bool handler_started = false;
  {
    std::unique_lock<std::mutex> lock(mu);
    handler_started =
        cv.wait_for(lock, std::chrono::seconds(30), [&] { return started; });
  }
  EXPECT_TRUE(handler_started) << "the request never reached its handler";
  (*server)->Shutdown();
  EXPECT_TRUE(finished.load());
  client.join();
  EXPECT_EQ(client_status.load(), 200);
  EXPECT_NE(client_body.find("drained"), std::string::npos);
}

// Concurrent stress over the full stack: many clients hammering one server
// with a mix of cached plans, metrics scrapes and malformed bodies. Under a
// -DGALVATRON_SANITIZE=thread build this is the serving data-race smoke
// (`ctest -L tsan`); in a plain build it is a liveness check.
TEST(ServeStressTest, ConcurrentMixedTrafficStaysConsistent) {
  const ClusterSpec cluster = MakeTitanNode8(16 * kGB);
  ServeMetrics metrics;
  PlanServiceOptions service_options;
  service_options.metrics = &metrics;
  PlanService service(service_options);
  HttpServerOptions options;
  options.num_threads = 4;
  options.max_in_flight = 64;
  options.metrics = &metrics;
  auto server = HttpServer::Start(
      options, [&](const HttpRequest& r) { return service.Handle(r); });
  ASSERT_TRUE(server.ok()) << server.status();
  const int port = (*server)->port();

  const std::string plan_body =
      "{\"model\": \"BERT-Huge-32\", \"cluster\": " +
      ClusterSpecToJson(cluster) + "}";
  // Warm the plan cache once so the stress loop exercises the concurrent
  // hit path instead of running one full sweep per request.
  {
    auto warm =
        HttpFetch("127.0.0.1", port, "POST", "/v1/plan", plan_body, 120000);
    ASSERT_TRUE(warm.ok()) << warm.status();
    ASSERT_EQ(warm->status, 200) << warm->body;
  }

  constexpr int kThreads = 8;
  constexpr int kIterations = 6;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kIterations; ++i) {
        int expect;
        std::string method = "POST", target = "/v1/plan", body;
        switch ((t + i) % 4) {
          case 0:
            body = plan_body;
            expect = 200;
            break;
          case 1:
            method = "GET";
            target = "/metrics";
            expect = 200;
            break;
          case 2:
            method = "GET";
            target = "/healthz";
            expect = 200;
            break;
          default:
            body = "{\"model\": 42}";
            expect = 400;
            break;
        }
        auto response =
            HttpFetch("127.0.0.1", port, method, target, body, 120000);
        if (!response.ok() || response->status != expect) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(metrics.plan_cache_hits(), kThreads * kIterations / 4 - 1);
  (*server)->Shutdown();
}

/// Strips the trailing plan_cache_hit marker so responses can be compared
/// for payload byte-identity regardless of which fast path answered them.
std::string PlanPayload(const std::string& body) {
  const size_t cut = body.rfind(", \"plan_cache_hit\"");
  return cut == std::string::npos ? body : body.substr(0, cut);
}

TEST_F(ServeTest, ConcurrentIdenticalRequestsCoalesceIntoOneSearch) {
  ServeMetrics metrics;
  PlanServiceOptions options;
  options.metrics = &metrics;
  PlanService service(options);

  // Six clients fire the same cold request at once. Singleflight must run
  // ONE search: the first arrival leads, the rest block on it and replay
  // its response byte-for-byte (a straggler that arrives after the leader
  // finished hits the plan cache instead — either way, no second search).
  // Recompute makes the search long (~0.2 s on a 4-vCPU host) next to
  // starting the other clients, so at least one of them finds it in
  // flight even on a loaded host.
  constexpr int kClients = 6;
  const std::string body =
      PlanRequestBody(", \"options\": {\"allow_recompute\": true}");
  std::vector<HttpResponse> responses(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      responses[t] = service.Handle(Post("/v1/plan", body));
    });
  }
  for (std::thread& client : clients) client.join();

  for (int t = 0; t < kClients; ++t) {
    ASSERT_EQ(responses[t].status, 200) << responses[t].body;
    EXPECT_EQ(PlanPayload(responses[t].body), PlanPayload(responses[0].body))
        << "client " << t;
  }
  // Exactly one search ran: every other client either coalesced onto the
  // in-flight leader or replayed the already-cached response.
  EXPECT_EQ(metrics.coalesced() + metrics.plan_cache_hits(), kClients - 1);
  EXPECT_GE(metrics.coalesced(), 1);
  EXPECT_EQ(service.plan_cache_stats().size, 1u);
}

TEST_F(ServeTest, AsyncPlanPollsToAByteIdenticalResponse) {
  PlanService service;

  const HttpResponse accepted =
      service.Handle(Post("/v1/plan", PlanRequestBody(", \"async\": true")));
  ASSERT_EQ(accepted.status, 202) << accepted.body;
  auto ticket = ParseJson(accepted.body);
  ASSERT_TRUE(ticket.ok()) << ticket.status();
  auto id = GetString(*ticket, "plan_id");
  auto poll = GetString(*ticket, "poll");
  ASSERT_TRUE(id.ok() && poll.ok()) << accepted.body;
  EXPECT_EQ(*poll, "/v1/plan/" + *id);

  HttpResponse finished;
  for (int i = 0; i < 2400; ++i) {
    finished = service.Handle(Get(*poll));
    if (finished.status != 202) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ASSERT_EQ(finished.status, 200) << finished.body;

  // The async answer IS the cold search result: a synchronous repeat on
  // the same service replays it from the plan cache with an identical
  // payload, and the served plan matches a direct library call.
  const HttpResponse replay =
      service.Handle(Post("/v1/plan", PlanRequestBody()));
  ASSERT_EQ(replay.status, 200) << replay.body;
  auto replay_json = ParseJson(replay.body);
  ASSERT_TRUE(replay_json.ok());
  auto replay_hit = GetBool(*replay_json, "plan_cache_hit");
  ASSERT_TRUE(replay_hit.ok());
  EXPECT_TRUE(*replay_hit);
  EXPECT_EQ(PlanPayload(finished.body), PlanPayload(replay.body));

  auto finished_json = ParseJson(finished.body);
  ASSERT_TRUE(finished_json.ok()) << finished_json.status();
  const JsonValue* served_plan = FindMember(*finished_json, "plan");
  ASSERT_NE(served_plan, nullptr);
  auto direct = Galvatron::Plan(model_, cluster_);
  ASSERT_TRUE(direct.ok()) << direct.status();
  auto direct_json = ParseJson(PlanToJson(direct->plan));
  ASSERT_TRUE(direct_json.ok());
  EXPECT_EQ(WriteJson(*served_plan), WriteJson(*direct_json));

  // Unknown and evicted ids are structured 404s, and polling is GET-only.
  EXPECT_EQ(service.Handle(Get("/v1/plan/no-such-job")).status, 404);
  EXPECT_EQ(service.Handle(Post("/v1/plan/" + *id, "")).status, 405);
}

TEST_F(ServeTest, NearMissBudgetWarmStartsFromCachedFrontiers) {
  ServeMetrics metrics;
  PlanServiceOptions options;
  options.metrics = &metrics;
  PlanService service(options);

  // Prime at a larger per-device budget; the request differs from the
  // acceptance instance only in device memory, so it shares the same
  // PlanningContext (and its DpFrontierCache) but not the plan-cache key.
  const ClusterSpec big = MakeTitanNode8(24 * kGB);
  const std::string prime_body = "{\"model\": \"" +
                                 std::string(ModelIdToString(ModelId::kBertHuge32)) +
                                 "\", \"cluster\": " + ClusterSpecToJson(big) + "}";
  const HttpResponse prime = service.Handle(Post("/v1/plan", prime_body));
  ASSERT_EQ(prime.status, 200) << prime.body;
  // The prime's own pipeline stages replay frontiers it built itself; a
  // search on a context it just created is not a warm start.
  EXPECT_EQ(metrics.warm_start(), 0);

  // The 16 GB request is a near miss: a real search (not a replay), but
  // one whose DP columns come back from the frontier cache.
  const HttpResponse warm = service.Handle(Post("/v1/plan", PlanRequestBody()));
  ASSERT_EQ(warm.status, 200) << warm.body;
  auto warm_json = ParseJson(warm.body);
  ASSERT_TRUE(warm_json.ok());
  auto hit = GetBool(*warm_json, "plan_cache_hit");
  ASSERT_TRUE(hit.ok());
  EXPECT_FALSE(*hit);
  const JsonValue* stats = FindMember(*warm_json, "search_stats");
  ASSERT_NE(stats, nullptr);
  auto frontier_hits = GetInt64(*stats, "dp_frontier_hits", 0);
  ASSERT_TRUE(frontier_hits.ok()) << warm.body;
  EXPECT_GT(*frontier_hits, 0);
  auto external = GetBool(*stats, "used_external_cost_cache");
  ASSERT_TRUE(external.ok());
  EXPECT_TRUE(*external);
  EXPECT_EQ(metrics.warm_start(), 1);

  // Warm-started answers are byte-identical to a fully cold service's.
  PlanService cold_service;
  const HttpResponse cold =
      cold_service.Handle(Post("/v1/plan", PlanRequestBody()));
  ASSERT_EQ(cold.status, 200) << cold.body;
  auto cold_json = ParseJson(cold.body);
  ASSERT_TRUE(cold_json.ok());
  for (const char* field : {"plan", "estimated"}) {
    const JsonValue* warm_member = FindMember(*warm_json, field);
    const JsonValue* cold_member = FindMember(*cold_json, field);
    ASSERT_NE(warm_member, nullptr) << field;
    ASSERT_NE(cold_member, nullptr) << field;
    EXPECT_EQ(WriteJson(*warm_member), WriteJson(*cold_member)) << field;
  }
}

/// search_stats carries the sweep's prune, feasibility and stage-table
/// counters: a request on a fresh context fills the stage table, and a
/// budget-only variant on the same context reads it.
TEST_F(ServeTest, SearchStatsReportStageTableAndPruneCounters) {
  PlanService service;
  auto stats_of = [&](const ClusterSpec& cluster) {
    const std::string body =
        "{\"model\": \"" + std::string(ModelIdToString(ModelId::kBertHuge32)) +
        "\", \"cluster\": " + ClusterSpecToJson(cluster) + "}";
    const HttpResponse response = service.Handle(Post("/v1/plan", body));
    EXPECT_EQ(response.status, 200) << response.body;
    auto json = ParseJson(response.body);
    EXPECT_TRUE(json.ok()) << json.status();
    std::map<std::string, int64_t> counters;
    const JsonValue* stats =
        json.ok() ? FindMember(*json, "search_stats") : nullptr;
    EXPECT_NE(stats, nullptr) << response.body;
    if (stats == nullptr) return counters;
    for (const char* field :
         {"stage_table_hits", "stage_table_misses", "configs_pruned",
          "dp_infeasible_skipped", "dp_drafts_over_budget"}) {
      auto value = GetInt64(*stats, field, 0);
      EXPECT_TRUE(value.ok()) << field << ": " << response.body;
      counters[field] = value.ok() ? *value : -1;
    }
    return counters;
  };
  std::map<std::string, int64_t> cold = stats_of(MakeTitanNode8(24 * kGB));
  EXPECT_GT(cold["stage_table_misses"], 0);
  EXPECT_GT(cold["stage_table_hits"], 0);  // the pipelines' equal stages
  EXPECT_GT(cold["configs_pruned"], 0);
  EXPECT_GE(cold["dp_infeasible_skipped"], 0);
  EXPECT_GE(cold["dp_drafts_over_budget"], 0);
  std::map<std::string, int64_t> warm = stats_of(MakeTitanNode8(16 * kGB));
  EXPECT_GT(warm["stage_table_hits"], 0);
  EXPECT_EQ(warm["stage_table_misses"], 0);
  EXPECT_GT(warm["configs_pruned"], 0);
  EXPECT_GE(warm["dp_infeasible_skipped"], 0);
  EXPECT_GE(warm["dp_drafts_over_budget"], 0);
}

/// A memory granularity too fine for the request's budget is a 400: the
/// stage searches would size their scratch by the budget units.
TEST_F(ServeTest, GranularityTooFineForTheBudgetIsABadRequest) {
  PlanService service;
  const HttpResponse response = service.Handle(Post(
      "/v1/plan", PlanRequestBody(", \"options\": {\"memory_granularity\": 1}")));
  EXPECT_EQ(response.status, 400) << response.body;
  EXPECT_NE(response.body.find("granularity"), std::string::npos)
      << response.body;
}

/// A 256-layer BERT on the 8-GPU node: a cold search far longer than any
/// test should wait for.
ModelSpec Bert256() {
  BertConfig config;
  config.num_layers = 256;
  return BuildBert("bert-256-deadline", config);
}

TEST_F(ServeTest, DeadlinePassedBeforeTheFirstPollCancelsA256LayerSearch) {
  // Regression: the deadline used to be enforced only around request
  // framing, so a request whose search was already running burned a worker
  // for the full sweep. The deadline is now a cancel hook the sweep polls;
  // a deadline that has passed before the first poll must come back 504
  // promptly, not after the table completes. The deadline is 1 ns so the
  // test never races the search: the model is infeasible on this cluster,
  // and its search can end (422) inside a deadline of a few milliseconds.
  const std::string body =
      "{\"model\": " + ModelSpecToJson(Bert256()) +
      ", \"cluster\": " + ClusterSpecToJson(cluster_) +
      ", \"deadline_ms\": 0.000001}";

  PlanService service;
  const auto start = std::chrono::steady_clock::now();
  const HttpResponse response = service.Handle(Post("/v1/plan", body));
  const double elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_EQ(response.status, 504) << response.body;
  EXPECT_NE(response.body.find("\"error\""), std::string::npos);
  EXPECT_NE(response.body.find("Cancelled"), std::string::npos);
  // Generous CI bound, still orders of magnitude below the full sweep.
  EXPECT_LT(elapsed_seconds, 10.0);
}

TEST_F(ServeTest, PlanCancelHookStopsTheSweepOnItsThirdPoll) {
  // The clock-free form of the deadline test: a cancel hook that reports
  // cancellation on its 3rd poll stops the 256-layer search with
  // Cancelled, and the sweep never polls it again after that.
  int calls = 0;
  SearchHooks hooks;
  hooks.cancel = [&calls] { return ++calls == 3; };
  auto result = Galvatron::Plan(Bert256(), cluster_, {}, hooks);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCancelled()) << result.status();
  EXPECT_EQ(calls, 3);
}

TEST_F(ServeTest, RemovedKernelOptionIsRejectedByName) {
  PlanService service;
  const HttpResponse response = service.Handle(Post(
      "/v1/plan",
      PlanRequestBody(", \"options\": {\"use_sparse_dp\": true}")));
  EXPECT_EQ(response.status, 400) << response.body;
  EXPECT_NE(response.body.find("use_sparse_dp"), std::string::npos)
      << response.body;
}

}  // namespace
}  // namespace serve
}  // namespace galvatron
