/// Tests for the parallel search machinery: the thread pool, the shared
/// thread-safe cost cache (including the transform-cache aliasing
/// regression), and end-to-end optimizer determinism under threading.
/// These are the tests to run under -DGALVATRON_SANITIZE=thread (they carry
/// the "tsan" ctest label).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/plan_io.h"

#include "cluster/cluster.h"
#include "estimator/cost_estimator.h"
#include "ir/model_zoo.h"
#include "ir/transformer_builder.h"
#include "parallel/decision_tree.h"
#include "parallel/transformation.h"
#include "search/cost_cache.h"
#include "search/dp_search.h"
#include "search/frontier_cache.h"
#include "search/optimizer.h"
#include "search/wave_pipeline.h"
#include "util/thread_pool.h"

namespace galvatron {
namespace {

HybridStrategy Make(
    const std::vector<std::pair<ParallelDim, int>>& levels) {
  std::vector<ParallelComponent> components;
  for (const auto& [dim, degree] : levels) {
    components.push_back({dim, degree});
  }
  auto s = HybridStrategy::Create(components);
  EXPECT_TRUE(s.ok()) << s.status();
  return *s;
}

/// c(l, s) through the keyed lookup, with the key built the way DpSearch
/// builds it: a stage at device 0 running 16 samples in one micro-batch,
/// all of them resident.
Result<LayerCost> LayerAt(SharedCostCache& cache, int layer,
                          const HybridStrategy& strategy) {
  LayerCostKey key;
  key.layer_sig = cache.InternSignature(layer);
  key.strategy = cache.InternStrategy(strategy);
  key.fingerprint = cache.InternFingerprint(0, strategy.TotalDegree());
  key.batch_per_group = 16;
  key.micro_batches = 1;
  key.resident_micro_batches = -1;
  key.recompute = 0;
  return cache.Layer(key, layer, strategy, 0);
}

/// R(l, prev, next) through the keyed lookup, for micro-batches of 16.
Result<double> TransformAt(SharedCostCache& cache, int layer,
                           const HybridStrategy& prev,
                           const HybridStrategy& next) {
  TransformCostKey key;
  key.prev_sig = cache.InternSignature(layer - 1);
  key.next_sig = cache.InternSignature(layer);
  key.prev_strategy = TransformClassOf(prev);
  key.next_strategy = TransformClassOf(next);
  key.fingerprint = cache.InternFingerprint(0, prev.TotalDegree());
  key.mb_size = 16;
  return cache.TransformSeconds(key, layer, prev, next, 0);
}

TEST(ThreadPoolTest, RunsEveryTaskAcrossWaves) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  std::atomic<int> count{0};
  for (int wave = 0; wave < 3; ++wave) {
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&count] { count.fetch_add(1); });
    }
    pool.Wait();
    EXPECT_EQ(count.load(), (wave + 1) * 100);
  }
}

TEST(ThreadPoolTest, WaitWithNothingSubmittedReturns) {
  ThreadPool pool(2);
  pool.Wait();  // must not deadlock
}

TEST(ThreadPoolTest, HardwareThreadsAtLeastOne) {
  EXPECT_GE(ThreadPool::HardwareThreads(), 1);
}

TEST(ThreadPoolTest, TaskExceptionDoesNotDeadlockWait) {
  // Regression: a throwing task used to skip the in-flight decrement, so
  // the first exception left Wait() blocked forever on a count that could
  // never reach zero.
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  for (int i = 0; i < 50; ++i) {
    pool.Submit([&ran, i] {
      ran.fetch_add(1);
      if (i % 10 == 3) throw std::runtime_error("boom");
    });
  }
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  EXPECT_EQ(ran.load(), 50);  // the wave drained despite the throwers

  // The pool is not poisoned: the next wave runs and its Wait() neither
  // deadlocks nor rethrows a stale exception.
  std::atomic<int> second{0};
  for (int i = 0; i < 20; ++i) {
    pool.Submit([&second] { second.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(second.load(), 20);
}

TEST(ThreadPoolTest, WaitRethrowsTheTaskExceptionThenClearsIt) {
  ThreadPool pool(2);
  pool.Submit([] { throw std::runtime_error("task failure"); });
  try {
    pool.Wait();
    FAIL() << "Wait() must rethrow the task's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task failure");
  }
  pool.Wait();  // cleared by the rethrow: second Wait() is clean
}

TEST(ParallelForTest, NullPoolRunsInlineInIndexOrder) {
  std::vector<int> order;  // no lock needed: inline = caller's thread
  ParallelFor(nullptr, 5, [&order](int i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelForTest, PoolRunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr int kCount = 200;
  std::vector<std::atomic<int>> hits(kCount);
  ParallelFor(&pool, kCount, [&hits](int i) {
    hits[static_cast<size_t>(i)].fetch_add(1);
  });
  for (int i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1) << i;
  }
}

TEST(ParallelForTest, CountAtMostMinGrainRunsInlineInIndexOrder) {
  // Tiny waves are not worth shipping to workers: with count <= min_grain
  // the loop runs on the caller, in order (no lock needed on `order`).
  ThreadPool pool(4);
  std::vector<int> order;
  ParallelFor(
      &pool, 8, [&order](int i) { order.push_back(i); }, /*min_grain=*/8);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(ParallelForTest, MinGrainChunksCoverEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  constexpr int kCount = 1000;  // not a multiple of the chunk size
  std::vector<std::atomic<int>> hits(kCount);
  ParallelFor(
      &pool, kCount,
      [&hits](int i) { hits[static_cast<size_t>(i)].fetch_add(1); },
      /*min_grain=*/64);
  for (int i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1) << i;
  }
}

TEST(ParallelForTest, BodyExceptionPropagatesAndPoolSurvives) {
  ThreadPool pool(4);
  EXPECT_THROW(ParallelFor(&pool, 64,
                           [](int i) {
                             if (i == 17) {
                               throw std::runtime_error("bad index");
                             }
                           }),
               std::runtime_error);
  // The same pool still completes a follow-up wave in full.
  constexpr int kCount = 64;
  std::vector<std::atomic<int>> hits(kCount);
  ParallelFor(&pool, kCount, [&hits](int i) {
    hits[static_cast<size_t>(i)].fetch_add(1);
  });
  for (int i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1) << i;
  }
}

/// A 4-layer stack [A, B, A, C] where both A's share a signature but their
/// successors B and C differ in input size. The transform cache used to key
/// R(L, S_i, S_j) by the PREDECESSOR's signature only, so the A->B and A->C
/// boundaries aliased to one entry.
ModelSpec HeterogeneousStack() {
  TransformerBlockDims a;
  a.seq = 128;
  a.hidden = 512;
  a.heads = 8;
  a.intermediate = 2048;
  a.attend_width = 128;
  TransformerBlockDims b = a;
  b.seq = 256;
  b.attend_width = 256;
  TransformerBlockDims c = a;
  c.seq = 512;
  c.attend_width = 512;
  return ModelSpec("hetero",
                   {BuildEncoderLayer("a", a), BuildEncoderLayer("b", b),
                    BuildEncoderLayer("a", a), BuildEncoderLayer("c", c)});
}

class CostCacheTest : public ::testing::Test {
 protected:
  CostCacheTest()
      : cluster_(MakeTitanNode8(16 * kGB)),
        estimator_(&cluster_),
        model_(HeterogeneousStack()) {}

  ClusterSpec cluster_;
  CostEstimator estimator_;
  ModelSpec model_;
};

TEST_F(CostCacheTest, TransformKeyDistinguishesSuccessorLayers) {
  ASSERT_EQ(model_.layer(0).signature(), model_.layer(2).signature());
  ASSERT_NE(model_.layer(1).signature(), model_.layer(3).signature());

  SharedCostCache cache(&estimator_, &model_);
  // dp8 -> tp8 re-gathers the full batch of the SUCCESSOR layer's input.
  const HybridStrategy dp8 = Make({{ParallelDim::kData, 8}});
  const HybridStrategy tp8 = Make({{ParallelDim::kTensor, 8}});
  auto a_to_b = TransformAt(cache, 1, dp8, tp8);
  auto a_to_c = TransformAt(cache, 3, dp8, tp8);
  ASSERT_TRUE(a_to_b.ok());
  ASSERT_TRUE(a_to_c.ok());
  // Same predecessor signature, different successors: the costs must
  // differ (C's input is 4x B's). A predecessor-only key returns the
  // first-computed value for both.
  EXPECT_NE(*a_to_b, *a_to_c);

  // And each matches the uncached transformation cost exactly.
  auto direct_b = ComputeTransformationCost(model_.layer(0), model_.layer(1),
                                            dp8, tp8, 0, 16, cluster_);
  auto direct_c = ComputeTransformationCost(model_.layer(2), model_.layer(3),
                                            dp8, tp8, 0, 16, cluster_);
  ASSERT_TRUE(direct_b.ok());
  ASSERT_TRUE(direct_c.ok());
  EXPECT_DOUBLE_EQ(*a_to_b, direct_b->seconds);
  EXPECT_DOUBLE_EQ(*a_to_c, direct_c->seconds);
}

TEST_F(CostCacheTest, DpSearchMatchesEstimateStageOnHeterogeneousStack) {
  // End-to-end regression: the DP's internal (cached) cost of its own
  // winning assignment must equal the estimator's uncached cost of the
  // one-stage plan it describes. With the aliased transform cache the DP
  // claimed a wrong total at the A->C boundary.
  auto candidates = EnumerateSingleLayerStrategies(8);
  ASSERT_TRUE(candidates.ok());
  DpSearch search(&estimator_);
  auto result = search.Run(model_, 0, model_.num_layers(), *candidates, 0,
                           16, 1, 16 * kGB);
  ASSERT_TRUE(result.ok()) << result.status();
  TrainingPlan plan;
  plan.model_name = model_.name();
  plan.global_batch = 16;
  StagePlan& stage = plan.stages.emplace_back();
  stage.num_devices = 8;
  stage.num_layers = model_.num_layers();
  for (const int32_t option : result->per_layer_option) {
    stage.layer_strategies.push_back(
        (*candidates)[static_cast<size_t>(option)]);
  }
  auto cost = estimator_.EstimatePlan(model_, plan);
  ASSERT_TRUE(cost.ok()) << cost.status();
  const double seconds = cost->stages[0].seconds;
  EXPECT_NEAR(result->stage_seconds, seconds, 1e-9 * std::max(1.0, seconds));
}

TEST_F(CostCacheTest, ConcurrentLookupsMatchSerialValues) {
  const HybridStrategy dp8 = Make({{ParallelDim::kData, 8}});
  const HybridStrategy tp8 = Make({{ParallelDim::kTensor, 8}});
  const HybridStrategy mixed =
      Make({{ParallelDim::kTensor, 2}, {ParallelDim::kData, 4}});
  const std::vector<HybridStrategy> strategies = {dp8, tp8, mixed};

  // Serial reference values.
  SharedCostCache reference(&estimator_, &model_);
  std::vector<double> ref_layer;
  std::vector<double> ref_transform;
  for (int l = 0; l < model_.num_layers(); ++l) {
    for (const HybridStrategy& s : strategies) {
      auto cost = LayerAt(reference, l, s);
      ASSERT_TRUE(cost.ok());
      ref_layer.push_back(cost->IterationSeconds(1, estimator_.options()));
      if (l > 0) {
        auto r = TransformAt(reference, l, dp8, s);
        ASSERT_TRUE(r.ok());
        ref_transform.push_back(*r);
      }
    }
  }

  // Hammer one shared cache from 8 threads; every thread must observe
  // exactly the reference values.
  SharedCostCache cache(&estimator_, &model_);
  ThreadPool pool(8);
  constexpr int kRounds = 32;
  std::atomic<int> mismatches{0};
  ParallelFor(&pool, kRounds, [&](int) {
    size_t li = 0;
    size_t ti = 0;
    for (int l = 0; l < model_.num_layers(); ++l) {
      for (const HybridStrategy& s : strategies) {
        auto cost = LayerAt(cache, l, s);
        if (!cost.ok() ||
            cost->IterationSeconds(1, estimator_.options()) !=
                ref_layer[li++]) {
          mismatches.fetch_add(1);
        }
        if (l > 0) {
          auto r = TransformAt(cache, l, dp8, s);
          if (!r.ok() || *r != ref_transform[ti++]) {
            mismatches.fetch_add(1);
          }
        }
      }
    }
  });
  EXPECT_EQ(mismatches.load(), 0);

  // Counter sanity: every lookup is either a hit or a miss, and almost all
  // of the 32 rounds were hits.
  const CostCacheStats stats = cache.stats();
  const int64_t lookups =
      int64_t{kRounds} *
      (model_.num_layers() + (model_.num_layers() - 1)) *
      static_cast<int64_t>(strategies.size());
  EXPECT_EQ(stats.hits() + stats.misses(), lookups);
  EXPECT_GT(stats.hits(), stats.misses());
}

TEST_F(CostCacheTest, InternEqualStringsEqualIdsAcrossThreads) {
  // The interner is shared by every thread of a sweep and by every request
  // of a serving context: equal strings, and equal candidate strategies,
  // must resolve to one id no matter which thread interned them first, and
  // distinct ones must never collide. Each round walks the strings, and
  // then one candidate set, from a different starting point, so
  // first-interning is spread across threads.
  SharedCostCache cache(&estimator_, &model_);
  constexpr int kStrings = 64;
  constexpr int kRounds = 16;
  std::vector<HybridStrategy> candidates;
  for (const int group : {8, 4}) {
    auto enumerated = EnumerateSingleLayerStrategies(group);
    ASSERT_TRUE(enumerated.ok()) << enumerated.status();
    candidates.insert(candidates.end(), enumerated->begin(),
                      enumerated->end());
  }
  std::vector<std::vector<int32_t>> ids(
      kRounds, std::vector<int32_t>(kStrings, -1));
  std::vector<CandidateKeys> keys(kRounds);
  ThreadPool pool(8);
  ParallelFor(&pool, kRounds, [&](int r) {
    for (int k = 0; k < kStrings; ++k) {
      const int j = (k + r * 7) % kStrings;
      ids[static_cast<size_t>(r)][static_cast<size_t>(j)] =
          cache.Intern("strategy-" + std::to_string(j));
    }
    const size_t shift = static_cast<size_t>(r) % candidates.size();
    std::vector<HybridStrategy> rotated = candidates;
    std::rotate(rotated.begin(), rotated.begin() + shift, rotated.end());
    CandidateKeys& round = keys[static_cast<size_t>(r)];
    cache.InternCandidates(rotated, /*stage_first_device=*/0, &round);
    // Back to the order of `candidates`.
    std::rotate(round.strategy.begin(), round.strategy.end() - shift,
                round.strategy.end());
    std::rotate(round.fingerprint.begin(), round.fingerprint.end() - shift,
                round.fingerprint.end());
  });
  std::set<int32_t> distinct;
  for (int j = 0; j < kStrings; ++j) {
    distinct.insert(ids[0][static_cast<size_t>(j)]);
    for (int r = 1; r < kRounds; ++r) {
      EXPECT_EQ(ids[static_cast<size_t>(r)][static_cast<size_t>(j)],
                ids[0][static_cast<size_t>(j)])
          << "string " << j << " round " << r;
    }
  }
  EXPECT_EQ(distinct.size(), static_cast<size_t>(kStrings));
  for (int r = 1; r < kRounds; ++r) {
    EXPECT_EQ(keys[static_cast<size_t>(r)].strategy, keys[0].strategy)
        << "round " << r;
    EXPECT_EQ(keys[static_cast<size_t>(r)].fingerprint, keys[0].fingerprint)
        << "round " << r;
  }
  EXPECT_EQ(std::set<int32_t>(keys[0].strategy.begin(),
                              keys[0].strategy.end())
                .size(),
            candidates.size());
}

TEST_F(CostCacheTest, FreshCacheNeverServesAPriorCachesEntries) {
  // A new cache over a DIFFERENT model interns the same dense ids as a
  // destroyed one (both start at 0), so its keys equal the dead cache's.
  // It must answer from its own table: no state outlives the cache that
  // filled it, on this thread or any other.
  const HybridStrategy dp8 = Make({{ParallelDim::kData, 8}});
  TransformerBlockDims dims;
  dims.seq = 64;
  dims.hidden = 256;
  dims.heads = 4;
  dims.intermediate = 1024;
  dims.attend_width = 64;
  ModelSpec other("other", {BuildEncoderLayer("x", dims),
                            BuildEncoderLayer("x", dims)});

  double stale = 0.0;
  {
    SharedCostCache first(&estimator_, &model_);
    auto cost = LayerAt(first, 0, dp8);
    ASSERT_TRUE(cost.ok());
    stale = cost->IterationSeconds(1, estimator_.options());
  }

  // Reference value computed on a thread that never used `first`.
  double expected = 0.0;
  std::thread([&] {
    SharedCostCache ref(&estimator_, &other);
    auto cost = LayerAt(ref, 0, dp8);
    ASSERT_TRUE(cost.ok());
    expected = cost->IterationSeconds(1, estimator_.options());
  }).join();
  ASSERT_NE(expected, stale);  // the two models genuinely differ

  SharedCostCache second(&estimator_, &other);
  auto cost = LayerAt(second, 0, dp8);
  ASSERT_TRUE(cost.ok());
  EXPECT_EQ(cost->IterationSeconds(1, estimator_.options()), expected);
}

TEST(ParallelOptimizerTest, HardwareThreadsMatchSerialPlan) {
  ClusterSpec cluster = MakeTitanNode8(16 * kGB);
  TransformerBlockDims dims;
  dims.seq = 128;
  dims.hidden = 1024;
  dims.heads = 16;
  dims.intermediate = 4096;
  dims.attend_width = 128;
  std::vector<LayerSpec> layers;
  for (int i = 0; i < 6; ++i) {
    layers.push_back(BuildEncoderLayer("enc", dims));
  }
  ModelSpec model("stack", std::move(layers));

  OptimizerOptions serial_options;
  serial_options.search_threads = 1;
  auto serial = Optimizer(&cluster, serial_options).Optimize(model);
  ASSERT_TRUE(serial.ok()) << serial.status();

  OptimizerOptions parallel_options;
  parallel_options.search_threads = 0;  // hardware concurrency
  auto parallel = Optimizer(&cluster, parallel_options).Optimize(model);
  ASSERT_TRUE(parallel.ok()) << parallel.status();
  EXPECT_GE(parallel->stats.search_threads_used, 1);

  EXPECT_EQ(parallel->plan.ToString(), serial->plan.ToString());
  EXPECT_EQ(parallel->estimated.throughput_samples_per_sec,
            serial->estimated.throughput_samples_per_sec);
  EXPECT_EQ(parallel->estimated.iteration_seconds,
            serial->estimated.iteration_seconds);
}

/// A test wave whose tasks record the order they ran in.
struct RecordingWave : PipelineWave {
  explicit RecordingWave(size_t n) { num_tasks = n; }
  std::vector<int> ran;  // guarded by the test's mutex
};

TEST(WavePipelineTest, InlineRunsEachWaveInIndexOrderOnFinish) {
  std::atomic<bool> abandon{false};
  std::vector<std::pair<int, int>> order;  // (wave id, task)
  RecordingWave first(3);
  RecordingWave second(2);
  WavePipeline pipeline(nullptr, &abandon, [&](PipelineWave& wave,
                                               size_t i) {
    order.emplace_back(&wave == &first ? 0 : 1, static_cast<int>(i));
  });
  pipeline.Publish(&first);
  pipeline.Publish(&second);
  EXPECT_TRUE(order.empty());  // no lookahead inline
  pipeline.Finish(&first);
  pipeline.Finish(&second);
  const std::vector<std::pair<int, int>> expected = {
      {0, 0}, {0, 1}, {0, 2}, {1, 0}, {1, 1}};
  EXPECT_EQ(order, expected);
}

// The lookahead: the next wave's tasks run to completion while a task of
// the current wave is still unfinished. The current wave's only task
// waits for every task of the next one, so this test finishes only if
// the next wave really runs ahead (no timers involved).
TEST(WavePipelineTest, NextWaveRunsWhileTheCurrentOneIsUnfinished) {
  ThreadPool pool(2);
  std::atomic<bool> abandon{false};
  std::mutex mu;
  std::condition_variable cv;
  int ahead_done = 0;
  RecordingWave current(1);
  RecordingWave ahead(3);
  WavePipeline pipeline(&pool, &abandon, [&](PipelineWave& wave, size_t) {
    std::unique_lock<std::mutex> lock(mu);
    if (&wave == &current) {
      cv.wait(lock, [&] { return ahead_done == 3; });
    } else {
      ++ahead_done;
      cv.notify_all();
    }
  });
  pipeline.Publish(&current);
  pipeline.Publish(&ahead);
  pipeline.Finish(&current);
  {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_EQ(ahead_done, 3);
  }
  pipeline.Finish(&ahead);
}

// Stop: a running task of a discarded wave sees `abandon` (what the
// optimizer's cancel hook reads) and returns; tasks that never started
// never run; the flag is lowered again once nothing runs.
TEST(WavePipelineTest, StopAbandonsRunningTasksAndSkipsUnstartedOnes) {
  ThreadPool pool(1);
  std::atomic<bool> abandon{false};
  std::atomic<bool> first_started{false};
  std::atomic<bool> first_saw_abandon{false};
  std::atomic<int> others_ran{0};
  RecordingWave discarded(8);
  {
    WavePipeline pipeline(&pool, &abandon, [&](PipelineWave&, size_t i) {
      if (i != 0) {
        ++others_ran;
        return;
      }
      first_started = true;
      while (!abandon.load()) std::this_thread::yield();
      first_saw_abandon = true;
    });
    // The single worker claims task 0 and holds it until Stop.
    pipeline.Publish(&discarded);
    while (!first_started.load()) std::this_thread::yield();
    pipeline.Stop();
    EXPECT_TRUE(first_saw_abandon.load());
    EXPECT_EQ(others_ran.load(), 0);
    EXPECT_FALSE(abandon.load());
    pipeline.Stop();  // idempotent
  }
  EXPECT_EQ(others_ran.load(), 0);
}

// Discard drops one wave the way Stop drops them all — its running task
// sees `abandon`, its unstarted ones never run, the flag is lowered again
// — but keeps the workers: a wave published afterwards runs in full.
TEST(WavePipelineTest, DiscardDropsOneWaveAndKeepsTheWorkers) {
  ThreadPool pool(1);
  std::atomic<bool> abandon{false};
  std::atomic<bool> first_started{false};
  std::atomic<bool> first_saw_abandon{false};
  std::atomic<int> others_ran{0};
  std::atomic<int> next_ran{0};
  RecordingWave discarded(8);
  RecordingWave next(3);
  WavePipeline pipeline(&pool, &abandon, [&](PipelineWave& wave, size_t i) {
    if (&wave == &next) {
      ++next_ran;
      return;
    }
    if (i != 0) {
      ++others_ran;
      return;
    }
    first_started = true;
    while (!abandon.load()) std::this_thread::yield();
    first_saw_abandon = true;
  });
  pipeline.Publish(&discarded);
  while (!first_started.load()) std::this_thread::yield();
  pipeline.Discard(&discarded);
  EXPECT_TRUE(first_saw_abandon.load());
  EXPECT_EQ(others_ran.load(), 0);
  EXPECT_FALSE(abandon.load());
  pipeline.Publish(&next);
  pipeline.Finish(&next);
  EXPECT_EQ(next_ran.load(), 3);
  EXPECT_EQ(others_ran.load(), 0);
}

// Finish surfaces only its own wave's exception: a throwing task of the
// wave run ahead never fails the wave before it.
TEST(WavePipelineTest, FinishRethrowsOnlyItsOwnWavesException) {
  ThreadPool pool(2);
  std::atomic<bool> abandon{false};
  RecordingWave current(4);
  RecordingWave ahead(4);
  WavePipeline pipeline(&pool, &abandon, [&](PipelineWave& wave, size_t i) {
    if (&wave == &ahead && i == 1) throw std::runtime_error("ahead");
  });
  pipeline.Publish(&current);
  pipeline.Publish(&ahead);
  EXPECT_NO_THROW(pipeline.Finish(&current));
  try {
    pipeline.Finish(&ahead);
    ADD_FAILURE() << "the run-ahead wave's exception was lost";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "ahead");
  }
}

/// An 8-layer BERT on one TITAN node: a sweep of many batch waves.
ModelSpec WaveBert() {
  BertConfig config;
  config.num_layers = 8;
  config.hidden = 1024;
  config.heads = 16;
  return BuildBert("wave-bert", config);
}

/// Everything a sweep returns that must not depend on the thread count:
/// the error, or the plan, every alternate and the configuration count.
std::string SweepOutcome(const Result<OptimizationResult>& result) {
  if (!result.ok()) return "error: " + result.status().ToString();
  std::string out = PlanToJson(result->plan);
  for (const TrainingPlan& alternate : result->alternates) {
    out += "alternate: " + PlanToJson(alternate);
  }
  return out + "configs: " + std::to_string(result->stats.configs_explored);
}

TEST(WavePipelineOptimizeTest, ThreadCountsGiveIdenticalResults) {
  const ModelSpec model = WaveBert();
  struct Instance {
    std::string name;
    ClusterSpec cluster;
    OptimizerOptions options;
  };
  std::vector<Instance> instances;
  instances.push_back({"titan8", MakeTitanNode8(12 * kGB), {}});
  OptimizerOptions one_f_one_b;
  one_f_one_b.schedule = PipelineSchedule::k1F1B;
  one_f_one_b.allow_recompute = true;
  instances.push_back({"titan8-1f1b-recompute", MakeTitanNode8(8 * kGB),
                       one_f_one_b});
  instances.push_back({"infeasible", MakeTitanNode8(kGB / 4), {}});
  for (const Instance& instance : instances) {
    OptimizerOptions options = instance.options;
    options.search_threads = 1;
    const std::string serial = SweepOutcome(
        Optimizer(&instance.cluster, options).Optimize(model));
    for (const int threads : {2, 4}) {
      options.search_threads = threads;
      EXPECT_EQ(SweepOutcome(
                    Optimizer(&instance.cluster, options).Optimize(model)),
                serial)
          << instance.name << " at " << threads << " threads";
    }
  }
}

// A cancel that fires at the k-th poll of the caller's hook, wherever the
// poll comes from — a merged wave or the one run ahead. Either the sweep
// is cancelled or, when only discarded work saw the cancel, it returns
// exactly the uncancelled result: nothing of the run-ahead wave leaks.
// Every merged configuration polls the hook when it starts, so a cancel
// firing within the first configs_explored polls must cancel the sweep.
TEST(WavePipelineOptimizeTest, CancelDuringARunAheadWaveLeaksNothing) {
  const ModelSpec model = WaveBert();
  const ClusterSpec cluster = MakeTitanNode8(12 * kGB);
  OptimizerOptions options;
  options.search_threads = 4;
  const Optimizer optimizer(&cluster, options);
  const Result<OptimizationResult> reference = optimizer.Optimize(model);
  ASSERT_TRUE(reference.ok()) << reference.status();
  const int configs = reference->stats.configs_explored;
  ASSERT_GT(configs, 8);
  for (int k = 1; k <= 4 * configs; k += 1 + k / 4) {
    std::atomic<int> polls{0};
    SearchHooks hooks;
    hooks.cancel = [&polls, k] { return ++polls >= k; };
    const Result<OptimizationResult> result = optimizer.Optimize(model, hooks);
    if (!result.ok()) {
      EXPECT_TRUE(result.status().IsCancelled())
          << "k=" << k << ": " << result.status();
    } else {
      EXPECT_EQ(SweepOutcome(result), SweepOutcome(reference)) << "k=" << k;
    }
    if (k <= configs) {
      EXPECT_FALSE(result.ok()) << "k=" << k;
    }
  }
}

/// 64-bit FNV-1a of the winner's and every alternate's ToString() and the
/// winner's estimated throughput printed with %.17g: a fingerprint of
/// everything a sweep commits.
uint64_t PlanDigest(const OptimizationResult& result) {
  std::string text = result.plan.ToString();
  for (const TrainingPlan& alternate : result.alternates) {
    text += "\n" + alternate.ToString();
  }
  char throughput[32];
  std::snprintf(throughput, sizeof(throughput), "\n%.17g",
                result.estimated.throughput_samples_per_sec);
  text += throughput;
  uint64_t hash = 14695981039346656037ull;
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

/// A `layers`-deep BERT at hidden 1280, the fleet benches' model.
ModelSpec FleetBert(int layers) {
  BertConfig config;
  config.num_layers = layers;
  config.hidden = 1280;
  config.heads = 16;
  return BuildBert("bert-" + std::to_string(layers), config);
}

ClusterSpec FleetCluster(const std::string& name, int nodes) {
  return MakeHomogeneousCluster(name, nodes, /*gpus_per_node=*/8, 16 * kGB,
                                /*sustained_flops=*/6.5e12, LinkClass::kPcie3,
                                LinkClass::kInfiniBand100);
}

// Golden plans: each job's committed winner, alternates and throughput,
// pinned at 1 and 4 threads. The sweep's configuration order, pruning and
// wave structure may change; what it commits may not. The fleet jobs use
// bench_search_parallel's batch loops.
TEST(GoldenPlanTest, SweepsCommitThePinnedPlans) {
  struct Job {
    std::string name;
    ModelSpec model;
    ClusterSpec cluster;
    OptimizerOptions options;
    uint64_t digest;
  };
  OptimizerOptions one_f_one_b;
  one_f_one_b.schedule = PipelineSchedule::k1F1B;
  OptimizerOptions recompute;
  recompute.allow_recompute = true;
  OptimizerOptions fleet64;
  fleet64.batch_step = 64;
  fleet64.max_batch = 1024;
  OptimizerOptions fleet512;
  fleet512.batch_step = 256;
  fleet512.max_batch = 1024;
  // Co-optimization re-partitions the winner by its per-layer seconds and
  // re-searches its stages. The PP-4 winners are balanced already, so
  // their rounds stop at the partitioner; the 8 GB 1F1B PP-2 winner is
  // re-partitioned. The Swin-Huge-32 8 GB and mixed-cluster winners are
  // replaced by their refined plans, so their digests differ from rounds
  // 0; the mixed one has uneven device blocks.
  auto co_optimize = [](OptimizerOptions options, int pp, int rounds) {
    if (pp > 0) options.pp_degrees = {pp};
    options.co_optimize_rounds = rounds;
    return options;
  };
  OptimizerOptions one_f_one_b_recompute = one_f_one_b;
  one_f_one_b_recompute.allow_recompute = true;
  const ModelSpec huge = BuildModel(ModelId::kBertHuge32);
  // 8 A100-class GPUs with 40 GB beside the 8 TITANs at 12 GB.
  const ClusterSpec mixed =
      MakeTitanCluster16(12 * kGB)
          .WithDeviceComputeRange(0, 8, 60e12, /*small_batch_half_life=*/0.5)
          .WithDeviceMemoryRange(0, 8, 40 * kGB);
  const std::vector<Job> jobs = {
      {"bert8-titan8-12gb", WaveBert(), MakeTitanNode8(12 * kGB), {},
       0xe68998ed203243f8ull},
      {"bert-huge-32-titan8-16gb", huge, MakeTitanNode8(16 * kGB), {},
       0x1c3df7b3f1912fddull},
      {"bert-huge-32-titan8-16gb-1f1b", huge, MakeTitanNode8(16 * kGB),
       one_f_one_b, 0x8eed14aaafda3982ull},
      {"bert-huge-32-titan8-16gb-recompute", huge, MakeTitanNode8(16 * kGB),
       recompute, 0x0a81faaccfbedf01ull},
      {"fleet104-gpu64", FleetBert(104), FleetCluster("fleet-64", 8),
       fleet64, 0xeaee8ad710ce8282ull},
      {"fleet128-gpu512", FleetBert(128), FleetCluster("fleet-512", 64),
       fleet512, 0x4e6d841b8e9b8a2full},
      {"bert-huge-32-mixed16", huge, mixed, {}, 0x5ced6a3a72377074ull},
      // Its 5,297 stage-store misses overflow kMaxStageEntries (4,096
      // records), so the sweep clears its store once and refills it.
      {"vit-huge-32-titan8-16gb-1f1b", BuildModel(ModelId::kViTHuge32),
       MakeTitanNode8(16 * kGB), one_f_one_b, 0x1838c3ab25a37202ull},
      {"bert-huge-32-titan8-16gb-pp4-co2", huge, MakeTitanNode8(16 * kGB),
       co_optimize({}, 4, 2), 0x78f1c0113e482ae0ull},
      {"bert-huge-32-titan8-16gb-pp4-co3", huge, MakeTitanNode8(16 * kGB),
       co_optimize({}, 4, 3), 0x78f1c0113e482ae0ull},
      {"swin-huge-32-titan8-16gb-pp4-co2", BuildModel(ModelId::kSwinHuge32),
       MakeTitanNode8(16 * kGB), co_optimize({}, 4, 2),
       0xf2ee9b524258d110ull},
      {"swin-huge-32-titan8-16gb-pp4-co3", BuildModel(ModelId::kSwinHuge32),
       MakeTitanNode8(16 * kGB), co_optimize({}, 4, 3),
       0xf2ee9b524258d110ull},
      {"bert-huge-32-titan8-8gb-1f1b-pp2-co3", huge, MakeTitanNode8(8 * kGB),
       co_optimize(one_f_one_b, 2, 3), 0xbf814b676cc39137ull},
      {"swin-huge-32-titan8-8gb-1f1b-recompute-co1",
       BuildModel(ModelId::kSwinHuge32), MakeTitanNode8(8 * kGB),
       co_optimize(one_f_one_b_recompute, 0, 1), 0xea390624d85fb342ull},
      {"swin-huge-32-titan8-8gb-1f1b-recompute-co3",
       BuildModel(ModelId::kSwinHuge32), MakeTitanNode8(8 * kGB),
       co_optimize(one_f_one_b_recompute, 0, 3), 0xea390624d85fb342ull},
      {"bert-huge-32-mixed16-co3", huge, mixed, co_optimize({}, 0, 3),
       0x11a6754b77136438ull},
      // Recompute sweeps whose batch loop outlives every fitting uniform
      // plan, and a mixed cluster whose island-proportional degrees have
      // no uniform plans at all: most of their configurations are bounded
      // with no plan known to fit.
      {"bert-huge-48-titan8-12gb-recompute", BuildModel(ModelId::kBertHuge48),
       MakeTitanNode8(12 * kGB), recompute, 0x866662768869f8c5ull},
      {"bert-huge-32-titan16-8gb-recompute", huge, MakeTitanCluster16(8 * kGB),
       recompute, 0x4fdf78f19270fa31ull},
      {"t5-large-32-mixed16", BuildModel(ModelId::kT5Large32), mixed, {},
       0xd8fbc4388d37b4daull},
  };
  for (const Job& job : jobs) {
    for (const int threads : {1, 4}) {
      OptimizerOptions options = job.options;
      options.search_threads = threads;
      auto result = Optimizer(&job.cluster, options).Optimize(job.model);
      ASSERT_TRUE(result.ok()) << job.name << ": " << result.status();
      const uint64_t digest = PlanDigest(*result);
      EXPECT_EQ(digest, job.digest)
          << job.name << " at " << threads << " threads: got 0x" << std::hex
          << digest;
    }
  }
}

// A fatal error in wave w is returned even though wave w+1 — which fails
// too, with a message naming its own batch — is in flight. The negative
// micro-batch multiplier makes every PP-2 configuration fail in the
// estimator with "micro_batches -2 invalid for batch B".
TEST(WavePipelineOptimizeTest, FatalErrorWinsOverTheWaveRunAhead) {
  const ModelSpec model = WaveBert();
  const ClusterSpec cluster = MakeTitanNode8(12 * kGB);
  OptimizerOptions options;
  options.pp_degrees = {1, 2};
  options.micro_batch_multipliers = {1, -1};
  options.search_threads = 1;
  const Result<OptimizationResult> serial =
      Optimizer(&cluster, options).Optimize(model);
  ASSERT_FALSE(serial.ok());
  EXPECT_NE(serial.status().ToString().find("for batch 8"),
            std::string::npos)
      << serial.status();
  for (const int threads : {2, 4}) {
    options.search_threads = threads;
    const Optimizer optimizer(&cluster, options);
    for (int rep = 0; rep < 10; ++rep) {
      const Result<OptimizationResult> result = optimizer.Optimize(model);
      ASSERT_FALSE(result.ok());
      EXPECT_EQ(result.status().ToString(), serial.status().ToString())
          << threads << " threads";
    }
  }
}

/// Concurrent requests on one planning context at different budgets: four
/// threads re-plan over one cost cache and frontier cache (and its stage
/// table) at once, each filling and reading the table while the others
/// do, and each must return the plan, and its cost, a cold sweep at its
/// budget returns. Under -DGALVATRON_SANITIZE=thread this is the stage
/// table's data-race smoke.
TEST(StageTableTest, ConcurrentReplansAtDifferentBudgetsMatchColdPlans) {
  const ModelSpec model = WaveBert();
  const ClusterSpec primed = MakeTitanNode8(12 * kGB);
  const CostEstimator estimator(&primed);
  SharedCostCache cache(&estimator, &model);
  DpFrontierCache frontier;
  SearchHooks hooks;
  hooks.cost_cache = &cache;
  hooks.frontier_cache = &frontier;
  OptimizerOptions options;
  options.search_threads = 1;
  ASSERT_TRUE(Optimizer(&primed, options).Optimize(model, hooks).ok());

  // The plan and its throughput's exact bits, or the error.
  auto outcome = [](const Result<OptimizationResult>& result) {
    if (!result.ok()) return result.status().ToString();
    char bits[64];
    std::snprintf(bits, sizeof(bits), " @ %a",
                  result->estimated.throughput_samples_per_sec);
    return result->plan.ToString() + bits;
  };
  const std::vector<int64_t> budgets = {7 * kGB, 9 * kGB, 14 * kGB,
                                        16 * kGB};
  std::vector<std::string> cold(budgets.size());
  for (size_t i = 0; i < budgets.size(); ++i) {
    const ClusterSpec cluster = MakeTitanNode8(budgets[i]);
    auto result = Optimizer(&cluster, options).Optimize(model);
    ASSERT_TRUE(result.ok()) << result.status();
    cold[i] = outcome(result);
  }
  std::vector<std::string> warm(budgets.size());
  for (int round = 0; round < 2; ++round) {
    std::vector<std::thread> threads;
    for (size_t i = 0; i < budgets.size(); ++i) {
      threads.emplace_back([&, i] {
        const ClusterSpec cluster = MakeTitanNode8(budgets[i]);
        warm[i] =
            outcome(Optimizer(&cluster, options).Optimize(model, hooks));
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (size_t i = 0; i < budgets.size(); ++i) {
      EXPECT_EQ(warm[i], cold[i]) << "round " << round << ", budget "
                                  << budgets[i];
    }
  }
  EXPECT_GT(frontier.stats().stage_entries, 0u);
}

}  // namespace
}  // namespace galvatron
