// Batch-engine tests: serial determinism across thread counts, cache
// correctness against the uncached per-module entry points, metrics
// accounting, and the analysis-list parser.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "core/qs_problem.hpp"
#include "core/queue_sizing.hpp"
#include "engine/analysis_cache.hpp"
#include "engine/cached_analysis.hpp"
#include "engine/engine.hpp"
#include "engine/metrics.hpp"
#include "engine/task_pool.hpp"
#include "lid_api.hpp"
#include "lis/lis_graph.hpp"
#include "util/rng.hpp"

namespace lid::engine {
namespace {

using util::Rational;

// A varied pool of small generated instances (cheap enough that the full
// determinism sweep stays fast, structured enough to exercise degradation,
// multiple SCCs and reconvergence).
std::vector<Instance> make_instances(int count, std::uint64_t seed = 7) {
  std::vector<Instance> instances;
  util::Rng seeder(seed);
  for (int i = 0; i < count; ++i) {
    GenerateOptions options;
    options.cores = 5 + i % 8;
    options.sccs = 1 + i % 3;
    options.extra_cycles = i % 4;
    options.relay_stations = 1 + i % 5;
    options.reconvergent = i % 2 == 0;
    // The SCC placement policy requires inter-SCC channels to exist.
    options.rs_anywhere = options.sccs == 1;
    options.seed = seeder.fork_seed();
    const Result<Instance> generated = lid::generate(options);
    EXPECT_TRUE(generated.ok()) << "instance " << i;
    if (generated.ok()) instances.push_back(*generated);
  }
  return instances;
}

TEST(ParseAnalyses, TokensAndAll) {
  const auto one = parse_analyses("mst-ideal");
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(one->size(), 1u);
  EXPECT_EQ((*one)[0], AnalysisKind::kIdealMst);

  const auto list = parse_analyses("qs-heuristic,rate-safety,mst-practical");
  ASSERT_TRUE(list.ok());
  ASSERT_EQ(list->size(), 3u);
  EXPECT_EQ((*list)[0], AnalysisKind::kQsHeuristic);
  EXPECT_EQ((*list)[1], AnalysisKind::kRateSafety);
  EXPECT_EQ((*list)[2], AnalysisKind::kPracticalMst);

  const auto all = parse_analyses("all");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 8u);

  const auto lazy = parse_analyses("qs-lazy");
  ASSERT_TRUE(lazy.ok());
  EXPECT_EQ((*lazy)[0], AnalysisKind::kQsLazy);

  const auto bad = parse_analyses("mst-ideal,frobnicate");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code, ErrorCode::kInvalidArgument);
}

TEST(ParseAnalyses, RoundTripsThroughToString) {
  for (AnalysisKind kind :
       {AnalysisKind::kIdealMst, AnalysisKind::kPracticalMst, AnalysisKind::kQsHeuristic,
        AnalysisKind::kQsExact, AnalysisKind::kRsInsertion, AnalysisKind::kRateSafety,
        AnalysisKind::kDes}) {
    const auto parsed = parse_analyses(to_string(kind));
    ASSERT_TRUE(parsed.ok()) << to_string(kind);
    ASSERT_EQ(parsed->size(), 1u);
    EXPECT_EQ((*parsed)[0], kind);
  }
}

// The acceptance bar of the engine: a batch of >= 100 generated instances
// serializes byte-identically at 1 thread and at 8 threads.
TEST(BatchEngine, DeterministicAcrossThreadCounts) {
  const std::vector<Instance> instances = make_instances(100);
  ASSERT_EQ(instances.size(), 100u);

  EngineOptions options;
  options.analyses = *parse_analyses("all");
  options.exact_max_nodes = 20'000;  // budgeted, never wall-clocked
  options.rs_budget = 1;

  options.threads = 1;
  const BatchResult serial = BatchEngine(options).run(instances);
  for (int threads : {2, 8}) {
    options.threads = threads;
    const BatchResult parallel = BatchEngine(options).run(instances);
    EXPECT_EQ(serial.serialize(), parallel.serialize()) << "threads=" << threads;
  }

  ASSERT_EQ(serial.results.size(), 100u);
  for (const InstanceResult& r : serial.results) {
    EXPECT_TRUE(r.error.empty()) << r.name << ": " << r.error;
    ASSERT_TRUE(r.theta_ideal.has_value());
    ASSERT_TRUE(r.theta_practical.has_value());
    EXPECT_LE(*r.theta_practical, *r.theta_ideal);
  }
}

// Repeating the identical run must also be byte-identical (the exact solver
// runs under a node budget, not a wall clock).
TEST(BatchEngine, RepeatRunsAreIdentical) {
  const std::vector<Instance> instances = make_instances(12);
  EngineOptions options;
  options.analyses = *parse_analyses("all");
  options.exact_max_nodes = 20'000;
  options.threads = 3;
  const BatchEngine engine(options);
  EXPECT_EQ(engine.run(instances).serialize(), engine.run(instances).serialize());
}

TEST(BatchEngine, ResultsLandInInputOrder) {
  const std::vector<Instance> instances = make_instances(10);
  EngineOptions options;
  options.threads = 4;
  const BatchResult batch = BatchEngine(options).run(instances);
  ASSERT_EQ(batch.results.size(), instances.size());
  for (std::size_t i = 0; i < batch.results.size(); ++i) {
    EXPECT_EQ(batch.results[i].index, i);
    EXPECT_EQ(batch.results[i].cores, instances[i].num_cores());
    EXPECT_EQ(batch.results[i].channels, instances[i].num_channels());
  }
}

TEST(BatchEngine, InvalidInstanceIsReportedNotFatal) {
  std::vector<Instance> instances = make_instances(3);
  instances.insert(instances.begin() + 1, Instance{});  // invalid handle
  const BatchResult batch = BatchEngine(EngineOptions{}).run(instances);
  ASSERT_EQ(batch.results.size(), 4u);
  EXPECT_TRUE(batch.results[0].error.empty());
  EXPECT_FALSE(batch.results[1].error.empty());
  EXPECT_TRUE(batch.results[2].error.empty());
  EXPECT_TRUE(batch.results[3].error.empty());
  EXPECT_EQ(batch.metrics.counter("failures"), 1);
}

TEST(BatchEngine, EmptyBatch) {
  const BatchResult batch = BatchEngine(EngineOptions{}).run({});
  EXPECT_TRUE(batch.results.empty());
  EXPECT_EQ(batch.metrics.counter("instances"), 0);
}

TEST(BatchEngine, MetricsCountInstancesAndStages) {
  const std::vector<Instance> instances = make_instances(8);
  EngineOptions options;
  options.analyses = *parse_analyses("mst-ideal,mst-practical,qs-heuristic");
  options.threads = 2;
  const BatchResult batch = BatchEngine(options).run(instances);
  EXPECT_EQ(batch.metrics.counter("instances"), 8);
  EXPECT_EQ(batch.metrics.counter("failures"), 0);
  const auto stages = batch.metrics.stages();
  ASSERT_TRUE(stages.count("instance_total"));
  EXPECT_EQ(stages.at("instance_total").calls, 8);
  ASSERT_TRUE(stages.count("qs_heuristic"));
  EXPECT_EQ(stages.at("qs_heuristic").calls, 8);
}

// Cached intermediates must agree exactly with the uncached entry points,
// and repeated queries must be cache hits.
TEST(AnalysisCache, AgreesWithUncachedEntryPoints) {
  for (const Instance& instance : make_instances(20, /*seed=*/11)) {
    const lis::LisGraph& graph = instance.graph();
    AnalysisCache cache(graph);
    EXPECT_EQ(cache.theta_ideal(), lis::ideal_mst(graph));
    EXPECT_EQ(cache.theta_practical(), lis::practical_mst(graph));

    const core::QsProblem& cached = cache.qs_problem();
    const core::QsProblem fresh = core::build_qs_problem(graph);
    EXPECT_EQ(cached.theta_ideal, fresh.theta_ideal);
    EXPECT_EQ(cached.theta_practical, fresh.theta_practical);
    EXPECT_EQ(cached.td.deficits, fresh.td.deficits);
    EXPECT_EQ(cached.td.set_members, fresh.td.set_members);
    EXPECT_EQ(cached.channels, fresh.channels);

    // Sizing through the cached problem equals sizing from scratch.
    core::QsOptions qs_options;
    qs_options.method = core::QsMethod::kHeuristic;
    const core::QsReport via_cache = core::size_queues_on_problem(graph, cached, qs_options);
    const core::QsReport from_scratch = core::size_queues(graph, qs_options);
    ASSERT_EQ(via_cache.heuristic.has_value(), from_scratch.heuristic.has_value());
    if (via_cache.heuristic) {
      EXPECT_EQ(via_cache.heuristic->total_extra_tokens,
                from_scratch.heuristic->total_extra_tokens);
    }
    EXPECT_EQ(via_cache.achieved_mst, from_scratch.achieved_mst);
  }
}

TEST(AnalysisCache, MemoizesEveryIntermediate) {
  const std::vector<Instance> instances = make_instances(1);
  AnalysisCache cache(instances[0].graph());
  // Every verdict of a certified analysis reads one evidence pass per
  // expansion: the thetas, the critical cycle, rate safety and the
  // certificate together miss exactly once for G and once for d[G].
  (void)cache.theta_ideal();
  (void)cache.theta_practical();
  (void)cache.degradation();
  (void)cache.rate_safety();
  AnalyzeOptions certified;
  certified.certify = true;
  const Result<Analysis> analysis = analyze_cached(cache, instances[0], certified);
  ASSERT_TRUE(analysis.ok()) << analysis.error().to_string();
  ASSERT_TRUE(analysis->certificate.has_value());
  EXPECT_EQ(cache.misses(), 2);

  (void)cache.qs_problem();
  const std::int64_t misses = cache.misses();
  EXPECT_EQ(misses, 3);
  // Everything is now resident: no query below may miss.
  (void)cache.ideal();
  (void)cache.doubled();
  (void)cache.theta_ideal();
  (void)cache.theta_practical();
  (void)cache.qs_problem();
  EXPECT_EQ(cache.misses(), misses);
  EXPECT_GE(cache.hits(), 4);
}

TEST(AnalysisCache, RebuildsQsProblemWhenOptionsChange) {
  const std::vector<Instance> instances = make_instances(1);
  AnalysisCache cache(instances[0].graph());
  (void)cache.qs_problem();
  const std::int64_t misses = cache.misses();
  core::QsBuildOptions other;
  other.max_cycles = 123;
  (void)cache.qs_problem(other);
  EXPECT_EQ(cache.misses(), misses + 1);
  (void)cache.qs_problem(other);
  EXPECT_EQ(cache.misses(), misses + 1);  // same options again: hit
}

TEST(Metrics, MergeAndSnapshot) {
  Metrics a;
  a.count("instances", 3);
  a.record_stage("qs", 2.0, 1.0);
  Metrics b;
  b.count("instances", 2);
  b.count("failures");
  b.record_stage("qs", 4.0, 3.0);
  a.merge(b);
  EXPECT_EQ(a.counter("instances"), 5);
  EXPECT_EQ(a.counter("failures"), 1);
  const auto stages = a.stages();
  ASSERT_TRUE(stages.count("qs"));
  EXPECT_EQ(stages.at("qs").calls, 2);
  EXPECT_DOUBLE_EQ(stages.at("qs").wall_ms, 6.0);
  EXPECT_DOUBLE_EQ(stages.at("qs").cpu_ms, 4.0);

  const Metrics copy = a;  // snapshot copy
  EXPECT_EQ(copy.counter("instances"), 5);
  EXPECT_EQ(copy.stages().at("qs").calls, 2);
}

TEST(Metrics, JsonShape) {
  Metrics m;
  m.count("instances", 2);
  m.record_stage("mst", 1.5, 1.0);
  const std::string json = m.to_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"instances\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"mst\""), std::string::npos);
  EXPECT_NE(json.find("\"calls\": 1"), std::string::npos);
}

TEST(Metrics, ConcurrentCountsAreExact) {
  Metrics m;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&m] {
      for (int i = 0; i < 1000; ++i) m.count("ticks");
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(m.counter("ticks"), 4000);
}

// Drain must execute every admitted task — both the ones still queued and
// the one a worker holds in flight — before returning, even when the holder
// blocks until shutdown is already underway.
TEST(TaskPool, DrainRunsQueuedAndInFlightTasks) {
  TaskPool::Options options;
  options.threads = 1;  // one worker => the queue genuinely backs up
  TaskPool pool(options);

  std::mutex mutex;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> executed{0};

  ASSERT_EQ(pool.submit([&](const TaskPool::Context&) {
              std::unique_lock<std::mutex> lock(mutex);
              cv.wait(lock, [&] { return release; });
              ++executed;
            }),
            TaskPool::Submit::kAccepted);
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(pool.submit([&](const TaskPool::Context&) { ++executed; }),
              TaskPool::Submit::kAccepted);
  }

  std::thread drainer([&] { pool.drain(); });
  {
    std::lock_guard<std::mutex> lock(mutex);
    release = true;
  }
  cv.notify_all();
  drainer.join();
  EXPECT_EQ(executed.load(), 6);
  EXPECT_EQ(pool.executed(), 6);
  EXPECT_EQ(pool.submit([](const TaskPool::Context&) {}), TaskPool::Submit::kClosed);
}

TEST(TaskPool, ArmsCancelTokenFromDeadline) {
  TaskPool::Options options;
  options.threads = 1;
  TaskPool pool(options);

  // A generous deadline: the token must be armed but not yet cancelled.
  std::atomic<bool> armed{false};
  std::atomic<bool> premature{true};
  ASSERT_EQ(pool.submit(
                [&](const TaskPool::Context& context) {
                  armed = context.cancel.can_cancel();
                  premature = context.cancel.cancelled();
                },
                60'000.0),
            TaskPool::Submit::kAccepted);

  // An expired deadline: the worker still runs the task, flags the expiry,
  // and hands it an already-cancelled token.
  std::atomic<bool> expired_flagged{false};
  std::atomic<bool> token_expired{false};
  ASSERT_EQ(pool.submit(
                [&](const TaskPool::Context& context) {
                  expired_flagged = context.deadline_expired;
                  token_expired = context.cancel.cancelled();
                },
                0.0001),
            TaskPool::Submit::kAccepted);

  // No deadline: the default token, which can never cancel.
  std::atomic<bool> uncancellable{false};
  ASSERT_EQ(pool.submit([&](const TaskPool::Context& context) {
              uncancellable = !context.cancel.can_cancel();
            }),
            TaskPool::Submit::kAccepted);

  pool.drain();
  EXPECT_TRUE(armed.load());
  EXPECT_FALSE(premature.load());
  EXPECT_TRUE(expired_flagged.load());
  EXPECT_TRUE(token_expired.load());
  EXPECT_TRUE(uncancellable.load());
}

// Cancellation racing completion: tasks that poll a token while the
// submitting thread concurrently fires the source must all terminate, and
// drain() must still account for every one of them.
TEST(TaskPool, CancellationRacesCompletion) {
  TaskPool::Options options;
  options.threads = 4;
  TaskPool pool(options);
  util::CancelSource source;

  std::atomic<int> finished{0};
  std::atomic<int> saw_cancel{0};
  for (int i = 0; i < 32; ++i) {
    ASSERT_EQ(pool.submit([&, i](const TaskPool::Context&) {
                const util::CancelToken token = source.token();
                // Odd tasks complete instantly; even tasks spin until the
                // external cancel fires — the race is which side wins.
                while (i % 2 == 0 && !token.cancelled()) {
                  std::this_thread::yield();
                }
                if (token.cancelled()) ++saw_cancel;
                ++finished;
              }),
              TaskPool::Submit::kAccepted);
  }
  source.cancel();
  pool.drain();
  EXPECT_EQ(finished.load(), 32);
  EXPECT_GE(saw_cancel.load(), 16);  // every spinner observed the cancel
  EXPECT_EQ(pool.executed(), 32);
}

}  // namespace
}  // namespace lid::engine
