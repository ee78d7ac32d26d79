/**
 * @file
 * Runtime subsystem tests: deterministic job queue and pool, sharded
 * execution determinism (bit-identical to serial for every worker
 * count), session lifecycle with checkpoint/resume, RNG stream
 * splitting, stat scoping, and batch resume semantics.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <vector>

#include "health/health_guard.h"
#include "kernels/soa_engine.h"
#include "lut/lut_refit.h"
#include "lut/lut_store.h"
#include "mapping/mapper.h"
#include "models/benchmark_model.h"
#include "obs/stat_registry.h"
#include "obs/trace.h"
#include "runtime/batch_manifest.h"
#include "runtime/batch_runner.h"
#include "runtime/engine_factory.h"
#include "runtime/job_queue.h"
#include "runtime/job_runner.h"
#include "runtime/model_source.h"
#include "runtime/sharded_stepper.h"
#include "runtime/solver_session.h"
#include "runtime/thread_pool.h"
#include "runtime/worker_team.h"
#include "util/rng.h"

namespace cenn {
namespace {

NetworkSpec
ModelSpec(const std::string& name, std::size_t rows, std::size_t cols)
{
  ModelConfig mc;
  mc.rows = rows;
  mc.cols = cols;
  return Mapper::Map(MakeModel(name, mc)->System());
}

SolverOptions
Opts(Precision precision)
{
  SolverOptions options;
  options.precision = precision;
  return options;
}

/**
 * Steps `engine` `steps` times on a `shards`-band team in one
 * dispatch, with optional phase timings and trace.
 */
void
RunTeam(Engine* engine, std::uint64_t steps, int shards,
        ShardPhaseTimings* timings = nullptr, TraceSession* trace = nullptr)
{
  TeamOptions options;
  options.shards = shards;
  options.timings = timings;
  options.trace = trace;
  ShardTeam(engine, options).Run(steps);
}

/** Fresh per-test scratch directory under the gtest temp root. */
std::string
ScratchDir(const std::string& tag)
{
  const std::string dir = testing::TempDir() + "cenn_runtime_" + tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// ---------------------------------------------------------------------------
// JobQueue

TEST(JobQueueTest, DispatchesFifoWithinPriority)
{
  JobQueue queue(16);
  std::vector<int> order;
  queue.Push([&order] { order.push_back(1); });
  queue.Push([&order] { order.push_back(2); });
  queue.Push([&order] { order.push_back(3); }, /*priority=*/5);
  queue.Push([&order] { order.push_back(4); }, /*priority=*/5);
  queue.Close();
  while (auto job = queue.Pop()) {
    job->fn();
  }
  EXPECT_EQ(order, (std::vector<int>{3, 4, 1, 2}));
  EXPECT_EQ(queue.TotalPushed(), 4u);
  EXPECT_EQ(queue.TotalPopped(), 4u);
}

TEST(JobQueueTest, TryPushFailsWhenFull)
{
  JobQueue queue(2);
  EXPECT_TRUE(queue.TryPush([] {}));
  EXPECT_TRUE(queue.TryPush([] {}));
  JobId id = 0;
  EXPECT_FALSE(queue.TryPush([] {}, 0, &id));
  EXPECT_EQ(queue.Size(), 2u);
}

TEST(JobQueueTest, PushBlocksUntilPopMakesRoom)
{
  JobQueue queue(1);
  queue.Push([] {});
  std::atomic<bool> second_accepted{false};
  std::thread producer([&] {
    queue.Push([] {});  // blocks until the consumer pops
    second_accepted.store(true);
  });
  // Give the producer time to hit the full queue.
  while (queue.TotalBackpressureBlocks() == 0) {
    std::this_thread::yield();
  }
  EXPECT_FALSE(second_accepted.load());
  EXPECT_TRUE(queue.Pop().has_value());
  producer.join();
  EXPECT_TRUE(second_accepted.load());
  EXPECT_EQ(queue.TotalBackpressureBlocks(), 1u);
}

TEST(JobQueueTest, CancelRemovesPendingJob)
{
  JobQueue queue(8);
  const JobId keep = queue.Push([] {});
  const JobId drop = queue.Push([] {});
  EXPECT_TRUE(queue.Cancel(drop));
  EXPECT_FALSE(queue.Cancel(drop));   // already gone
  EXPECT_FALSE(queue.Cancel(12345));  // never existed
  EXPECT_EQ(queue.Size(), 1u);
  const auto job = queue.Pop();
  ASSERT_TRUE(job.has_value());
  EXPECT_EQ(job->id, keep);
}

TEST(JobQueueTest, PopDrainsThenSignalsClosed)
{
  JobQueue queue(4);
  queue.Push([] {});
  queue.Close();
  EXPECT_TRUE(queue.Pop().has_value());
  EXPECT_FALSE(queue.Pop().has_value());
  EXPECT_TRUE(queue.Closed());
}

// ---------------------------------------------------------------------------
// ThreadPool

TEST(ThreadPoolTest, RunsSubmittedJobsAndWaitsIdle)
{
  ThreadPool pool({.num_threads = 3, .queue_capacity = 32});
  std::atomic<int> sum{0};
  for (int i = 1; i <= 20; ++i) {
    pool.Submit([&sum, i] { sum.fetch_add(i); });
  }
  pool.WaitIdle();
  EXPECT_EQ(sum.load(), 210);
  EXPECT_EQ(pool.JobsCompleted(), 20u);
  EXPECT_EQ(pool.JobsDiscarded(), 0u);
}

TEST(ThreadPoolTest, ShutdownDiscardPendingNeverLosesAccounting)
{
  ThreadPool pool({.num_threads = 1, .queue_capacity = 64});
  std::atomic<bool> release{false};
  std::atomic<int> ran{0};
  // Occupy the single worker so the rest stays queued.
  pool.Submit([&] {
    while (!release.load()) {
      std::this_thread::yield();
    }
    ran.fetch_add(1);
  });
  for (int i = 0; i < 10; ++i) {
    pool.Submit([&ran] { ran.fetch_add(1); });
  }
  release.store(true);
  pool.Shutdown(ThreadPool::ShutdownMode::kDiscardPending);
  // The running job always completes; pending ones may have started
  // before the shutdown raced in, but nothing is both run and counted
  // discarded, and nothing is lost.
  EXPECT_EQ(pool.JobsCompleted() + pool.JobsDiscarded(), 11u);
  EXPECT_EQ(static_cast<int>(pool.JobsCompleted()), ran.load());
  // Idempotent.
  pool.Shutdown(ThreadPool::ShutdownMode::kDrain);
}

TEST(ThreadPoolTest, CancelPendingJob)
{
  ThreadPool pool({.num_threads = 1, .queue_capacity = 64});
  std::atomic<bool> release{false};
  std::atomic<bool> cancelled_ran{false};
  pool.Submit([&release] {
    while (!release.load()) {
      std::this_thread::yield();
    }
  });
  const JobId doomed =
      pool.Submit([&cancelled_ran] { cancelled_ran.store(true); });
  EXPECT_TRUE(pool.Cancel(doomed));
  release.store(true);
  pool.WaitIdle();
  EXPECT_FALSE(cancelled_ran.load());
  EXPECT_EQ(pool.JobsDiscarded(), 1u);
}

TEST(ThreadPoolTest, BindStatsPublishesPoolCounters)
{
  StatRegistry registry;
  ThreadPool pool({.num_threads = 2, .queue_capacity = 8});
  pool.BindStats(registry.WithPrefix("runtime.pool"));
  pool.Submit([] {});
  pool.WaitIdle();
  EXPECT_EQ(registry.Value("runtime.pool.threads"), 2.0);
  EXPECT_EQ(registry.Value("runtime.pool.jobs_submitted"), 1.0);
  EXPECT_EQ(registry.Value("runtime.pool.jobs_completed"), 1.0);
}

// ---------------------------------------------------------------------------
// Rng::Split

TEST(RngSplitTest, StreamsAreDeterministicAndIndependent)
{
  const Rng parent(7);
  Rng a0 = parent.Split(0);
  Rng a0_again = parent.Split(0);
  EXPECT_EQ(a0.NextU64(), a0_again.NextU64());
  // Distinct stream ids diverge immediately (overwhelmingly likely
  // for any non-degenerate mixing).
  Rng b0 = parent.Split(0);
  Rng b1 = parent.Split(1);
  EXPECT_NE(b0.NextU64(), b1.NextU64());
}

TEST(RngSplitTest, SplitDoesNotAdvanceParent)
{
  Rng witness(99);
  const std::uint64_t expected = witness.NextU64();
  Rng parent(99);
  (void)parent.Split(3);
  (void)parent.Split(4);
  EXPECT_EQ(parent.NextU64(), expected);
}

// ---------------------------------------------------------------------------
// StatScope

TEST(StatScopeTest, PrefixesAndNests)
{
  StatRegistry registry;
  StatScope scope = registry.WithPrefix("runtime.session1");
  scope.AddCounter("steps", "steps")->Add(5);
  StatScope nested = scope.WithPrefix("pool");
  nested.AddGauge("depth", "queue depth")->Set(3.5);
  EXPECT_TRUE(registry.Has("runtime.session1.steps"));
  EXPECT_TRUE(registry.Has("runtime.session1.pool.depth"));
  EXPECT_EQ(registry.Value("runtime.session1.steps"), 5.0);
  EXPECT_EQ(registry.Value("runtime.session1.pool.depth"), 3.5);
  EXPECT_EQ(scope.Prefix(), "runtime.session1.");
}

TEST(StatScopeTest, ConcurrentRegistrationIsSerialized)
{
  StatRegistry registry;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&registry, t] {
      StatScope scope =
          registry.WithPrefix("runtime.session" + std::to_string(t));
      for (int i = 0; i < 25; ++i) {
        scope.AddCounter(std::string("c").append(std::to_string(i)),
                         "counter")
            ->Inc();
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(registry.Size(), 100u);
}

// ---------------------------------------------------------------------------
// PartitionRows

TEST(PartitionRowsTest, CoversWithoutOverlap)
{
  for (std::size_t rows : {1u, 2u, 7u, 64u, 65u}) {
    for (int k : {1, 2, 4, 7, 100}) {
      const auto bands = PartitionRows(rows, k);
      ASSERT_FALSE(bands.empty());
      EXPECT_LE(bands.size(), std::min<std::size_t>(
                                  static_cast<std::size_t>(k), rows));
      std::size_t next = 0;
      for (const auto& [begin, end] : bands) {
        EXPECT_EQ(begin, next);
        EXPECT_LT(begin, end);
        next = end;
      }
      EXPECT_EQ(next, rows);
      // Balanced: band sizes differ by at most one row.
      std::size_t lo = rows;
      std::size_t hi = 0;
      for (const auto& [begin, end] : bands) {
        lo = std::min(lo, end - begin);
        hi = std::max(hi, end - begin);
      }
      EXPECT_LE(hi - lo, 1u);
    }
  }
}

// ---------------------------------------------------------------------------
// Sharded execution determinism

class ShardedDeterminismTest
    : public testing::TestWithParam<std::tuple<std::string, int>>
{
};

TEST_P(ShardedDeterminismTest, BitIdenticalToSerialDouble)
{
  const auto& [model, shards] = GetParam();
  const NetworkSpec spec = ModelSpec(model, 17, 16);

  DeSolver serial(spec, Opts(Precision::kDouble));
  serial.Run(40);

  DeSolver sharded(spec, Opts(Precision::kDouble));
  RunTeam(&sharded.Iface(), 40, shards);

  EXPECT_EQ(sharded.Steps(), 40u);
  for (int l = 0; l < spec.NumLayers(); ++l) {
    const auto a = serial.StateDoubles(l);
    const auto b = sharded.StateDoubles(l);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      // Bit-identical, not approximately equal.
      ASSERT_EQ(a[i], b[i]) << model << " layer " << l << " cell " << i
                            << " with " << shards << " shards";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModelsAndWorkerCounts, ShardedDeterminismTest,
    testing::Combine(testing::Values("heat", "reaction_diffusion"),
                     testing::Values(1, 2, 4, 7)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_k" +
             std::to_string(std::get<1>(info.param));
    });

TEST(ShardedDeterminismTest, BitIdenticalToSerialFixed32)
{
  const NetworkSpec spec = ModelSpec("reaction_diffusion", 16, 16);

  DeSolver serial(spec, Opts(Precision::kFixed32));
  serial.Run(40);

  DeSolver sharded(spec, Opts(Precision::kFixed32));
  RunTeam(&sharded.Iface(), 40, 4);

  for (int l = 0; l < spec.NumLayers(); ++l) {
    const auto& a = serial.FixedEngine().State(l);
    const auto& b = sharded.FixedEngine().State(l);
    for (std::size_t i = 0; i < a.Size(); ++i) {
      ASSERT_EQ(a.Data()[i].raw(), b.Data()[i].raw())
          << "layer " << l << " cell " << i;
    }
  }
}

TEST(ShardedDeterminismTest, MoreShardsThanRowsStillCorrect)
{
  const NetworkSpec spec = ModelSpec("heat", 3, 8);
  DeSolver serial(spec, Opts(Precision::kDouble));
  serial.Run(10);
  DeSolver sharded(spec, Opts(Precision::kDouble));
  RunTeam(&sharded.Iface(), 10, 16);
  const auto a = serial.StateDoubles(0);
  const auto b = sharded.StateDoubles(0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]);
  }
}

// ---------------------------------------------------------------------------
// Shard phase timings

TEST(ShardPhaseTimingsTest, ObservedRunIsBitIdenticalAndAccountsPhases)
{
  constexpr std::uint64_t kSteps = 24;
  constexpr int kShards = 4;
  const NetworkSpec spec = ModelSpec("heat", 17, 16);

  const auto plain = MakeSoaEngine(spec, Opts(Precision::kDouble));
  plain->Run(kSteps);

  const auto observed = MakeSoaEngine(spec, Opts(Precision::kDouble));
  ShardPhaseTimings timings(kShards);
  // Bound before the run: the histograms are registry-owned, so only
  // post-bind samples land in them (counters accumulate regardless).
  StatRegistry reg;
  timings.BindStats(&reg, "runtime.");
  TraceSession trace(kTraceAllCategories, 1 << 12);
  RunTeam(observed.get(), kSteps, kShards, &timings, &trace);

  // Observation must never change results.
  for (int l = 0; l < spec.NumLayers(); ++l) {
    const auto a = plain->Snapshot(l);
    const auto b = observed->Snapshot(l);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i], b[i]) << "layer " << l << " cell " << i;
    }
  }

  // Every shard took part in every step; the serial publish ran once
  // per step.
  for (int s = 0; s < kShards; ++s) {
    EXPECT_EQ(timings.ShardAt(static_cast<std::size_t>(s)).steps, kSteps)
        << "shard " << s;
  }
  EXPECT_EQ(timings.PublishCount(), kSteps);

  // Stat subtree: per-shard counters plus histogram sub-stats with
  // one sample per step.
  EXPECT_EQ(reg.Value("runtime.shard0.steps"),
            static_cast<double>(kSteps));
  EXPECT_EQ(reg.Value("runtime.publish.count"),
            static_cast<double>(kSteps));
  const auto snapshot = reg.TypedSnapshot();
  EXPECT_EQ(snapshot.at("runtime.shard2.step_us.count").value,
            static_cast<double>(kSteps));
  EXPECT_EQ(snapshot.at("runtime.publish.us.count").value,
            static_cast<double>(kSteps));

  // Trace: named lanes and per-phase spans.
  const std::string json = trace.ToChromeJson(1e3);
  EXPECT_NE(json.find("\"name\":\"shard0\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"shard3\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"publish\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"refresh\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"step\""), std::string::npos);
}

TEST(ShardPhaseTimingsTest, SerialFallbackAccountsToShardZero)
{
  constexpr std::uint64_t kSteps = 12;
  const NetworkSpec spec = ModelSpec("heat", 8, 8);

  const auto plain = MakeSoaEngine(spec, Opts(Precision::kFixed32));
  plain->Run(kSteps);

  const auto observed = MakeSoaEngine(spec, Opts(Precision::kFixed32));
  ShardPhaseTimings timings(1);
  RunTeam(observed.get(), kSteps, /*shards=*/1, &timings);

  for (int l = 0; l < spec.NumLayers(); ++l) {
    const auto a = plain->Snapshot(l);
    const auto b = observed->Snapshot(l);
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i], b[i]);
    }
  }
  EXPECT_EQ(timings.ShardAt(0).steps, kSteps);
  EXPECT_EQ(timings.PublishCount(), kSteps);
}

TEST(ShardTeamTest, OneShardTeamCountsItsOwnSaturations)
{
  // A one-shard team steps on the calling thread. Like a band worker,
  // it must count Fixed32 clamps into the attached guard itself, on
  // its plain and its observed branch: the caller installs nothing.
  constexpr std::uint64_t kSteps = 4;
  NetworkSpec spec = ModelSpec("reaction_diffusion", 31, 17);
  for (LayerSpec& layer : spec.layers) {
    for (double& x : layer.initial_state) {
      x *= 3.0e4;  // far outside Q16.16 once multiplied
    }
  }

  HealthGuard serial_guard;
  const auto serial = MakeSoaEngine(spec, Opts(Precision::kFixed32));
  serial->AttachHealthGuard(&serial_guard);
  {
    ScopedSatCounter sat(&serial_guard);
    serial->Run(kSteps);
  }
  ASSERT_GT(serial_guard.SatEvents(), 0u);

  for (const bool observed : {false, true}) {
    HealthGuard guard;
    const auto engine = MakeSoaEngine(spec, Opts(Precision::kFixed32));
    engine->AttachHealthGuard(&guard);
    ShardPhaseTimings timings(1);
    RunTeam(engine.get(), kSteps, /*shards=*/1,
            observed ? &timings : nullptr);
    EXPECT_EQ(guard.SatEvents(), serial_guard.SatEvents())
        << (observed ? "observed" : "plain");
  }
}

// ---------------------------------------------------------------------------
// SolverSession

SessionConfig
TinySessionConfig(const std::string& name, std::uint64_t target)
{
  SessionConfig sc;
  sc.name = name;
  sc.target_steps = target;
  sc.slice_steps = 8;
  return sc;
}

TEST(SolverSessionTest, RunsToTargetAndReportsDone)
{
  const NetworkSpec spec = ModelSpec("heat", 12, 12);
  SolverSession session(spec, Opts(Precision::kFixed32),
                        TinySessionConfig("t", 30));
  EXPECT_EQ(session.State(), SessionState::kIdle);
  EXPECT_EQ(session.RunToTarget(), 30u);
  EXPECT_EQ(session.State(), SessionState::kDone);
  EXPECT_EQ(session.StepsDone(), 30u);
  EXPECT_EQ(session.StepsExecuted(), 30u);
  EXPECT_TRUE(session.ReachedTarget());
  // Terminal: further stepping is a no-op.
  EXPECT_EQ(session.StepN(10), 0u);
}

TEST(SolverSessionTest, PauseBeforeStepRunsZeroSteps)
{
  const NetworkSpec spec = ModelSpec("heat", 12, 12);
  SolverSession session(spec, Opts(Precision::kDouble),
                        TinySessionConfig("p", 100));
  session.RequestPause();
  EXPECT_EQ(session.StepN(50), 0u);
  EXPECT_EQ(session.State(), SessionState::kPaused);
  session.Resume();
  EXPECT_EQ(session.StepN(50), 50u);
  EXPECT_EQ(session.StepsDone(), 50u);
}

TEST(SolverSessionTest, CancelIsTerminal)
{
  const NetworkSpec spec = ModelSpec("heat", 12, 12);
  SolverSession session(spec, Opts(Precision::kDouble),
                        TinySessionConfig("c", 100));
  session.StepN(16);
  session.RequestCancel();
  EXPECT_EQ(session.StepN(50), 0u);
  EXPECT_EQ(session.State(), SessionState::kCancelled);
  EXPECT_EQ(session.StepsDone(), 16u);
}

TEST(SolverSessionTest, CheckpointResumeRoundTripIsBitExact)
{
  const std::string dir = ScratchDir("session_resume");
  const std::string ckpt = dir + "/mid.ckpt";
  const NetworkSpec spec = ModelSpec("reaction_diffusion", 16, 16);
  const SolverOptions fixed = Opts(Precision::kFixed32);

  SolverSession uninterrupted(spec, fixed, TinySessionConfig("u", 60));
  uninterrupted.RunToTarget();

  SolverSession first(spec, fixed, TinySessionConfig("a", 60));
  first.StepN(25);
  ASSERT_TRUE(first.SaveCheckpoint(ckpt));

  SolverSession resumed(spec, fixed, TinySessionConfig("b", 60));
  ASSERT_TRUE(resumed.TryRestoreFromFile(ckpt));
  EXPECT_EQ(resumed.StepsDone(), 25u);
  resumed.RunToTarget();

  EXPECT_EQ(resumed.StepsDone(), 60u);
  EXPECT_EQ(resumed.StepsExecuted(), 35u);
  EXPECT_EQ(resumed.StateChecksum(), uninterrupted.StateChecksum());
}

TEST(SolverSessionTest, RestoreFromMissingFileIsColdStart)
{
  const NetworkSpec spec = ModelSpec("heat", 12, 12);
  SolverSession session(spec, Opts(Precision::kDouble),
                        TinySessionConfig("m", 10));
  EXPECT_FALSE(session.TryRestoreFromFile("/nonexistent/path.ckpt"));
  EXPECT_EQ(session.StepsDone(), 0u);
}

/** The bytes of `path`. */
std::vector<char>
ReadBytes(const std::string& path)
{
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in), {});
}

/** Replaces `path` with `bytes`. */
void
WriteBytes(const std::string& path, const std::vector<char>& bytes)
{
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(SolverSessionTest, TornOrGarbledCheckpointIsAColdStart)
{
  // A checkpoint cut at any byte, or with any one bit flipped, must
  // leave the session untouched at step 0 instead of ending the
  // process.
  const std::string dir = ScratchDir("session_torn");
  const std::string ckpt = dir + "/torn.ckpt";
  const NetworkSpec spec = ModelSpec("heat", 8, 8);
  SolverSession writer(spec, Opts(Precision::kDouble),
                       TinySessionConfig("w", 10));
  writer.StepN(6);
  ASSERT_TRUE(writer.SaveCheckpoint(ckpt));
  const std::vector<char> good = ReadBytes(ckpt);
  ASSERT_GT(good.size(), 40u);

  const auto expect_cold_start = [&](const std::string& what) {
    SolverSession session(spec, Opts(Precision::kDouble),
                          TinySessionConfig("r", 10));
    EXPECT_FALSE(session.TryRestoreFromFile(ckpt)) << what;
    EXPECT_EQ(session.StepsDone(), 0u) << what;
    EXPECT_EQ(session.State(), SessionState::kIdle) << what;
  };
  for (std::size_t n = 0; n < good.size(); ++n) {
    WriteBytes(ckpt, std::vector<char>(good.begin(), good.begin() + n));
    expect_cold_start("truncated to " + std::to_string(n) + " bytes");
  }
  Rng rng(0x70c4);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<char> flipped = good;
    const std::size_t bit = rng.NextU64() % (flipped.size() * 8);
    flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
    WriteBytes(ckpt, flipped);
    expect_cold_start("bit " + std::to_string(bit) + " flipped");
  }
}

TEST(SolverSessionTest, CheckpointOfAnotherGeometryIsAColdStart)
{
  const std::string dir = ScratchDir("session_geometry");
  const std::string ckpt = dir + "/other.ckpt";
  SolverSession writer(ModelSpec("heat", 10, 8), Opts(Precision::kDouble),
                       TinySessionConfig("w", 10));
  writer.StepN(4);
  ASSERT_TRUE(writer.SaveCheckpoint(ckpt));

  SolverSession session(ModelSpec("heat", 8, 8), Opts(Precision::kDouble),
                        TinySessionConfig("r", 10));
  EXPECT_FALSE(session.TryRestoreFromFile(ckpt));
  EXPECT_EQ(session.StepsDone(), 0u);
}

TEST(SolverSessionTest, AutoCheckpointWritesPeriodically)
{
  const std::string dir = ScratchDir("session_auto");
  const NetworkSpec spec = ModelSpec("heat", 12, 12);
  SessionConfig sc = TinySessionConfig("auto", 40);
  sc.checkpoint_every = 16;
  sc.checkpoint_path = dir + "/auto.ckpt";
  SolverSession session(spec, Opts(Precision::kFixed32), sc);
  session.RunToTarget();
  EXPECT_TRUE(std::filesystem::exists(sc.checkpoint_path));

  // The file must hold a valid mid-run (or final) state.
  SolverSession probe(spec, Opts(Precision::kFixed32),
                      TinySessionConfig("probe", 40));
  EXPECT_TRUE(probe.TryRestoreFromFile(sc.checkpoint_path));
  EXPECT_GE(probe.StepsDone(), 16u);
}

TEST(SolverSessionTest, BindStatsExposesSessionSubtree)
{
  StatRegistry registry;
  const NetworkSpec spec = ModelSpec("heat", 12, 12);
  SolverSession session(spec, Opts(Precision::kDouble),
                        TinySessionConfig("s", 20));
  session.BindStats(&registry);
  session.RunToTarget();
  const std::string prefix = "runtime.session" + std::to_string(session.Id());
  EXPECT_EQ(registry.Value(prefix + ".steps"), 20.0);
  EXPECT_EQ(registry.Value(prefix + ".steps_executed"), 20.0);
  EXPECT_EQ(registry.Value(prefix + ".state"),
            static_cast<double>(static_cast<int>(SessionState::kDone)));
}

TEST(SolverSessionTest, ShardedSessionMatchesSerialSession)
{
  const NetworkSpec spec = ModelSpec("reaction_diffusion", 16, 16);
  const SolverOptions fixed = Opts(Precision::kFixed32);

  SolverSession serial(spec, fixed, TinySessionConfig("ser", 30));
  serial.RunToTarget();

  SessionConfig sc = TinySessionConfig("shr", 30);
  sc.exec.shards = 3;
  SolverSession sharded(spec, fixed, sc);
  sharded.RunToTarget();

  EXPECT_EQ(serial.StateChecksum(), sharded.StateChecksum());
}

/**
 * The tentpole lifecycle contract: one persistent worker team serves
 * the whole session — every slice across run / pause / checkpoint /
 * restore / resume is another dispatch to the same resident workers,
 * never a fresh spawn, and the state stays bit-identical to a serial
 * session's.
 */
TEST(SolverSessionTest, PersistentTeamServesWholeLifecycle)
{
  const std::string dir = ScratchDir("session_team");
  const std::string ckpt = dir + "/team.ckpt";
  const NetworkSpec spec = ModelSpec("reaction_diffusion", 16, 16);
  const SolverOptions fixed = Opts(Precision::kFixed32);

  SolverSession serial(spec, fixed, TinySessionConfig("ser", 48));
  serial.RunToTarget();

  SessionConfig sc = TinySessionConfig("team", 48);
  sc.exec.shards = 3;
  StatRegistry registry;
  SolverSession session(spec, fixed, sc);
  session.BindStats(&registry);
  ASSERT_EQ(session.Team().Workers(), 3);

  session.StepN(16);
  const std::uint64_t after_first = session.Team().Dispatches();
  EXPECT_GE(after_first, 1u);

  session.RequestPause();
  EXPECT_EQ(session.StepN(8), 0u);  // paused: no dispatch
  session.Resume();

  ASSERT_TRUE(session.SaveCheckpoint(ckpt));
  session.StepN(16);
  ASSERT_TRUE(session.TryRestoreFromFile(ckpt));  // back to step 16
  session.RunToTarget();

  // Same team object all along: workers never re-spawned, dispatch
  // count strictly accumulated across the lifecycle.
  EXPECT_EQ(session.Team().Workers(), 3);
  EXPECT_GT(session.Team().Dispatches(), after_first);
  EXPECT_EQ(session.StepsDone(), 48u);
  EXPECT_EQ(session.StateChecksum(), serial.StateChecksum());

  const std::string prefix =
      "runtime.session" + std::to_string(session.Id());
  EXPECT_EQ(registry.Value(prefix + ".team.workers"), 3.0);
  EXPECT_EQ(registry.Value(prefix + ".team.dispatches"),
            static_cast<double>(session.Team().Dispatches()));
}

/**
 * Phase-counter parity: a single-shard session reports the same
 * runtime.session<N>.shard0.* subtree a sharded one does — the serial
 * fallback is no longer a blind spot.
 */
TEST(SolverSessionTest, SerialSessionEmitsShardPhaseCounters)
{
  const NetworkSpec spec = ModelSpec("heat", 12, 12);
  for (const int shards : {1, 3}) {
    StatRegistry registry;
    SessionConfig sc = TinySessionConfig("parity", 24);
    sc.exec.shards = shards;
    SolverSession session(spec, Opts(Precision::kDouble), sc);
    session.BindStats(&registry);
    session.RunToTarget();

    const std::string prefix =
        "runtime.session" + std::to_string(session.Id());
    EXPECT_EQ(registry.Value(prefix + ".shard0.steps"), 24.0)
        << "shards=" << shards;
    EXPECT_EQ(registry.Value(prefix + ".publish.count"), 24.0)
        << "shards=" << shards;
  }
}

// ---------------------------------------------------------------------------
// Manifest parsing

TEST(BatchManifestTest, ParsesJobsAndDefaults)
{
  const auto jobs = ParseManifest(
      "# two jobs\n"
      "model=heat\n"
      "rows=32\n"
      "steps=100  # trailing comment\n"
      "\n"
      "model=reaction_diffusion\n"
      "name=rd\n"
      "exec=functional:double:shards=4\n"
      "priority=-2\n"
      "seed=7\n");
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].name, "job0_heat");
  EXPECT_EQ(jobs[0].rows, 32u);
  EXPECT_EQ(jobs[0].cols, 64u);
  EXPECT_EQ(jobs[0].steps, 100u);
  EXPECT_EQ(jobs[0].exec.engine, "soa");  // no exec=: the default engine
  EXPECT_EQ(jobs[0].exec.precision, "");
  EXPECT_FALSE(jobs[0].has_seed);
  EXPECT_EQ(jobs[1].name, "rd");
  EXPECT_EQ(jobs[1].exec.engine, "functional");
  EXPECT_EQ(jobs[1].exec.precision, "double");
  EXPECT_EQ(jobs[1].exec.shards, 4);
  EXPECT_EQ(jobs[1].priority, -2);
  EXPECT_TRUE(jobs[1].has_seed);
  EXPECT_EQ(jobs[1].seed, 7u);
}

TEST(BatchManifestTest, MalformedManifestsDie)
{
  EXPECT_DEATH(ParseManifest("rows=32\n"), "no 'model='");
  EXPECT_DEATH(ParseManifest("model=heat\nbogus_key=1\n"), "unknown key");
  EXPECT_DEATH(ParseManifest("model=heat\nsteps=abc\n"), "integer");
  EXPECT_DEATH(ParseManifest("model=heat\nexec=engine=gpu\n"),
               "unknown engine");
  EXPECT_DEATH(ParseManifest("model=heat\nexec=pin=turbo\n"),
               "unknown pin mode");
  EXPECT_DEATH(ParseManifest("model=heat\nname=x\n\nmodel=heat\nname=x\n"),
               "duplicate job name");
  EXPECT_DEATH(ParseManifest("# only comments\n"), "no jobs");
  EXPECT_DEATH(ParseManifest("model=heat\nexec=warp9\n"), "exec");
  // float needs the soa engine: caught at spec validation.
  EXPECT_DEATH(ParseManifest("model=heat\nexec=functional:float\n"),
               "only available on the soa");
}

TEST(BatchManifestTest, RemovedExecKeysAreRejected)
{
  // exec= is the one key for how a job runs: the old per-field keys
  // are unknown keys now, even with values the policy would accept.
  const char* const removed[] = {"engine=soa", "engine=double",
                                 "precision=double", "memory=hmc-int",
                                 "kernel=simd", "shards=2"};
  for (const char* line : removed) {
    std::vector<JobSpecError> errors;
    const auto jobs = ParseManifestCollect(
        std::string("model=heat\n") + line + "\n", &errors);
    const std::string key = std::string(line).substr(
        0, std::string(line).find('='));
    ASSERT_EQ(errors.size(), 1u) << line;
    EXPECT_EQ(errors[0].line, 2) << line;
    EXPECT_EQ(errors[0].key, key) << line;
    EXPECT_EQ(errors[0].message, "unknown key") << line;
    ASSERT_EQ(jobs.size(), 1u) << line;
    EXPECT_EQ(jobs[0].exec, ExecPolicy{}) << line;
  }
}

TEST(BatchManifestTest, KernelSpellingsAndIgnoredSettingsAreRejected)
{
  // The SoA engine has one kernel, so kernel= and the bare kernel-path
  // tokens are unknown; and a policy may not name a setting its engine
  // would ignore (arch is Q16.16 only, only arch models memory).
  const std::pair<const char*, const char*> cases[] = {
      {"exec=soa:blocked", "unknown exec token 'blocked'"},
      {"exec=simd", "unknown exec token 'simd'"},
      {"exec=kernel=auto", "unknown exec key 'kernel'"},
      {"exec=arch:double", "arch engine"},
      {"exec=soa:hmc-int", "memory 'hmc-int'"},
      {"exec=functional:hmc-ext", "memory 'hmc-ext'"},
  };
  for (const auto& [line, want] : cases) {
    std::vector<JobSpecError> errors;
    ParseManifestCollect(std::string("model=heat\n") + line + "\n",
                         &errors);
    ASSERT_EQ(errors.size(), 1u) << line;
    EXPECT_EQ(errors[0].key, "exec") << line;
    EXPECT_NE(errors[0].message.find(want), std::string::npos)
        << errors[0].message;
  }
}

TEST(BatchManifestTest, ExecKeyMergesOverFrontendDefaults)
{
  // cenn_batch seeds every job from its --exec value; per-job exec=
  // keys override only the fields they mention.
  JobSpec defaults;
  std::string parse_error;
  ASSERT_TRUE(ParseExecPolicy("soa:double:pin=cores", &defaults.exec,
                              &parse_error));
  const auto jobs = ParseManifest(
      "model=heat\n"
      "\n"
      "model=heat\nname=wide\nexec=shards=3\n"
      "\n"
      "model=heat\nname=classic\nexec=functional:fixed:pin=none\n",
      &defaults);
  ASSERT_EQ(jobs.size(), 3u);

  // Job 0: pure defaults.
  EXPECT_EQ(FormatExecPolicy(jobs[0].exec), "soa:double:pin=cores");
  // Job 1: only shards overridden; engine/precision/pin survive.
  EXPECT_EQ(jobs[1].exec.engine, "soa");
  EXPECT_EQ(jobs[1].exec.precision, "double");
  EXPECT_EQ(jobs[1].exec.pin, "cores");
  EXPECT_EQ(jobs[1].exec.shards, 3);
  // Job 2: every mentioned field overridden back.
  EXPECT_EQ(jobs[2].exec.engine, "functional");
  EXPECT_EQ(jobs[2].exec.precision, "fixed");
  EXPECT_EQ(jobs[2].exec.pin, "none");

  // A job that switches engine drops an arch-only memory it inherited;
  // a job that keeps the engine keeps it.
  JobSpec arch_defaults;
  ASSERT_TRUE(ParseExecPolicy("arch:hmc-int", &arch_defaults.exec,
                              &parse_error));
  const auto switched = ParseManifest(
      "model=heat\nname=fast\nexec=soa\n"
      "\n"
      "model=heat\nname=sim\nexec=shards=2\n",
      &arch_defaults);
  ASSERT_EQ(switched.size(), 2u);
  EXPECT_EQ(FormatExecPolicy(switched[0].exec), "soa");
  EXPECT_EQ(FormatExecPolicy(switched[1].exec), "arch:hmc-int:shards=2");
}

TEST(BatchManifestTest, CollectsEveryExecErrorWithLineNumbers)
{
  std::vector<JobSpecError> errors;
  const auto jobs = ParseManifestCollect(
      "model=heat\n"
      "exec=warp9\n"          // line 2: unknown token
      "rows=zero\n"           // line 3: malformed number
      "\n"
      "model=heat\n"
      "name=ok\n"
      "exec=soa:float:shards=2\n",
      &errors);
  ASSERT_EQ(errors.size(), 2u);
  EXPECT_EQ(errors[0].line, 2);
  EXPECT_EQ(errors[0].key, "exec");
  EXPECT_EQ(errors[1].line, 3);
  EXPECT_EQ(errors[1].key, "rows");
  // The clean job still parses — one pass reports everything.
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(FormatExecPolicy(jobs[1].exec), "soa:float:shards=2");
}

TEST(BatchManifestTest, ErrorsCarryTheOriginFileWhenGiven)
{
  std::vector<JobSpecError> errors;
  ParseManifestCollect("model=heat\nrows=zero\n", &errors, nullptr,
                       "jobs/batch.txt");
  ASSERT_GE(errors.size(), 1u);
  EXPECT_EQ(errors[0].file, "jobs/batch.txt");
  EXPECT_EQ(errors[0].line, 2);
  EXPECT_EQ(errors[0].key, "rows");
  // Formatted as "<file>:<line>: key ..." so editors can jump to it.
  EXPECT_EQ(FormatJobSpecError(errors[0]).rfind("jobs/batch.txt:2: ", 0),
            0u);

  // Without an origin file the classic "line N:" form is preserved.
  std::vector<JobSpecError> bare;
  ParseManifestCollect("model=heat\nrows=zero\n", &bare);
  ASSERT_GE(bare.size(), 1u);
  EXPECT_EQ(FormatJobSpecError(bare[0]).rfind("line 2:", 0), 0u);
}

TEST(BatchManifestTest, ScenarioJobsValidateAtSubmitTime)
{
  // Naming both a model and a scenario source is one precise error.
  std::vector<JobSpecError> errors;
  ParseManifestCollect(
      "model=heat\nmodel_source=scenario x; dt 0.1; steps 1; var u; "
      "d u/dt = u\nsteps=5\n",
      &errors);
  bool saw_exclusive = false;
  for (const JobSpecError& e : errors) {
    if (e.message.find("exactly one") != std::string::npos) {
      saw_exclusive = true;
    }
  }
  EXPECT_TRUE(saw_exclusive) << FormatJobSpecErrors(errors);

  // A scenario that does not compile is rejected at parse time, keyed
  // to the source key so the client knows which line to fix.
  errors.clear();
  ParseManifestCollect("model_source=scenario x; var u\nsteps=5\n",
                       &errors);
  bool saw_compile = false;
  for (const JobSpecError& e : errors) {
    if (e.key == "model_source" &&
        e.message.find("compile") != std::string::npos) {
      saw_compile = true;
    }
  }
  EXPECT_TRUE(saw_compile) << FormatJobSpecErrors(errors);

  // A valid scenario with no step budget anywhere is caught up front,
  // not after the job is admitted.
  errors.clear();
  ParseManifestCollect(
      "model_source=scenario x; dt 0.1; var u; d u/dt = u\n", &errors);
  bool saw_steps = false;
  for (const JobSpecError& e : errors) {
    if (e.key == "steps") {
      saw_steps = true;
    }
  }
  EXPECT_TRUE(saw_steps) << FormatJobSpecErrors(errors);
}

TEST(BatchRunnerTest, InlineScenarioJobMatchesItsHandCodedTwin)
{
  // The same physics submitted twice — once as the registered C++
  // model, once as DSL text — must land on the same final checksum.
  const auto manifest = ParseManifest(
      "model=heat\nname=twin\nrows=12\ncols=12\nsteps=10\nseed=5\n"
      "\n"
      "model_source=scenario heat_text; dt 0.1; param kappa = 1.0; "
      "var phi; d phi/dt = kappa * laplacian(phi); "
      "init phi = gaussian_spots(spots=3)\n"
      "name=text\nrows=12\ncols=12\nsteps=10\nseed=5\n");
  BatchOptions options;
  options.out_dir = ScratchDir("batch_scenario");
  options.num_threads = 2;
  const auto results = BatchRunner(manifest, options).RunAll();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].status, JobStatus::kOk);
  EXPECT_EQ(results[1].status, JobStatus::kOk);
  EXPECT_NE(results[0].checksum, 0u);
  EXPECT_EQ(results[0].checksum, results[1].checksum);
  // Scenario jobs display a stable placeholder in the results CSV.
  const std::string csv = BatchRunner::ResultsCsv(results);
  EXPECT_NE(csv.find("text,inline,"), std::string::npos);
}

TEST(BatchRunnerTest, ScenarioFileJobsRunFromDiskAndDefaultTheirName)
{
  const std::string dir = ScratchDir("batch_scenario_file");
  const std::string path = dir + "/decay.cenn";
  {
    std::ofstream out(path);
    out << "scenario decay\ngrid 10 10\ndt 0.1\nsteps 8\n"
           "var u\nd u/dt = -u\ninit u = constant(value=1.0)\n";
  }
  const auto manifest =
      ParseManifest("model_file=" + path + "\nseed=3\n");
  ASSERT_EQ(manifest.size(), 1u);
  // Unnamed jobs take their stem from the scenario file's basename.
  EXPECT_EQ(manifest[0].name, "job0_decay");
  BatchOptions options;
  options.out_dir = dir;
  options.num_threads = 1;
  const auto results = BatchRunner(manifest, options).RunAll();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, JobStatus::kOk) << results[0].name;
  // steps= was omitted: the scenario's own `steps 8` budget applies.
  EXPECT_EQ(results[0].steps_done, 8u);
  EXPECT_NE(BatchRunner::ResultsCsv(results).find("file:" + path),
            std::string::npos);
}

TEST(BatchRunnerTest, AScenarioJobThatNamesOneSideGetsThatSide)
{
  // rows=32 on a `grid 10 10` scenario runs 32x10: the same checksum
  // as rows=32 cols=10 spelled out, not the file's 10x10.
  const std::string src =
      "model_source=scenario s; grid 10 10; dt 0.1; steps 6; var u; "
      "d u/dt = 0.1 * laplacian(u) - u; init u = uniform(lo=0, hi=1)\n";
  const auto manifest = ParseManifest(
      src + "name=one_side\nrows=32\nseed=3\n\n" +
      src + "name=both\nrows=32\ncols=10\nseed=3\n\n" +
      src + "name=file_grid\nseed=3\n");
  ASSERT_EQ(manifest.size(), 3u);
  using Grid = std::pair<std::size_t, std::size_t>;
  EXPECT_EQ(JobGrid(manifest[0]), Grid(32, 10));
  EXPECT_EQ(JobGrid(manifest[2]), Grid(10, 10));
  BatchOptions options;
  options.out_dir = ScratchDir("batch_scenario_one_side");
  options.num_threads = 1;
  const auto results = BatchRunner(manifest, options).RunAll();
  ASSERT_EQ(results.size(), 3u);
  for (const JobResult& r : results) {
    EXPECT_EQ(r.status, JobStatus::kOk) << r.name;
  }
  EXPECT_EQ(results[0].checksum, results[1].checksum);
  EXPECT_NE(results[0].checksum, results[2].checksum);
}

// ---------------------------------------------------------------------------
// BatchRunner

std::vector<BatchJobSpec>
TinyManifest()
{
  return ParseManifest(
      "model=heat\nname=h\nrows=12\ncols=12\nsteps=25\n"
      "\n"
      "model=reaction_diffusion\nname=rd\nrows=12\ncols=12\nsteps=20\n"
      "exec=functional:double:shards=2\n"
      "\n"
      "model=heat\nname=h2\nrows=10\ncols=10\nsteps=15\npriority=3\n");
}

TEST(BatchRunnerTest, RunsManifestToCompletion)
{
  const std::string dir = ScratchDir("batch_full");
  BatchOptions options;
  options.out_dir = dir;
  options.num_threads = 2;

  StatRegistry registry;
  BatchRunner runner(TinyManifest(), options);
  const auto results = runner.RunAll(&registry);

  ASSERT_EQ(results.size(), 3u);
  for (const auto& r : results) {
    EXPECT_EQ(r.status, JobStatus::kOk) << r.name;
    EXPECT_EQ(r.attempts, 1) << r.name;
    EXPECT_FALSE(JobStatusIsFailure(r.status)) << r.name;
    EXPECT_TRUE(std::filesystem::exists(dir + "/" + r.name + ".done"));
    EXPECT_TRUE(std::filesystem::exists(dir + "/" + r.name + ".stats.txt"));
  }
  EXPECT_EQ(results[0].name, "h");  // manifest order, not finish order
  EXPECT_EQ(results[0].steps_done, 25u);
  EXPECT_EQ(results[1].steps_done, 20u);
  EXPECT_EQ(registry.Value("runtime.batch.jobs_done"), 3.0);
  EXPECT_EQ(registry.Value("runtime.batch.jobs_failed"), 0.0);
  EXPECT_EQ(registry.Value("runtime.pool.jobs_completed"), 3.0);
  EXPECT_EQ(registry.Value("runtime.job0.attempts"), 1.0);

  const std::string csv = BatchRunner::ResultsCsv(results);
  EXPECT_NE(csv.find("name,model,exec,status,attempts"), std::string::npos);
  // Job h sets no exec=, so its exec column reads the default engine.
  EXPECT_NE(csv.find("h,heat,soa,ok,1,25"), std::string::npos);
  EXPECT_NE(csv.find("rd,reaction_diffusion,functional:double:shards=2,ok"),
            std::string::npos);
}

TEST(BatchRunnerTest, InterruptedBatchResumesToIdenticalState)
{
  // Reference: one uninterrupted run.
  const std::string ref_dir = ScratchDir("batch_ref");
  BatchOptions ref_options;
  ref_options.out_dir = ref_dir;
  ref_options.num_threads = 2;
  const auto manifest = ParseManifest(
      "model=reaction_diffusion\nname=rd\nrows=12\ncols=12\nsteps=50\n");
  const auto ref = BatchRunner(manifest, ref_options).RunAll();
  ASSERT_EQ(ref[0].status, JobStatus::kOk);

  // Interrupted run: 20-step budget per invocation -> 20, 40, 50.
  const std::string dir = ScratchDir("batch_resume");
  BatchOptions options;
  options.out_dir = dir;
  options.num_threads = 1;
  options.max_steps_per_job = 20;

  auto r1 = BatchRunner(manifest, options).RunAll();
  EXPECT_EQ(r1[0].status, JobStatus::kInterrupted);
  EXPECT_EQ(r1[0].steps_done, 20u);
  EXPECT_TRUE(std::filesystem::exists(dir + "/rd.ckpt"));
  EXPECT_FALSE(std::filesystem::exists(dir + "/rd.done"));

  options.resume = true;
  auto r2 = BatchRunner(manifest, options).RunAll();
  EXPECT_EQ(r2[0].status, JobStatus::kInterrupted);
  EXPECT_EQ(r2[0].steps_done, 40u);
  EXPECT_EQ(r2[0].steps_executed, 20u);

  auto r3 = BatchRunner(manifest, options).RunAll();
  EXPECT_EQ(r3[0].status, JobStatus::kOk);
  EXPECT_EQ(r3[0].steps_done, 50u);
  EXPECT_EQ(r3[0].steps_executed, 10u);
  // The stitched-together run ends in exactly the reference state.
  EXPECT_EQ(r3[0].checksum, ref[0].checksum);

  // Fourth invocation: served from the done marker, nothing recomputed.
  auto r4 = BatchRunner(manifest, options).RunAll();
  EXPECT_EQ(r4[0].status, JobStatus::kCached);
  EXPECT_EQ(r4[0].steps_done, 50u);
  EXPECT_EQ(r4[0].steps_executed, 0u);
  EXPECT_EQ(r4[0].checksum, ref[0].checksum);
}

TEST(BatchRunnerTest, ResumeOverATornCheckpointStartsTheJobOver)
{
  const auto manifest = ParseManifest(
      "model=reaction_diffusion\nname=rd\nrows=12\ncols=12\nsteps=50\n");
  BatchOptions ref_options;
  ref_options.out_dir = ScratchDir("batch_torn_ref");
  const auto ref = BatchRunner(manifest, ref_options).RunAll();
  ASSERT_EQ(ref[0].status, JobStatus::kOk);

  const std::string dir = ScratchDir("batch_torn");
  BatchOptions options;
  options.out_dir = dir;
  options.max_steps_per_job = 20;
  const auto first = BatchRunner(manifest, options).RunAll();
  ASSERT_EQ(first[0].status, JobStatus::kInterrupted);
  const std::vector<char> ckpt = ReadBytes(dir + "/rd.ckpt");
  WriteBytes(dir + "/rd.ckpt",
             std::vector<char>(ckpt.begin(), ckpt.begin() + ckpt.size() / 2));

  options.resume = true;
  options.max_steps_per_job = 0;
  const auto resumed = BatchRunner(manifest, options).RunAll();
  EXPECT_EQ(resumed[0].status, JobStatus::kOk);
  EXPECT_EQ(resumed[0].steps_executed, 50u);
  EXPECT_EQ(resumed[0].checksum, ref[0].checksum);
}

TEST(BatchRunnerTest, ResumeOverCompensatingBitFlipsStartsTheJobOver)
{
  // Two bit flips that cancel in a byte sum (bit 4 set in one state
  // byte, cleared in another) must not restore silently: the job
  // starts over and lands on the uninterrupted checksum.
  const auto manifest = ParseManifest(
      "model=reaction_diffusion\nname=rd\nrows=16\ncols=16\nsteps=60\n");
  BatchOptions ref_options;
  ref_options.out_dir = ScratchDir("batch_ckpt_flip_ref");
  const auto ref = BatchRunner(manifest, ref_options).RunAll();
  ASSERT_EQ(ref[0].status, JobStatus::kOk);

  const std::string dir = ScratchDir("batch_ckpt_flip");
  BatchOptions options;
  options.out_dir = dir;
  options.max_steps_per_job = 20;
  ASSERT_EQ(BatchRunner(manifest, options).RunAll()[0].status,
            JobStatus::kInterrupted);
  std::vector<char> ckpt = ReadBytes(dir + "/rd.ckpt");
  // Past the header (magic, name length and name, geometry, steps,
  // layer count and the first layer's length), before the 8-byte
  // trailer.
  ASSERT_GT(ckpt.size(), 8u);
  std::size_t name_len = 0;
  for (int i = 0; i < 4; ++i) {
    const auto byte = static_cast<unsigned char>(ckpt[4 + i]);
    name_len |= static_cast<std::size_t>(byte) << (8 * i);
  }
  const std::size_t first_value = 4 + 4 + name_len + 8 + 8 + 8 + 4 + 8;
  std::size_t set = 0;
  std::size_t clear = 0;
  for (std::size_t i = first_value; i + 8 < ckpt.size(); ++i) {
    std::size_t& slot = (ckpt[i] & 0x10) != 0 ? set : clear;
    if (slot == 0) {
      slot = i;
    }
  }
  ASSERT_NE(set, 0u);
  ASSERT_NE(clear, 0u);
  ckpt[set] = static_cast<char>(ckpt[set] ^ 0x10);
  ckpt[clear] = static_cast<char>(ckpt[clear] ^ 0x10);
  WriteBytes(dir + "/rd.ckpt", ckpt);

  options.resume = true;
  options.max_steps_per_job = 0;
  const auto resumed = BatchRunner(manifest, options).RunAll();
  EXPECT_EQ(resumed[0].status, JobStatus::kOk);
  EXPECT_EQ(resumed[0].steps_executed, 60u);
  EXPECT_EQ(resumed[0].checksum, ref[0].checksum);
}

TEST(BatchRunnerTest, CrashedJobsRecoverToFaultFreeChecksum)
{
  const auto manifest = ParseManifest(
      "model=reaction_diffusion\nname=rd\nrows=12\ncols=12\nsteps=60\n");

  BatchOptions ref_options;
  ref_options.out_dir = ScratchDir("batch_crash_ref");
  ref_options.num_threads = 1;
  const auto ref = BatchRunner(manifest, ref_options).RunAll();
  ASSERT_EQ(ref[0].status, JobStatus::kOk);

  // Two simulated crashes mid-run; each attempt restores the last
  // auto-checkpoint, and the final state must match the fault-free run.
  BatchOptions options;
  options.out_dir = ScratchDir("batch_crash");
  options.num_threads = 1;
  options.checkpoint_every = 10;
  options.max_retries = 2;
  options.fault_inject = "crash@20x2";

  StatRegistry registry;
  const auto results = BatchRunner(manifest, options).RunAll(&registry);
  EXPECT_EQ(results[0].status, JobStatus::kRecovered);
  EXPECT_EQ(results[0].attempts, 3);
  EXPECT_EQ(results[0].steps_done, 60u);
  EXPECT_EQ(results[0].checksum, ref[0].checksum);
  EXPECT_EQ(registry.Value("runtime.job0.attempts"), 3.0);
  EXPECT_EQ(registry.Value("runtime.batch.jobs_recovered"), 1.0);
  EXPECT_EQ(registry.Value("runtime.batch.retries"), 2.0);
  EXPECT_EQ(registry.Value("runtime.batch.faults_injected"), 2.0);
}

TEST(BatchRunnerTest, GuardCatchesInjectedCorruptionAndBatchRecovers)
{
  const auto manifest = ParseManifest(
      "model=heat\nname=h\nrows=12\ncols=12\nsteps=60\n");

  BatchOptions ref_options;
  ref_options.out_dir = ScratchDir("batch_flip_ref");
  ref_options.num_threads = 1;
  const auto ref = BatchRunner(manifest, ref_options).RunAll();

  // A flipped state bit blows one cell past max_abs; the guard trips
  // before the corrupt slice is checkpointed, so the retry restores a
  // clean state and converges to the reference checksum.
  BatchOptions options;
  options.out_dir = ScratchDir("batch_flip");
  options.num_threads = 1;
  options.checkpoint_every = 10;
  options.max_retries = 1;
  options.fault_inject = "flip@30";
  options.guard_enabled = true;
  options.guard.check_every = 1;

  const auto results = BatchRunner(manifest, options).RunAll();
  EXPECT_EQ(results[0].status, JobStatus::kRecovered);
  EXPECT_EQ(results[0].attempts, 2);
  EXPECT_EQ(results[0].checksum, ref[0].checksum);
}

TEST(BatchRunnerTest, ExhaustedRetriesReportFailureStatus)
{
  const auto manifest = ParseManifest(
      "model=heat\nname=h\nrows=10\ncols=10\nsteps=40\n");

  // Three crashes but only one retry: the job must end kFailed and
  // JobStatusIsFailure must flag it (cenn_batch exits 1 on these).
  BatchOptions options;
  options.out_dir = ScratchDir("batch_exhaust");
  options.num_threads = 1;
  options.checkpoint_every = 10;
  options.max_retries = 1;
  options.fault_inject = "crash@20x3";

  const auto results = BatchRunner(manifest, options).RunAll();
  EXPECT_EQ(results[0].status, JobStatus::kFailed);
  EXPECT_EQ(results[0].attempts, 2);
  EXPECT_TRUE(JobStatusIsFailure(results[0].status));

  // Diverged flavor: corruption with a guard but no retries left.
  BatchOptions doptions;
  doptions.out_dir = ScratchDir("batch_diverge");
  doptions.num_threads = 1;
  doptions.max_retries = 0;
  doptions.fault_inject = "flip@10";
  doptions.guard_enabled = true;
  doptions.guard.check_every = 1;
  const auto diverged = BatchRunner(manifest, doptions).RunAll();
  EXPECT_EQ(diverged[0].status, JobStatus::kDiverged);
  EXPECT_TRUE(diverged[0].health.diverged);
  EXPECT_TRUE(JobStatusIsFailure(diverged[0].status));
}

TEST(BatchRunnerTest, TornOrGarbledDoneMarkerReRunsTheJob)
{
  // A resume trusts a done marker only when it is whole: every line
  // present and newline-terminated, its numbers plain decimal. Any
  // other marker re-runs the job to the uninterrupted checksum.
  const auto manifest =
      ParseManifest("model=heat\nname=h\nrows=8\ncols=8\nsteps=12\n");
  const std::string dir = ScratchDir("batch_torn_marker");
  BatchOptions options;
  options.out_dir = dir;
  options.num_threads = 1;
  const auto ref = BatchRunner(manifest, options).RunAll();
  ASSERT_EQ(ref[0].status, JobStatus::kOk);
  const std::vector<char> marker = ReadBytes(dir + "/h.done");
  ASSERT_FALSE(marker.empty());

  options.resume = true;
  const auto cached = BatchRunner(manifest, options).RunAll();
  EXPECT_EQ(cached[0].status, JobStatus::kCached);
  EXPECT_EQ(cached[0].checksum, ref[0].checksum);

  const auto expect_rerun = [&](const std::vector<char>& bytes,
                                const std::string& what) {
    WriteBytes(dir + "/h.done", bytes);
    const auto r = BatchRunner(manifest, options).RunAll();
    EXPECT_EQ(r[0].status, JobStatus::kOk) << what;
    EXPECT_EQ(r[0].steps_executed, 12u) << what;
    EXPECT_EQ(r[0].checksum, ref[0].checksum) << what;
  };
  for (std::size_t cut = 0; cut < marker.size(); ++cut) {
    expect_rerun(std::vector<char>(marker.begin(), marker.begin() + cut),
                 "cut at byte " + std::to_string(cut));
  }
  const std::string text(marker.begin(), marker.end());
  for (const std::string key : {"attempts=", "steps=", "checksum="}) {
    std::string garbled = text;
    const std::size_t at = garbled.find(key);
    ASSERT_NE(at, std::string::npos) << key;
    garbled[at + key.size()] = 'O';
    expect_rerun(std::vector<char>(garbled.begin(), garbled.end()),
                 "garbled " + key);
  }
}

TEST(BatchRunnerTest, JobFailingBeforeItsFirstSessionReportsZeroAttempts)
{
  // The scenario file passes validation at parse time, then vanishes,
  // so resolution fails on the worker: the job fails having built no
  // session, and the rest of the batch runs.
  const std::string dir = ScratchDir("batch_vanished");
  const std::string path = dir + "/gone.cenn";
  {
    std::ofstream out(path);
    out << "scenario gone\ngrid 8 8\ndt 0.1\nsteps 4\n"
           "var u\nd u/dt = -u\ninit u = constant(value=1.0)\n";
  }
  const auto manifest =
      ParseManifest("model_file=" + path + "\nname=gone\n\n"
                    "model=heat\nname=h\nrows=8\ncols=8\nsteps=4\n");
  std::filesystem::remove(path);

  BatchOptions options;
  options.out_dir = dir;
  options.num_threads = 1;
  StatRegistry registry;
  const auto results = BatchRunner(manifest, options).RunAll(&registry);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].status, JobStatus::kFailed);
  EXPECT_EQ(results[0].attempts, 0);
  EXPECT_EQ(results[0].message.rfind("internal error: ", 0), 0u)
      << results[0].message;
  EXPECT_EQ(results[1].status, JobStatus::kOk);
  EXPECT_EQ(registry.Value("runtime.job0.attempts"), 0.0);
  EXPECT_EQ(registry.Value("runtime.batch.jobs_failed"), 1.0);
}

// ---------------------------------------------------------------------------
// RunJobAttempts

/**
 * Records what the loop publishes, and throws a plain std::exception
 * from the progress hook once the engine reaches `throw_at` steps.
 */
class ThrowingControl final : public JobControl
{
  public:
    explicit ThrowingControl(std::uint64_t throw_at) : throw_at_(throw_at) {}

    void
    Publish(SolverSession* session, int attempt) override
    {
      if (session == nullptr && published != nullptr) {
        // Withdrawn while it still answers: not yet destroyed.
        withdrawn_steps = published->StepsDone();
        ++withdrawals;
      }
      published = session;
      last_attempt = attempt;
    }

    bool StopRequested() override { return false; }

    void Park() override {}

    void
    Progress(std::uint64_t steps) override
    {
      if (steps >= throw_at_) {
        throw std::runtime_error("control exploded");
      }
    }

    SolverSession* published = nullptr;
    int withdrawals = 0;
    int last_attempt = 0;
    std::uint64_t withdrawn_steps = 0;

  private:
    std::uint64_t throw_at_;
};

TEST(JobRunnerTest, ExceptionMidRunFailsTheJobAndUnpublishesTheSession)
{
  // Not a FaultCrash: nothing to retry. The job fails as an internal
  // error, its session is withdrawn while still alive, and the caller
  // (a batch pool worker, a serve worker) carries on.
  const JobSpec spec = ParseManifest(
      "model=heat\nname=boom\nrows=8\ncols=8\nsteps=40\n"
      "checkpoint_every=8\n")[0];
  JobRunOptions options;
  options.checkpoint_path = ScratchDir("runner_throw") + "/boom.ckpt";
  options.max_retries = 2;

  ThrowingControl control(/*throw_at=*/16);
  const JobResult failed = RunJobAttempts(spec, options, &control);
  EXPECT_EQ(failed.status, JobStatus::kFailed);
  EXPECT_EQ(failed.message.rfind("internal error: ", 0), 0u) << failed.message;
  EXPECT_NE(failed.message.find("control exploded"), std::string::npos);
  EXPECT_EQ(failed.attempts, 1);
  EXPECT_EQ(control.published, nullptr);
  EXPECT_EQ(control.withdrawals, 1);
  EXPECT_EQ(control.withdrawn_steps, 16u);
  EXPECT_EQ(control.last_attempt, 1);

  // The same spec runs clean afterwards.
  const JobResult clean = RunJobAttempts(spec, options, nullptr);
  EXPECT_EQ(clean.status, JobStatus::kOk);
  EXPECT_EQ(clean.steps_done, 40u);
  EXPECT_TRUE(clean.message.empty());
}

// ---------------------------------------------------------------------------
// Adaptive LUT range refit

TEST(LutRefitTest, SessionWidensRangeDeterministicallyAsStateGrows)
{
  // dx/dt = z exactly (no self decay, and the spec's only nonlinear
  // factor rides a zero-constant offset term), so the state ramps
  // linearly: x(t) = z * t, every increment exact in Q16.16. With the
  // LUT initially sampled over [-1, 1], margin 0.9 and growth 2.0,
  // the session must refit exactly when the ramp crosses 0.9, 1.8 and
  // 3.6 — and the widened range doubles each time, ending at [-8, 8].
  NetworkSpec spec;
  spec.rows = 4;
  spec.cols = 4;
  spec.dt = 0.125;
  LayerSpec layer;
  layer.z = 0.25;
  layer.has_self_decay = false;
  const auto fn = MakeFunction("ramp_id", [](double x) { return x; });
  layer.offset_terms.push_back({0.0, {{0, fn, false}}});
  spec.layers.push_back(layer);

  SolverProgram program;
  program.spec = spec;
  program.lut_config.default_spec.min_p = -1.0;
  program.lut_config.default_spec.max_p = 1.0;
  program.lut_config.default_spec.frac_index_bits = 4;

  ExecPolicy policy;
  policy.precision = "fixed";
  auto engine = BuildEngine(program, policy);
  auto refitter = MakeLutRefitter(program, policy);
  ASSERT_NE(refitter, nullptr);

  HealthGuardConfig hc;
  hc.check_every = 1;  // scan (and consider a refit) every slice
  HealthGuard guard(hc);
  engine->AttachHealthGuard(&guard);

  SessionConfig sc = TinySessionConfig("refit", 200);
  sc.slice_steps = 4;
  sc.lut_refitter = refitter;
  SolverSession session(std::move(engine), sc);
  EXPECT_EQ(session.RunToTarget(), 200u);

  // x(200 * 0.125) = 6.25: past 3.6, short of the next edge at 7.2.
  EXPECT_EQ(refitter->Refits(), 3);
  EXPECT_EQ(guard.Report().lut_refits, 3u);
  EXPECT_DOUBLE_EQ(refitter->CurrentConfig().default_spec.min_p, -8.0);
  EXPECT_DOUBLE_EQ(refitter->CurrentConfig().default_spec.max_p, 8.0);
  ASSERT_NE(refitter->CurrentBank(), nullptr);
  EXPECT_EQ(refitter->CurrentBank()->Get(*fn).Spec().max_p, 8.0);

  // The run itself stayed exact: the ramp never touched the LUT term.
  const std::vector<double> state = session.StateDoubles(0);
  for (const double v : state) {
    EXPECT_DOUBLE_EQ(v, 6.25);
  }
}

TEST(LutRefitTest, ArchRequestGetsNoRefitter)
{
  SolverProgram program;
  program.spec = ModelSpec("heat", 8, 8);
  ExecPolicy policy;
  policy.engine = "arch";
  EXPECT_EQ(MakeLutRefitter(program, policy), nullptr);
  policy.engine = "soa";
  policy.precision = "double";
  EXPECT_EQ(MakeLutRefitter(program, policy), nullptr);
  policy.precision = "fixed";
  EXPECT_NE(MakeLutRefitter(program, policy), nullptr);
  // An empty precision is the engine default: fixed.
  policy.precision.clear();
  EXPECT_NE(MakeLutRefitter(program, policy), nullptr);
}

TEST(BatchRunnerTest, DerivedSeedsAreStablePerIndex)
{
  // The same manifest run twice (fresh dirs) must produce identical
  // checksums: per-job seeds depend only on (base_seed, index).
  const auto manifest = ParseManifest(
      "model=heat\nname=a\nrows=10\ncols=10\nsteps=10\n"
      "\n"
      "model=heat\nname=b\nrows=10\ncols=10\nsteps=10\n");
  BatchOptions options;
  options.num_threads = 2;
  options.out_dir = ScratchDir("batch_seed1");
  const auto run1 = BatchRunner(manifest, options).RunAll();
  options.out_dir = ScratchDir("batch_seed2");
  const auto run2 = BatchRunner(manifest, options).RunAll();
  ASSERT_EQ(run1.size(), run2.size());
  EXPECT_EQ(run1[0].checksum, run2[0].checksum);
  EXPECT_EQ(run1[1].checksum, run2[1].checksum);
  // Distinct indices got distinct streams -> distinct initial states.
  EXPECT_NE(run1[0].checksum, run1[1].checksum);
}

}  // namespace
}  // namespace cenn
