#include "runtime/worker_team.h"

#include <algorithm>
#include <chrono>
#include <fstream>

#include "core/engine.h"
#include "core/network_spec.h"
#include "health/health_guard.h"
#include "lut/lut_traffic.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/stats.h"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace cenn {

namespace {

/** Steady-clock nanoseconds (the trace tick base; ticks_per_us=1e3). */
std::uint64_t
NowNs()
{
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/** Parses a sysfs cpulist ("0-3,8,10-11") into cpu ids. */
std::vector<int>
ParseCpuList(const std::string& text)
{
  std::vector<int> cpus;
  std::size_t pos = 0;
  while (pos < text.size()) {
    if (text[pos] < '0' || text[pos] > '9') {
      ++pos;
      continue;
    }
    int lo = 0;
    while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') {
      lo = lo * 10 + (text[pos] - '0');
      ++pos;
    }
    int hi = lo;
    if (pos < text.size() && text[pos] == '-') {
      ++pos;
      hi = 0;
      while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') {
        hi = hi * 10 + (text[pos] - '0');
        ++pos;
      }
    }
    for (int c = lo; c <= hi; ++c) {
      cpus.push_back(c);
    }
  }
  return cpus;
}

/** NUMA node cpusets from sysfs; empty when unknown (non-Linux). */
std::vector<std::vector<int>>
NumaNodeCpus()
{
  std::vector<std::vector<int>> nodes;
  for (int n = 0; n < 64; ++n) {
    std::ifstream in("/sys/devices/system/node/node" + std::to_string(n) +
                     "/cpulist");
    if (!in) {
      continue;
    }
    std::string line;
    std::getline(in, line);
    std::vector<int> cpus = ParseCpuList(line);
    if (!cpus.empty()) {
      nodes.push_back(std::move(cpus));
    }
  }
  return nodes;
}

/** Best-effort worker pinning; never fatal (affinity is advisory). */
void
ApplyPin(TeamPin pin, std::size_t k)
{
#if defined(__linux__)
  if (pin == TeamPin::kNone) {
    return;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  bool filled = false;
  if (pin == TeamPin::kNuma) {
    static const std::vector<std::vector<int>> nodes = NumaNodeCpus();
    if (!nodes.empty()) {
      for (int cpu : nodes[k % nodes.size()]) {
        CPU_SET(cpu, &set);
      }
      filled = true;
    }
  }
  if (!filled) {
    const unsigned n = std::max(1u, std::thread::hardware_concurrency());
    CPU_SET(static_cast<int>(k % n), &set);
  }
  if (pthread_setaffinity_np(pthread_self(), sizeof(set), &set) != 0) {
    CENN_WARN_ONCE("ShardTeam: pthread_setaffinity_np failed; workers run "
                   "unpinned");
  }
#else
  (void)pin;
  (void)k;
#endif
}

/**
 * Serial observed stepping (the single-band fallback): band-capable
 * engines run timed refresh/step/publish phases attributed to shard
 * 0; others run engine->Run with the whole wall time accounted as
 * shard 0 step time.
 */
void
RunSerialObserved(Engine& engine, std::uint64_t steps,
                  ShardPhaseTimings* timings, TraceSession* trace)
{
  if (trace != nullptr) {
    trace->SetThreadName(0, "shard0");
  }
  ScopedLutTally lut(engine.AttachedLutTraffic());
  if (!engine.SupportsBands()) {
    const std::uint64_t t0 = NowNs();
    engine.Run(steps);
    const std::uint64_t t1 = NowNs();
    if (timings != nullptr) {
      ShardPhaseTimings::Shard local;
      local.step_ns = t1 - t0;
      local.steps = steps;
      timings->Merge(0, local, nullptr, nullptr, nullptr);
    }
    if (trace != nullptr) {
      trace->Complete(TraceCategory::kStep, "run", t0, t1 - t0, 0);
    }
    return;
  }
  const std::size_t rows = engine.Spec().rows;
  ShardPhaseTimings::Shard local;
  Histogram refresh_us = ShardPhaseTimings::MakePhaseHistogram();
  Histogram step_us = ShardPhaseTimings::MakePhaseHistogram();
  Histogram wait_us = ShardPhaseTimings::MakePhaseHistogram();
  for (std::uint64_t s = 0; s < steps; ++s) {
    const std::uint64_t t0 = NowNs();
    engine.RefreshOutputs(0, rows);
    const std::uint64_t t1 = NowNs();
    engine.StepBands(0, rows);
    const std::uint64_t t2 = NowNs();
    engine.Publish();
    const std::uint64_t t3 = NowNs();
    local.refresh_ns += t1 - t0;
    local.step_ns += t2 - t1;
    ++local.steps;
    refresh_us.Add(static_cast<double>(t1 - t0) * 1e-3);
    step_us.Add(static_cast<double>(t2 - t1) * 1e-3);
    if (timings != nullptr) {
      timings->AddPublish(t3 - t2);
    }
    if (trace != nullptr) {
      trace->Complete(TraceCategory::kStep, "refresh", t0, t1 - t0, 0);
      trace->Complete(TraceCategory::kStep, "step", t1, t2 - t1, 0);
      trace->Complete(TraceCategory::kStep, "publish", t2, t3 - t2, 0);
    }
  }
  if (timings != nullptr) {
    timings->Merge(0, local, &refresh_us, &step_us, &wait_us);
  }
}

}  // namespace

bool
ParseTeamPin(const std::string& text, TeamPin* out)
{
  if (text == "none") {
    *out = TeamPin::kNone;
  } else if (text == "cores") {
    *out = TeamPin::kCores;
  } else if (text == "numa") {
    *out = TeamPin::kNuma;
  } else {
    return false;
  }
  return true;
}

const char*
TeamPinName(TeamPin pin)
{
  switch (pin) {
    case TeamPin::kNone:
      return "none";
    case TeamPin::kCores:
      return "cores";
    case TeamPin::kNuma:
      return "numa";
  }
  return "unknown";
}

void
TeamComputeCompletion::operator()() const noexcept
{
  team->OnComputeComplete();
}

ShardTeam::ShardTeam(Engine* engine, const TeamOptions& options)
    : engine_(engine),
      timings_(options.timings),
      trace_(options.trace != nullptr &&
                     options.trace->Enabled(TraceCategory::kStep)
                 ? options.trace
                 : nullptr),
      pin_(options.pin)
{
  CENN_ASSERT(engine_ != nullptr, "ShardTeam: null engine");
  if (options.shards < 1) {
    CENN_FATAL("ShardTeam: shards must be >= 1, got ", options.shards);
  }
  engine_->Prepare();

  if (engine_->SupportsBands()) {
    bands_ = PartitionRows(engine_->Spec().rows, options.shards);
  } else if (options.shards > 1) {
    static std::once_flag warned;
    std::call_once(warned, [this] {
      CENN_WARN("ShardTeam: engine '", engine_->Kind(),
                "' does not support band stepping; running serially");
    });
  }
  if (bands_.size() <= 1) {
    // Serial team: no resident threads, Run() steps inline.
    return;
  }

  if (trace_ != nullptr) {
    for (std::size_t k = 0; k < bands_.size(); ++k) {
      trace_->SetThreadName(static_cast<std::uint32_t>(k),
                            "shard" + std::to_string(k));
    }
    trace_->SetThreadName(static_cast<std::uint32_t>(bands_.size()),
                          "publish");
  }

  const auto n = static_cast<std::ptrdiff_t>(bands_.size());
  refresh_done_.emplace(n, +[]() noexcept {});
  compute_done_.emplace(n, TeamComputeCompletion{this});

  workers_.reserve(bands_.size());
  for (std::size_t k = 0; k < bands_.size(); ++k) {
    workers_.emplace_back([this, k] { WorkerMain(k); });
  }
}

ShardTeam::~ShardTeam()
{
  if (!workers_.empty()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : workers_) {
      t.join();
    }
  }
}

void
ShardTeam::Run(std::uint64_t steps)
{
  if (steps == 0) {
    return;
  }
  if (workers_.empty()) {
    RunSerial(steps);
    dispatches_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    steps_requested_ = steps;
    workers_done_ = 0;
    ++generation_;
  }
  cv_.notify_all();
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] { return workers_done_ == workers_.size(); });
  }
  dispatches_.fetch_add(1, std::memory_order_relaxed);
}

void
ShardTeam::RunSerial(std::uint64_t steps)
{
  // The one-shard team steps on the calling thread: install the same
  // thread-local saturation counter as every band worker does.
  ScopedSatCounter sat(engine_->AttachedHealthGuard());
  if (timings_ != nullptr || trace_ != nullptr) {
    RunSerialObserved(*engine_, steps, timings_, trace_);
  } else {
    ScopedLutTally lut(engine_->AttachedLutTraffic());
    engine_->Run(steps);
  }
}

void
ShardTeam::WorkerMain(std::size_t k)
{
  ApplyPin(pin_, k);
  bool warmed = false;
  std::uint64_t seen = 0;
  for (;;) {
    std::uint64_t steps = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this, seen] { return stop_ || generation_ != seen; });
      if (stop_) {
        return;
      }
      seen = generation_;
      steps = steps_requested_;
    }
    {
      // Fixed32 saturation and off-chip LUT interpolation counting
      // are thread-local; each worker drains its tallies into the
      // engine's attached guard/sink (no-ops when none attached).
      ScopedSatCounter sat(engine_->AttachedHealthGuard());
      ScopedLutTally lut(engine_->AttachedLutTraffic());
      if (!warmed) {
        warmed = true;
        if (pin_ != TeamPin::kNone) {
          // First-touch warm pass: fault the band's output/state pages
          // from the pinned worker so they land on its node. Values
          // are what the first step's refresh phase would write
          // anyway — semantically a no-op.
          engine_->RefreshOutputs(bands_[k].first, bands_[k].second);
        }
      }
      RunBand(k, steps);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++workers_done_;
      if (workers_done_ == workers_.size()) {
        done_cv_.notify_one();
      }
    }
  }
}

void
ShardTeam::OnComputeComplete() noexcept
{
  if (timings_ == nullptr && trace_ == nullptr) {
    engine_->Publish();
    return;
  }
  const std::uint64_t t0 = NowNs();
  engine_->Publish();
  const std::uint64_t t1 = NowNs();
  if (timings_ != nullptr) {
    timings_->AddPublish(t1 - t0);
  }
  if (trace_ != nullptr) {
    trace_->Complete(TraceCategory::kStep, "publish", t0, t1 - t0,
                     static_cast<std::uint32_t>(bands_.size()));
  }
}

void
ShardTeam::RunBand(std::size_t k, std::uint64_t steps)
{
  const auto band = bands_[k];
  if (timings_ == nullptr && trace_ == nullptr) {
    for (std::uint64_t s = 0; s < steps; ++s) {
      engine_->RefreshOutputs(band.first, band.second);
      refresh_done_->arrive_and_wait();
      engine_->StepBands(band.first, band.second);
      compute_done_->arrive_and_wait();
    }
    return;
  }
  const auto lane = static_cast<std::uint32_t>(k);
  ShardPhaseTimings::Shard local;
  Histogram refresh_us = ShardPhaseTimings::MakePhaseHistogram();
  Histogram step_us = ShardPhaseTimings::MakePhaseHistogram();
  Histogram wait_us = ShardPhaseTimings::MakePhaseHistogram();
  for (std::uint64_t s = 0; s < steps; ++s) {
    const std::uint64_t t0 = NowNs();
    engine_->RefreshOutputs(band.first, band.second);
    const std::uint64_t t1 = NowNs();
    refresh_done_->arrive_and_wait();
    const std::uint64_t t2 = NowNs();
    engine_->StepBands(band.first, band.second);
    const std::uint64_t t3 = NowNs();
    compute_done_->arrive_and_wait();
    const std::uint64_t t4 = NowNs();
    local.refresh_ns += t1 - t0;
    local.step_ns += t3 - t2;
    local.wait_ns += (t2 - t1) + (t4 - t3);
    ++local.steps;
    refresh_us.Add(static_cast<double>(t1 - t0) * 1e-3);
    step_us.Add(static_cast<double>(t3 - t2) * 1e-3);
    wait_us.Add(static_cast<double>((t2 - t1) + (t4 - t3)) * 1e-3);
    if (trace_ != nullptr) {
      trace_->Complete(TraceCategory::kStep, "refresh", t0, t1 - t0, lane);
      trace_->Complete(TraceCategory::kStep, "step", t2, t3 - t2, lane);
    }
  }
  if (timings_ != nullptr) {
    timings_->Merge(k, local, &refresh_us, &step_us, &wait_us);
  }
}

}  // namespace cenn
