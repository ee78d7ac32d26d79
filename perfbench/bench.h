#ifndef CENN_PERFBENCH_BENCH_H_
#define CENN_PERFBENCH_BENCH_H_

/**
 * @file
 * Shared pieces of the end-to-end benchmark (perfbench/README.md):
 * run options, the per-run report, the in-memory span recorder used by
 * traced runs, and the serial job replay that times each layer's
 * public calls from outside the program.
 */

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "runtime/job_spec.h"

namespace cenn {
class LutBank;
class TraceSession;
struct SolverProgram;
}

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since `t0`. */
double SecondsSince(Clock::time_point t0);

/** Milliseconds between two time points. */
double Ms(Clock::time_point a, Clock::time_point b);

/** Linear-interpolated percentile (q in [0, 1]); 0 for no samples. */
double Percentile(std::vector<double> values, double q);

/** Median of `values` (0 for none). */
double Median(std::vector<double> values);

/** Peak resident set of this process in MiB (getrusage ru_maxrss). */
double PeakRssMb();

/**
 * Resets the kernel's peak-RSS mark of this process (VmHWM, via
 * /proc/self/clear_refs) so PassPeakRssMb() reads the peak of what runs
 * after it; traced runs compare untraced and traced passes this way.
 * Where the kernel refuses the reset, a warning is logged once and the
 * mark keeps the process peak.
 */
void ResetPeakRss();

/** Peak resident set since the last ResetPeakRss() in MiB (VmHWM). */
double PassPeakRssMb();

/** Command-line options of one benchmark run. */
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /** Short run with every check on (the benchmark's own test). */
  bool smoke = false;
  /** Scratch directory for this run (checkpoints, spans). */
  std::string out_dir;
  /** Directory holding pinned.txt (the benchmark's own directory). */
  std::string data_dir;
  /** Repository root the zoo/ scenarios are read from. */
  std::string root = ".";
};

/** Outcome of one workload run: operations, checks and metrics. */
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::map<std::string, std::pair<double, std::string>> metrics;
  /** name -> value pinned for the default seed, checked at the end. */
  std::map<std::string, std::uint64_t> observed;

  void Set(const std::string& name, double value, const std::string& unit)
  {
      metrics[name] = {value, unit};
  }

  /** Records a failed output check (logged to stderr). */
  void Problem(const std::string& what);
};

/**
 * Sets obs.trace_overhead_frac.<metric> = (untraced - traced) / untraced
 * for every metric of `traced` (positive: the traced figure is lower).
 */
void SetTraceOverhead(const Report& untraced, const Report& traced,
                      Report* report);

/** The default workload seed; its outputs are pinned in pinned.txt. */
inline constexpr std::uint64_t kPinnedSeed = 1;

/**
 * Compares `report.observed` against the pinned values for
 * `workload` when `seed` is the pinned seed; mismatches are problems.
 */
void CheckPinned(const Options& options, Report* report);

/** @name Span recorder (traced runs only; off = one branch) */
///@{

/** Turns recording on or off (off: ScopedSpan costs one branch). */
void EnableSpans(bool on);

/** Discards every recorded span. */
void ClearSpans();

/** RAII span around one call into a layer. */
class ScopedSpan
{
  public:
    explicit ScopedSpan(const char* name, std::uint64_t id = 0);
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    /** Renames the span before it ends (e.g. LUT build vs share). */
    void Rename(const char* name);

  private:
    std::int64_t index_ = -1;
};

/** Per span name: number of spans and summed self time (ns). */
struct SelfTime {
  std::uint64_t count = 0;
  double self_ns = 0.0;

  double MeanMs() const { return count == 0 ? 0.0 : self_ns / count / 1e6; }
};

/** Self time (duration minus child spans) aggregated by span name. */
std::map<std::string, SelfTime> SpanSelfTimes();

/**
 * Writes every span (Chrome trace-event JSON, parents and ids in
 * "args") plus the events of `shard_trace` when non-null.
 */
bool WriteSpans(const std::string& path,
                const cenn::TraceSession* shard_trace);

///@}

/** @name Serial job replay (traced batch and serve runs) */
///@{

/** Per-layer tallies the replay reads from the program's own objects. */
struct ReplayTotals {
  std::uint64_t jobs = 0;
  std::uint64_t failed = 0;
  std::uint64_t scans = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t checkpoint_bytes = 0;
  double lut_accesses = 0.0;
  /** SoA cell updates and the traffic model's bytes and flops for them. */
  double soa_updates = 0.0;
  double traffic_bytes = 0.0;
  double traffic_flops = 0.0;
  std::uint64_t arch_cycles = 0;
  double arch_host_ns = 0.0;
  double wall_s = 0.0;
  /** Wall time of each job, and cell updates and job seconds split
   *  by precision (the end-to-end figures of the replay). */
  std::vector<double> job_ms;
  double double_updates = 0.0;
  double double_s = 0.0;
  double fixed_updates = 0.0;
  double fixed_s = 0.0;
  /** Job name -> final state checksum. */
  std::map<std::string, std::uint64_t> checksums;
};

/** How the replay drives each job (mirrors BatchOptions). */
struct ReplayOptions {
  std::string out_dir;
  std::uint64_t base_seed = 42;
  std::uint64_t checkpoint_every = 0;
  int max_retries = 0;
  bool guard = false;
  std::string fault_inject;
};

/**
 * Runs `jobs` one after another through the same public calls the
 * batch runner makes — ValidateJobSpec, lang compile + map (or the
 * hand-coded model), LutStore::Acquire, BuildEngine, SolverSession
 * slices, HealthGuard::Scan, SaveCheckpoint, TryRestoreFromFile —
 * with a span around each when spans are enabled.
 */
ReplayTotals ReplayJobs(const std::vector<cenn::JobSpec>& jobs,
                        const ReplayOptions& options);

/** Per-layer times from the recorded spans' self times: compile, map,
 *  LUT build, engine build, restore, health scan, checkpoint write. */
void SetSpanLayerMetrics(Report* report);

/** SetSpanLayerMetrics plus the replay's counts and computed ratios. */
void SetReplayLayerMetrics(const ReplayTotals& totals, Report* report);

/** LutStore::Acquire for `program` in a "lut.build" or "lut.share" span. */
std::shared_ptr<const cenn::LutBank> AcquireLuts(
    const cenn::SolverProgram& program, std::uint64_t id = 0);

/** The global LutStore's counters, read through its registry binding. */
struct LutStoreCounts {
  double builds = 0.0;
  double shared = 0.0;
};
LutStoreCounts ReadLutStore();

/** Sets lut.builds and lut.share_ratio for the acquires since `before`. */
void SetLutShare(const LutStoreCounts& before, Report* report);

///@}

/** Cell count of a spec's grid. */
inline std::uint64_t
Cells(const cenn::JobSpec& spec)
{
  return static_cast<std::uint64_t>(spec.rows) * spec.cols;
}

/** True when the spec runs at Fixed32 (the engine default). */
bool IsFixed(const cenn::JobSpec& spec);

/** Manifest-style key/value pairs of one job spec, in order. */
using SpecKeys = std::vector<std::pair<std::string, std::string>>;

/** Parses one manifest-style "k=v k=v" line into a spec (fatal on error). */
cenn::JobSpec SpecFromKeys(const SpecKeys& keys);

/** @name Workloads */
///@{
Report RunLongRun(const Options& options);
Report RunBatchSweep(const Options& options);
Report RunServeTenants(const Options& options);
///@}

/**
 * Fixed-input unit rates measured in every traced run: 1-worker SoA
 * kernels on the long_run grid (and the 2-worker team state check)
 * and the functional engine on a serve default-policy spec.
 */
void UnitRateProbes(const Options& options, Report* report);

/** Machine description printed with every result. */
std::string MachineJson();

}  // namespace perfbench

#endif  // CENN_PERFBENCH_BENCH_H_
