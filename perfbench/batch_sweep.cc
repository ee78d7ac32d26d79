// batch_sweep: a cenn_batch parameter sweep through BatchRunner with
// two pool workers and shards=1. Every job resolves a distinct
// program, so DSL compile, mapping and LUT builds recur per job;
// checkpoints are written and (after injected faults) restored. The
// grids are cache-resident and the team runs serially, so this is the
// bypass case for long_run's kernel and team mechanisms.

#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "bench.h"
#include "obs/stat_registry.h"
#include "runtime/batch_manifest.h"
#include "runtime/batch_runner.h"
#include "util/rng.h"

namespace perfbench {

namespace {

/** The nine zoo scenarios; the first seven have hand-coded twins. */
const char* const kZoo[] = {"reaction_diffusion", "heat",    "fisher",
                            "gray_scott",         "wave",    "poisson",
                            "brusselator",        "maxcut_grid",
                            "gray_scott_mitosis"};
constexpr int kZooWithTwin = 7;

constexpr int kWorkers = 2;
constexpr std::uint64_t kCheckpointEvery = 48;
constexpr int kMaxRetries = 2;
/** Untraced/traced replay pairs in a traced run (even: balanced order). */
constexpr int kReplayPairs = 4;

/** One manifest job: its keys, and the job whose checksum it must equal. */
struct Job {
  std::string name;
  SpecKeys keys;
  std::string twin;
};

/** The sweep's jobs for one seed; every round runs them in a new order. */
struct Sweep {
  std::vector<Job> jobs;
  std::string fault_inject;
};

Sweep
MakeSweep(const Options& options)
{
  cenn::Rng rng(options.seed * 0x9e3779b97f4a7c15ULL + 11);
  auto ic_seed = [&rng] { return std::to_string(1 + rng.NextU64() % 1000); };
  // Jobs run long enough (about 20-200 ms here) that compute, not
  // per-job start-up jitter, sets their time: short jobs' times swing
  // most with this host's drift.
  const std::uint64_t n_steps = options.smoke ? 96 : 720;
  const std::string steps = std::to_string(n_steps);
  const std::string mid_steps = std::to_string(n_steps * 2 / 5);
  const std::string short_steps = std::to_string(n_steps / 5);
  Sweep sweep;
  auto add = [&sweep](std::string name,
                      SpecKeys keys,
                      std::string twin = "") {
    keys.insert(keys.begin(), {"name", name});
    sweep.jobs.push_back({std::move(name), std::move(keys), std::move(twin)});
  };

  // Zoo scenarios through the DSL; the seven with a hand-coded model
  // get a model= twin with identical keys.
  for (int i = 0; i < 9; ++i) {
    const std::string zoo = kZoo[i];
    const std::string exec = i % 2 == 0 ? "soa:double" : "soa:fixed";
    const std::string seed = ic_seed();
    SpecKeys keys = {
        {"rows", "64"}, {"cols", "64"}, {"steps", steps},
        {"exec", exec}, {"seed", seed}};
    auto dsl = keys;
    dsl.insert(dsl.begin(), {"model_file", options.root + "/zoo/" + zoo +
                                               ".cenn"});
    add("zoo_" + zoo, dsl);
    if (i < kZooWithTwin) {
      auto hand = keys;
      hand.insert(hand.begin(), {"model", zoo});
      add("hand_" + zoo, hand, "zoo_" + zoo);
    }
  }
  // Hand-coded models the zoo does not cover, at both precisions.
  for (const char* model : {"hodgkin_huxley", "izhikevich", "navier_stokes"}) {
    for (const char* prec : {"double", "fixed"}) {
      add(std::string(model) + "_" + prec,
          {{"model", model}, {"rows", "64"}, {"cols", "64"},
           {"steps", mid_steps}, {"exec", std::string("soa:") + prec},
           {"seed", ic_seed()}});
    }
  }
  // Small functional:fixed reference jobs.
  for (const char* model : {"reaction_diffusion", "heat"}) {
    add(std::string("ref_") + model,
        {{"model", model}, {"rows", "32"}, {"cols", "32"},
         {"steps", mid_steps}, {"exec", "functional:fixed"},
         {"seed", ic_seed()}});
  }
  // Design-space jobs on the accelerator model; each equals its
  // soa:fixed twin (the arch datapath is the Fixed32 datapath).
  for (const char* model : {"reaction_diffusion", "izhikevich"}) {
    const std::string seed = ic_seed();
    const std::string base = std::string("arch_") + model;
    auto keys = [&](const std::string& exec) {
      return SpecKeys{
          {"model", model}, {"rows", "32"}, {"cols", "32"},
          {"steps", short_steps}, {"exec", exec}, {"seed", seed}};
    };
    add(base + "_soa", keys("soa:fixed"));
    add(base + "_ddr3", keys("arch"), base + "_soa");
    add(base + "_hmc", keys("arch:hmc-int"), base + "_soa");
  }
  // Fault-injected jobs and their fault-free twins.
  // Faults fire in the middle half of the run, after a checkpoint.
  const std::uint64_t crash_at = n_steps / 4 + rng.NextU64() % (n_steps / 2);
  const std::uint64_t flip_at = n_steps / 4 + rng.NextU64() % (n_steps / 2);
  for (const char* kind : {"crash", "flip"}) {
    const bool crash = kind[0] == 'c';
    const SpecKeys keys = {
        {"model", crash ? "fisher" : "heat"}, {"rows", "64"}, {"cols", "64"},
        {"steps", steps}, {"exec", crash ? "soa:fixed" : "soa:double"},
        {"seed", ic_seed()}};
    add(std::string("clean_") + kind, keys);
    add(std::string("fault_") + kind, keys, std::string("clean_") + kind);
  }
  std::ostringstream faults;
  faults << "fault_crash:crash@" << crash_at << ",fault_flip:flip@"
         << flip_at;
  sweep.fault_inject = faults.str();

  return sweep;
}

/**
 * Puts the jobs in the next seeded submission order and returns the
 * manifest text. A fixed order would fix how well the two workers'
 * queues pack for the whole run; a new order per round averages that
 * out within the run.
 */
std::string
NextRoundManifest(Sweep* sweep, cenn::Rng* rng)
{
  for (std::size_t i = sweep->jobs.size(); i > 1; --i) {
    std::swap(sweep->jobs[i - 1], sweep->jobs[rng->NextU64() % i]);
  }
  std::ostringstream manifest;
  for (const Job& job : sweep->jobs) {
    for (const auto& [key, value] : job.keys) {
      manifest << key << "=" << value << "\n";
    }
    manifest << "\n";
  }
  return manifest.str();
}

cenn::BatchOptions
RunnerOptions(const Options& options, const Sweep& sweep,
              const std::string& out_dir)
{
  cenn::BatchOptions batch;
  batch.num_threads = kWorkers;
  batch.out_dir = out_dir;
  batch.base_seed = options.seed;
  batch.checkpoint_every = kCheckpointEvery;
  batch.max_retries = kMaxRetries;
  batch.fault_inject = sweep.fault_inject;
  batch.guard_enabled = true;
  return batch;
}

/** Simulated cycles of an arch job, from its stat dump. */
std::uint64_t
ArchCycles(const std::string& stats_path)
{
  std::ifstream in(stats_path);
  std::stringstream text;
  text << in.rdbuf();
  for (const auto& [name, value] :
       cenn::StatRegistry::ParseDump(text.str())) {
    if (name.size() > 17 &&
        name.compare(name.size() - 17, 17, ".sim.total_cycles") == 0) {
      return static_cast<std::uint64_t>(value);
    }
  }
  return 0;
}

/** Output checks on one round's results; returns failed jobs. */
std::uint64_t
CheckRound(const Sweep& sweep, const std::vector<cenn::JobResult>& results,
           const std::string& out_dir, Report* report)
{
  std::map<std::string, const cenn::JobResult*> by_name;
  for (const cenn::JobResult& r : results) {
    by_name[r.name] = &r;
  }
  std::uint64_t failed = 0;
  std::uint64_t cycles = 0;
  for (const Job& job : sweep.jobs) {
    const cenn::JobResult& r = *by_name.at(job.name);
    bool ok = r.status == cenn::JobStatus::kOk ||
              r.status == cenn::JobStatus::kRetried ||
              r.status == cenn::JobStatus::kRecovered;
    if (!ok) {
      report->Problem(job.name + " ended " + cenn::JobStatusName(r.status));
    }
    if (!job.twin.empty() && r.checksum != by_name.at(job.twin)->checksum) {
      report->Problem(job.name + " checksum differs from its twin " +
                      job.twin);
      ok = false;
    }
    if (job.name.rfind("fault_", 0) == 0 && r.attempts < 2) {
      report->Problem(job.name + " was not faulted");
      ok = false;
    }
    if (job.name.rfind("arch_", 0) == 0 && !job.twin.empty()) {
      cycles += ArchCycles(out_dir + "/" + job.name + ".stats.txt");
    }
    failed += ok ? 0 : 1;
    report->observed["checksum." + job.name] = r.checksum;
  }
  report->observed["arch.sim_cycles"] = cycles;
  return failed;
}

/**
 * End-to-end figures of a run. Rates are per round and the run reports
 * their median, so a burst of host slowness in a few rounds does not
 * move the run's figure.
 */
struct Tally {
  std::vector<double> setup_s;
  std::vector<double> jobs_per_s;
  std::vector<double> mcups_double;
  std::vector<double> mcups_fixed;
  std::vector<double> job_ms;
  double peak_rss_mb = 0.0;
};

/** Adds one round: `results[i]` belongs to `jobs[i]`. */
void
AddRound(const std::vector<Job>& jobs,
         const std::vector<cenn::JobResult>& results, double wall_s,
         Tally* tally)
{
  double ok = 0, dbl_updates = 0, dbl_s = 0, fix_updates = 0, fix_s = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const cenn::JobResult& r = results[i];
    const cenn::JobSpec spec = SpecFromKeys(jobs[i].keys);
    const double updates =
        static_cast<double>(Cells(spec) * r.steps_executed);
    tally->job_ms.push_back(r.wall_ms);
    (IsFixed(spec) ? fix_updates : dbl_updates) += updates;
    (IsFixed(spec) ? fix_s : dbl_s) += r.wall_ms / 1e3;
    ok += cenn::JobStatusIsFailure(r.status) ? 0 : 1;
  }
  tally->jobs_per_s.push_back(ok / wall_s);
  tally->mcups_double.push_back(dbl_updates / dbl_s / 1e6);
  tally->mcups_fixed.push_back(fix_updates / fix_s / 1e6);
}

void
SetEndToEnd(const Tally& tally, Report* report)
{
  report->Set("setup_s", Median(tally.setup_s), "s");
  report->Set("mcups_double", Median(tally.mcups_double), "Mcell/s");
  report->Set("mcups_fixed", Median(tally.mcups_fixed), "Mcell/s");
  report->Set("jobs_per_s", Median(tally.jobs_per_s), "1/s");
  report->Set("latency_p50_ms", Percentile(tally.job_ms, 0.50), "ms");
  report->Set("latency_p95_ms", Percentile(tally.job_ms, 0.95), "ms");
  report->Set("peak_rss_mb", tally.peak_rss_mb, "MiB");
}

/**
 * Replays the sweep serially; its figures in end-to-end terms. Set-up
 * is the same work as a round's: manifest parse and runner
 * construction (the runner itself is not run). The pass's peak RSS is
 * its own (the mark is reset first).
 */
Report
ReplayEndToEnd(const Options& options, Sweep* sweep, cenn::Rng* order_rng,
               const ReplayOptions& replay, ReplayTotals* totals)
{
  ResetPeakRss();
  const std::string manifest = NextRoundManifest(sweep, order_rng);
  const auto t0 = Clock::now();
  std::vector<cenn::JobSpec> specs = cenn::ParseManifest(manifest);
  const cenn::BatchRunner runner(
      specs, RunnerOptions(options, *sweep, replay.out_dir));
  Tally tally;
  tally.setup_s.push_back(SecondsSince(t0));
  *totals = ReplayJobs(specs, replay);
  tally.peak_rss_mb = PassPeakRssMb();
  tally.jobs_per_s.push_back(
      static_cast<double>(totals->jobs - totals->failed) / totals->wall_s);
  tally.mcups_double.push_back(totals->double_updates / totals->double_s /
                               1e6);
  tally.mcups_fixed.push_back(totals->fixed_updates / totals->fixed_s / 1e6);
  tally.job_ms = totals->job_ms;
  Report report;
  SetEndToEnd(tally, &report);
  return report;
}

}  // namespace

Report
RunBatchSweep(const Options& options)
{
  Report report;
  Sweep sweep = MakeSweep(options);
  cenn::Rng order_rng(options.seed * 0x9e3779b97f4a7c15ULL + 13);
  Tally tally;
  const double budget = options.trace || options.smoke ? 0.0 : options.seconds;
  const auto start = Clock::now();
  for (int round = 0; round == 0 || SecondsSince(start) < budget; ++round) {
    const std::string out_dir =
        options.out_dir + "/batch/round" + std::to_string(round);
    std::filesystem::remove_all(out_dir);
    const std::string manifest = NextRoundManifest(&sweep, &order_rng);
    const LutStoreCounts lut_before = ReadLutStore();
    cenn::StatRegistry registry;

    const auto t0 = Clock::now();
    cenn::BatchRunner runner(cenn::ParseManifest(manifest),
                             RunnerOptions(options, sweep, out_dir));
    const auto t1 = Clock::now();
    const std::vector<cenn::JobResult> results = runner.RunAll(&registry);
    const auto t2 = Clock::now();

    tally.setup_s.push_back(Ms(t0, t1) / 1e3);
    AddRound(sweep.jobs, results, Ms(t1, t2) / 1e3, &tally);
    report.attempted += results.size();
    Report checks;
    report.failed += CheckRound(sweep, results, out_dir, &checks);
    if (!checks.correct) {
      report.correct = false;
    }
    if (round == 0) {
      report.observed = checks.observed;
    } else if (checks.observed != report.observed) {
      report.Problem("round " + std::to_string(round) +
                     " outputs differ from round 0");
    }
    if (options.trace && round == 0) {
      // Counts from the runner's registry and the LutStore.
      double busy_ms = 0;
      for (const cenn::JobResult& r : results) {
        busy_ms += r.wall_ms;
      }
      SetLutShare(lut_before, &report);
      report.Set("runtime.retries", registry.Value("runtime.batch.retries"),
                 "count");
      report.Set("runtime.pool.busy_frac",
                 busy_ms / (kWorkers * Ms(t1, t2)), "frac");
      report.Set("runtime.job_ms", busy_ms / results.size(), "ms");
    }
    std::filesystem::remove_all(out_dir);
  }
  tally.peak_rss_mb = PeakRssMb();
  SetEndToEnd(tally, &report);
  if (!options.trace) {
    CheckPinned(options, &report);
    return report;
  }

  // Traced run: the serial replay in untraced/traced pairs, alternating
  // which runs first; the overhead is the median over pairs, so host
  // drift between passes does not read as tracing overhead.
  ReplayOptions replay;
  replay.out_dir = options.out_dir + "/batch/replay";
  replay.base_seed = options.seed;
  replay.checkpoint_every = kCheckpointEvery;
  replay.max_retries = kMaxRetries;
  replay.guard = true;
  replay.fault_inject = sweep.fault_inject;
  std::map<std::string, std::vector<double>> overhead;
  ReplayTotals totals;
  for (int pair = 0; pair < kReplayPairs; ++pair) {
    Report figures[2];
    for (const bool traced : {pair % 2 == 1, pair % 2 == 0}) {
      EnableSpans(traced);
      figures[traced] =
          ReplayEndToEnd(options, &sweep, &order_rng, replay, &totals);
      for (const auto& [name, checksum] : totals.checksums) {
        const auto it = report.observed.find("checksum." + name);
        if (it == report.observed.end() || it->second != checksum) {
          report.Problem("replayed " + name + " differs from BatchRunner");
        }
      }
      report.attempted += totals.jobs;
      report.failed += totals.failed;
    }
    Report pair_overhead;
    SetTraceOverhead(figures[0], figures[1], &pair_overhead);
    for (const auto& [name, value] : pair_overhead.metrics) {
      overhead[name].push_back(value.first);
    }
  }
  for (const auto& [name, values] : overhead) {
    report.Set(name, Median(values), "frac");
  }
  SetReplayLayerMetrics(totals, &report);
  WriteSpans(options.out_dir + "/batch_sweep.spans.json", nullptr);
  EnableSpans(false);
  UnitRateProbes(options, &report);
  std::filesystem::remove_all(replay.out_dir);
  return report;
}

}  // namespace perfbench
