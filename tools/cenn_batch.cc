/**
 * @file
 * cenn_batch — runs a manifest of solver scenarios across a worker
 * pool, one line of the manifest at a time becoming one SolverSession
 * job with durable artifacts (checkpoint, done marker, stat dump).
 *
 * The scheduler is deterministic (priority then manifest order; no
 * work stealing) and every job's state evolution is bit-identical
 * regardless of --threads or per-job shards, so a batch is a
 * reproducible experiment, not just a throughput device.
 *
 * Resume: point --resume-from at a previous output directory and
 * finished jobs are skipped via their done markers while interrupted
 * jobs continue from their checkpoints. --max-steps-per-job bounds
 * each invocation's work, which makes incremental draining of a big
 * manifest (or deterministic interruption in tests) possible.
 *
 * Fault tolerance (docs/robustness.md): --guard attaches a numerical
 * health guard to every job, --max-retries re-runs a crashed or
 * guard-tripped job from its last good checkpoint, and --fault-inject
 * deterministically injects crashes / state corruption to exercise
 * that path. The exit code is 1 when any job ends failed or diverged.
 *
 * Execution policy: per-job `exec=` manifest keys refine the
 * frontend-level default given by --exec (e.g. --exec=soa:double runs
 * every job on the double SoA kernels unless a job overrides a field).
 * --threads is the *pool* width (jobs run concurrently); per-job band
 * shards come from the policy's shards= field.
 *
 * Examples:
 *   cenn_batch --manifest=jobs.txt --out=batch_out --threads=4
 *   cenn_batch --manifest=jobs.txt --out=wide --exec=soa:shards=2
 *   cenn_batch --manifest=jobs.txt --out=batch_out --resume-from=batch_out
 *   cenn_batch --manifest=jobs.txt --out=sweep --csv=sweep/results.csv \
 *              --stats-out=sweep/stats.txt
 *   cenn_batch --manifest=jobs.txt --out=ft --guard --checkpoint-every=50 \
 *              --max-retries=2 --fault-inject=crash@120,flip@300
 */

#include <cstdio>
#include <fstream>
#include <string>

#include "obs/stat_registry.h"
#include "obs/stats_io.h"
#include "runtime/batch_manifest.h"
#include "runtime/batch_runner.h"
#include "util/cli.h"
#include "util/common_options.h"
#include "util/logging.h"
#include "util/table.h"

namespace cenn {
namespace {

/** The shared flags cenn_batch honors (--exec sets the default job
 *  policy; per-job manifest keys refine it). */
constexpr unsigned kBatchFlagGroups = kEngineFlags | kThreadsFlag |
                                      kStatsFlags | kGuardFlags |
                                      kMetricsFlags;

void
PrintUsage()
{
  std::printf(
      "usage: cenn_batch --manifest=FILE --out=DIR [options]\n\n"
      "shared options:\n%s"
      "\nbatch options:\n"
      "  --manifest=FILE          job manifest (see docs/runtime.md)\n"
      "  --out=DIR                output directory for artifacts\n"
      "  --queue-capacity=N       job-queue bound (default 64)\n"
      "  --seed=N                 base seed for unseeded jobs (42)\n"
      "  --max-steps-per-job=N    per-invocation step budget (0 = all)\n"
      "  --checkpoint-every=N     default auto-checkpoint interval\n"
      "  --resume-from=DIR        reuse .done/.ckpt artifacts in DIR\n"
      "                           (must equal --out)\n"
      "  --csv=FILE               write per-job results as CSV\n"
      "  --max-retries=N          extra attempts after a crash or guard\n"
      "                           trip (default 0 = fail fast)\n"
      "  --retry-backoff-ms=N     base retry delay, doubled per attempt\n"
      "  --fault-inject=SPEC      deterministic fault injection, e.g.\n"
      "                           crash@40x2,flip@150 (docs/robustness.md)\n",
      CommonOptionsHelp(kBatchFlagGroups).c_str());
}

int
BatchMain(int argc, char** argv)
{
  CliFlags flags(argc, argv);
  const std::string manifest = flags.GetString("manifest", "");
  const bool help = flags.GetBool("help", false);
  if (help || manifest.empty()) {
    PrintUsage();
    return manifest.empty() && !help ? 1 : 0;
  }

  CommonOptions defaults;
  defaults.threads = 2;
  const CommonOptions copts =
      ParseCommonOptions(flags, kBatchFlagGroups, defaults);

  BatchOptions options;
  options.out_dir = flags.GetString("out", "");
  options.num_threads = copts.threads;
  options.queue_capacity =
      static_cast<std::size_t>(flags.GetInt("queue-capacity", 64));
  options.base_seed = static_cast<std::uint64_t>(flags.GetInt("seed", 42));
  options.max_steps_per_job =
      static_cast<std::uint64_t>(flags.GetInt("max-steps-per-job", 0));
  options.checkpoint_every =
      static_cast<std::uint64_t>(flags.GetInt("checkpoint-every", 0));
  options.max_retries = static_cast<int>(flags.GetInt("max-retries", 0));
  options.retry_backoff_ms =
      static_cast<int>(flags.GetInt("retry-backoff-ms", 0));
  options.fault_inject = flags.GetString("fault-inject", "");
  // --metrics-out names a directory here: each running job streams
  // <dir>/<name>.metrics.jsonl (obs/metrics_emitter.h).
  options.metrics_dir = copts.metrics_out;
  options.metrics_interval_ms = copts.metrics_interval_ms;
  options.guard_enabled = copts.guard;
  options.guard.max_abs = copts.guard_max_abs;
  options.guard.max_rms = copts.guard_max_rms;
  options.guard.max_sat_events = copts.guard_max_sat;
  options.guard.check_every = copts.guard_check_every;
  const std::string resume_from = flags.GetString("resume-from", "");
  const std::string csv = flags.GetString("csv", "");
  const std::string stats_out = copts.stats_out;
  flags.Validate();

  if (options.out_dir.empty()) {
    CENN_FATAL("--out is required");
  }
  if (!resume_from.empty()) {
    if (resume_from != options.out_dir) {
      CENN_FATAL("--resume-from must name the --out directory (artifacts "
                 "live there); got '", resume_from, "' vs '",
                 options.out_dir, "'");
    }
    options.resume = true;
  }

  // Frontend-level default policy: every manifest job starts from the
  // --exec value and refines it field-wise with its own keys.
  JobSpec manifest_defaults;
  manifest_defaults.exec = copts.exec;
  const auto jobs = LoadManifestFile(manifest, &manifest_defaults);
  std::printf("manifest %s: %zu jobs, %d workers%s\n", manifest.c_str(),
              jobs.size(), options.num_threads,
              options.resume ? " (resuming)" : "");

  StatRegistry registry;
  BatchRunner runner(jobs, options);
  const auto results = runner.RunAll(&registry);

  TextTable table({"job", "model", "exec", "status", "tries", "steps",
                   "ran", "checksum", "ms"});
  for (const JobResult& r : results) {
    char checksum[32];
    std::snprintf(checksum, sizeof(checksum), "%016llx",
                  static_cast<unsigned long long>(r.checksum));
    char ms[32];
    std::snprintf(ms, sizeof(ms), "%.1f", r.wall_ms);
    table.AddRow({r.name, r.model, r.exec, JobStatusName(r.status),
                  std::to_string(r.attempts), std::to_string(r.steps_done),
                  std::to_string(r.steps_executed), checksum, ms});
  }
  std::printf("\n%s", table.ToString().c_str());

  if (!csv.empty()) {
    std::ofstream out(csv);
    if (out) {
      out << BatchRunner::ResultsCsv(results);
      std::printf("wrote %s\n", csv.c_str());
    } else {
      CENN_WARN("cannot open csv output file '", csv, "'");
    }
  }
  if (!stats_out.empty() && WriteStatsFile(registry, stats_out)) {
    std::printf("wrote %zu stats to %s\n", registry.Size(),
                stats_out.c_str());
  }

  int interrupted = 0;
  int failures = 0;
  for (const JobResult& r : results) {
    interrupted += r.status == JobStatus::kInterrupted ? 1 : 0;
    failures += JobStatusIsFailure(r.status) ? 1 : 0;
  }
  if (interrupted > 0) {
    std::printf("%d job(s) interrupted; rerun with --resume-from=%s to "
                "continue\n", interrupted, options.out_dir.c_str());
  }
  if (failures > 0) {
    std::printf("%d job(s) failed or diverged (see per-job warnings "
                "above)\n", failures);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace cenn

int
main(int argc, char** argv)
{
  return cenn::BatchMain(argc, argv);
}
