#ifndef CENN_UTIL_COMMON_OPTIONS_H_
#define CENN_UTIL_COMMON_OPTIONS_H_

/**
 * @file
 * CommonOptions — the command-line flags shared by the cenn tools.
 *
 * cenn_run and cenn_batch (and any future driver) accept the same
 * engine-selection and observability flags. Each tool used to parse
 * its own copy, which is how `--stats` vs `--stats-out` drifted apart;
 * ParseCommonOptions is now the single implementation. Tools opt into
 * flag groups so a flag that a tool cannot honor stays unknown (and
 * therefore fatal via CliFlags::Validate) instead of being silently
 * swallowed.
 *
 * Values are kept as strings here — src/util sits below the kernel
 * and program layers, so canonicalization (precision defaults)
 * happens in runtime/engine_factory.h.
 *
 * Execution selection is the unified ExecPolicy (util/exec_policy.h):
 * `--exec=soa:double:shards=8:pin=numa` is the one flag, and the
 * CENN_EXEC environment variable overrides whichever fields it
 * mentions (logged once). Precedence: defaults < --exec < CENN_EXEC.
 */

#include <cstddef>
#include <cstdint>
#include <string>

#include "util/cli.h"
#include "util/exec_policy.h"

namespace cenn {

/** Flag groups a tool can opt into (bitwise-or of these). */
enum CommonFlagGroup : unsigned {
  /** --exec */
  kEngineFlags = 1u << 0,

  /** --threads */
  kThreadsFlag = 1u << 1,

  /** --stats-out */
  kStatsFlags = 1u << 2,

  /** --trace-out, --trace-categories, --trace-capacity */
  kTraceFlags = 1u << 3,

  /** --progress, --self-profile */
  kProfileFlags = 1u << 4,

  /** --guard, --guard-max-abs, --guard-max-rms, --guard-max-sat,
   *  --guard-check-every */
  kGuardFlags = 1u << 5,

  /** --metrics-out, --metrics-interval-ms */
  kMetricsFlags = 1u << 6,

  kAllCommonFlags = kEngineFlags | kThreadsFlag | kStatsFlags | kTraceFlags |
                    kProfileFlags | kGuardFlags | kMetricsFlags,
};

/** Parsed values of the shared flags (defaults when not given). */
struct CommonOptions {
  /**
   * How the run executes: engine, precision, memory, shards,
   * pinning. Assembled from --exec and CENN_EXEC; validated,
   * so safe to hand to BuildEngine / ShardTeam directly.
   */
  ExecPolicy exec;

  /** Worker threads (the job pool in cenn_batch and cenn_serve). */
  int threads = 1;

  /** Named-stat dump file; .csv/.json extensions switch the format. */
  std::string stats_out;

  /**
   * Live JSONL metrics stream: a file for cenn_run, a directory of
   * per-job `<name>.metrics.jsonl` streams for cenn_batch ("" = off).
   */
  std::string metrics_out;

  /** Sampling period of the metrics stream in milliseconds (>= 1). */
  int metrics_interval_ms = 250;

  /** Chrome trace_event JSON output file. */
  std::string trace_out;

  /** Comma list of trace categories, or "all"/"none". */
  std::string trace_categories = "all";

  /** Trace ring size in events. */
  std::size_t trace_capacity = 1 << 20;

  /** Periodic steps/s + ETA heartbeat on stderr. */
  bool progress = false;

  /** Print a wall-clock self-profile table at exit. */
  bool self_profile = false;

  /**
   * @name Numerical-health guard (src/health)
   * Plain values here (util sits below core); the tools build a
   * HealthGuardConfig from them. Thresholds of 0 disable that check.
   */
  ///@{

  /** Attach a HealthGuard to the run / to every batch job. */
  bool guard = false;

  /** Trip when any |state| exceeds this (0 = off). */
  double guard_max_abs = 1e4;

  /** Trip when the RMS state norm exceeds this (0 = off). */
  double guard_max_rms = 0.0;

  /** Trip when Fixed32 saturation events exceed this (0 = off). */
  std::uint64_t guard_max_sat = 0;

  /** Scan cadence in steps (1 = every slice boundary). */
  std::uint64_t guard_check_every = 16;

  ///@}
};

/**
 * Parses the selected flag groups out of `flags`, starting from
 * `defaults` (lets tools differ on e.g. the default thread count).
 * Does not call flags.Validate() — the tool does, after its own flags.
 */
CommonOptions ParseCommonOptions(CliFlags& flags,
                                 unsigned groups = kAllCommonFlags,
                                 CommonOptions defaults = {});

/**
 * Usage text for the selected groups (one "  --flag  description"
 * line each, newline-terminated) so both tools print identical docs.
 */
std::string CommonOptionsHelp(unsigned groups = kAllCommonFlags);

}  // namespace cenn

#endif  // CENN_UTIL_COMMON_OPTIONS_H_
