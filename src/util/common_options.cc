#include "util/common_options.h"

#include <cstdlib>
#include <mutex>

#include "util/logging.h"

namespace cenn {

CommonOptions
ParseCommonOptions(CliFlags& flags, unsigned groups, CommonOptions defaults)
{
  CommonOptions opts = std::move(defaults);
  if ((groups & kEngineFlags) != 0) {
    // Precedence: defaults < --exec < CENN_EXEC.
    const std::string exec_text = flags.GetString("exec", "");
    std::string error;
    if (!exec_text.empty() &&
        !ParseExecPolicy(exec_text, &opts.exec, &error)) {
      CENN_FATAL("--exec: ", error);
    }
    if (const char* env = std::getenv("CENN_EXEC");
        env != nullptr && env[0] != '\0') {
      if (!ParseExecPolicy(env, &opts.exec, &error)) {
        CENN_FATAL("CENN_EXEC: ", error);
      }
      static std::once_flag logged;
      std::call_once(logged, [env] {
        CENN_INFORM("CENN_EXEC override active: ", env);
      });
    }
    if (!ValidateExecPolicy(opts.exec, &error)) {
      CENN_FATAL("exec policy: ", error);
    }
  }
  if ((groups & kThreadsFlag) != 0) {
    opts.threads = static_cast<int>(flags.GetInt("threads", opts.threads));
    if (opts.threads < 1) {
      CENN_FATAL("--threads must be >= 1, got ", opts.threads);
    }
  }
  if ((groups & kStatsFlags) != 0) {
    opts.stats_out = flags.GetString("stats-out", opts.stats_out);
  }
  if ((groups & kMetricsFlags) != 0) {
    opts.metrics_out = flags.GetString("metrics-out", opts.metrics_out);
    opts.metrics_interval_ms = static_cast<int>(flags.GetInt(
        "metrics-interval-ms",
        static_cast<std::int64_t>(opts.metrics_interval_ms)));
    if (opts.metrics_interval_ms < 1) {
      CENN_FATAL("--metrics-interval-ms must be >= 1, got ",
                 opts.metrics_interval_ms);
    }
  }
  if ((groups & kTraceFlags) != 0) {
    opts.trace_out = flags.GetString("trace-out", opts.trace_out);
    opts.trace_categories =
        flags.GetString("trace-categories", opts.trace_categories);
    opts.trace_capacity = static_cast<std::size_t>(flags.GetInt(
        "trace-capacity", static_cast<std::int64_t>(opts.trace_capacity)));
  }
  if ((groups & kProfileFlags) != 0) {
    opts.progress = flags.GetBool("progress", opts.progress);
    opts.self_profile = flags.GetBool("self-profile", opts.self_profile);
  }
  if ((groups & kGuardFlags) != 0) {
    opts.guard = flags.GetBool("guard", opts.guard);
    opts.guard_max_abs =
        flags.GetDouble("guard-max-abs", opts.guard_max_abs);
    opts.guard_max_rms =
        flags.GetDouble("guard-max-rms", opts.guard_max_rms);
    opts.guard_max_sat = static_cast<std::uint64_t>(flags.GetInt(
        "guard-max-sat", static_cast<std::int64_t>(opts.guard_max_sat)));
    opts.guard_check_every = static_cast<std::uint64_t>(
        flags.GetInt("guard-check-every",
                     static_cast<std::int64_t>(opts.guard_check_every)));
    if (opts.guard_max_abs < 0.0 || opts.guard_max_rms < 0.0) {
      CENN_FATAL("--guard-max-abs / --guard-max-rms must be >= 0");
    }
    if (opts.guard_check_every == 0) {
      CENN_FATAL("--guard-check-every must be >= 1");
    }
  }
  return opts;
}

std::string
CommonOptionsHelp(unsigned groups)
{
  std::string out;
  if ((groups & kEngineFlags) != 0) {
    out +=
        "  --exec=POLICY                execution policy: colon-separated\n"
        "                               engine (soa|functional|arch;\n"
        "                               default soa), precision\n"
        "                               (double|fixed|float), memory\n"
        "                               (ddr3|hmc-int|hmc-ext) and kernel\n"
        "                               (auto=simd|scalar|blocked|simd)\n"
        "                               tokens plus shards=N and pin=\n"
        "                               none|cores|numa, e.g.\n"
        "                               --exec=soa:simd:shards=8:pin=numa\n"
        "                               (CENN_EXEC and CENN_KERNEL_PATH\n"
        "                               override; simd ISA via\n"
        "                               CENN_SIMD_ISA; docs/runtime.md)\n";
  }
  if ((groups & kThreadsFlag) != 0) {
    out += "  --threads=N                  worker threads\n";
  }
  if ((groups & kStatsFlags) != 0) {
    out +=
        "  --stats-out=FILE             write named-stat dump (text; .csv\n"
        "                               and .json extensions switch format)\n";
  }
  if ((groups & kMetricsFlags) != 0) {
    out +=
        "  --metrics-out=PATH           stream live JSONL metrics samples\n"
        "                               (file; a directory of per-job\n"
        "                               streams in cenn_batch)\n"
        "  --metrics-interval-ms=N      metrics sampling period (250)\n";
  }
  if ((groups & kTraceFlags) != 0) {
    out +=
        "  --trace-out=FILE             write Chrome trace_event JSON\n"
        "  --trace-categories=LIST      step,conv,lut,dram,checkpoint,\n"
        "                               solver,counter or all/none\n"
        "  --trace-capacity=N           trace ring size in events (2^20)\n";
  }
  if ((groups & kProfileFlags) != 0) {
    out +=
        "  --progress                   periodic steps/s + ETA heartbeat\n"
        "  --self-profile               print wall-clock self-profile\n";
  }
  if ((groups & kGuardFlags) != 0) {
    out +=
        "  --guard                      attach a numerical-health guard\n"
        "  --guard-max-abs=X            trip when any |state| > X (1e4;\n"
        "                               0 disables)\n"
        "  --guard-max-rms=X            trip when the RMS norm > X (0=off)\n"
        "  --guard-max-sat=N            trip when Fixed32 saturation\n"
        "                               events exceed N (0=off)\n"
        "  --guard-check-every=N        scan cadence in steps (16)\n";
  }
  return out;
}

}  // namespace cenn
