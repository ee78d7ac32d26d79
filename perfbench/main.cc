// cenn_perfbench: runs one workload of the end-to-end benchmark and
// prints its result (see perfbench/README.md).
//
//   cenn_perfbench --workload=long_run|batch_sweep|serve_tenants
//                  --seed=N --seconds=S --trace=0|1 [--smoke]
//                  --out=DIR --data=DIR [--root=DIR]
//
// The last stdout line is one JSON object: correct, attempted, failed
// and the metrics (end-to-end untraced, per-layer traced).

#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "bench.h"

namespace {

using perfbench::Report;

/** Per-layer metrics every traced run prints, with their units. A
 *  workload that never calls into a layer reports 0 for it. */
const std::pair<const char*, const char*> kLayerMetrics[] = {
    {"lang.compile_ms", "ms"},
    {"mapping.map_ms", "ms"},
    {"lut.build_ms", "ms"},
    {"lut.builds", "count"},
    {"lut.share_ratio", "frac"},
    {"lut.interp_per_cell", "count"},
    {"kernels.prepare_ms", "ms"},
    {"kernels.serial_mcups_double", "Mcell/s"},
    {"kernels.serial_mcups_fixed", "Mcell/s"},
    {"kernels.bytes_per_cell", "B/cell"},
    {"kernels.flops_per_byte", "flop/B"},
    {"core.functional_mcups", "Mcell/s"},
    {"arch.host_ns_per_cycle", "ns/cycle"},
    {"arch.sim_cycles", "count"},
    {"runtime.team.wait_frac", "frac"},
    {"runtime.team.publish_us", "us"},
    {"runtime.parallel_efficiency", "frac"},
    {"runtime.pool.busy_frac", "frac"},
    {"runtime.job_ms", "ms"},
    {"runtime.retries", "count"},
    {"runtime.restore_ms", "ms"},
    {"health.scan_us", "us"},
    {"health.scans", "count"},
    {"program.checkpoint_write_ms", "ms"},
    {"program.checkpoint_bytes", "B"},
    {"program.checkpoints", "count"},
    {"serve.ping_rtt_us", "us"},
    {"serve.submit_rtt_ms", "ms"},
    {"serve.run_ms", "ms"},
    {"serve.queue_wait_p50_ms", "ms"},
    {"serve.queue_wait_p95_ms", "ms"},
    {"serve.rejected", "count"},
    {"client.late_ms", "ms"},
    {"obs.trace_overhead_frac.setup_s", "frac"},
    {"obs.trace_overhead_frac.mcups_double", "frac"},
    {"obs.trace_overhead_frac.mcups_fixed", "frac"},
    {"obs.trace_overhead_frac.jobs_per_s", "frac"},
    {"obs.trace_overhead_frac.latency_p50_ms", "frac"},
    {"obs.trace_overhead_frac.latency_p95_ms", "frac"},
    {"obs.trace_overhead_frac.peak_rss_mb", "frac"},
};

const char* const kEndToEnd[] = {"setup_s",        "mcups_double",
                                 "mcups_fixed",    "jobs_per_s",
                                 "latency_p50_ms", "latency_p95_ms",
                                 "peak_rss_mb"};

/**
 * Runs the whole process, and every thread it starts, on CPUs 0 and 1:
 * the cores long_run's pinned teams use, so every workload sees the
 * same two cores. On the reference VM the other vCPUs' speed swung
 * more: batch_sweep read 18.6-22.2 jobs/s unpinned and 18.5-19.1
 * pinned to these two.
 */
void
PinProcess()
{
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(0, &set);
  CPU_SET(1, &set);
  if (sched_setaffinity(0, sizeof(set), &set) != 0) {
    std::cerr << "cenn_perfbench: cannot pin to CPUs 0 and 1; running "
                 "unpinned\n";
  }
}

bool
Flag(const std::string& arg, const char* name, std::string* value)
{
  const std::string prefix = std::string("--") + name + "=";
  if (arg.rfind(prefix, 0) != 0) {
    return false;
  }
  *value = arg.substr(prefix.size());
  return true;
}

int
Usage(const std::string& why)
{
  std::cerr << "cenn_perfbench: " << why
            << "\nusage: cenn_perfbench --workload=long_run|batch_sweep|"
               "serve_tenants --seed=N --seconds=S --trace=0|1 [--smoke] "
               "--out=DIR --data=DIR [--root=DIR]\n";
  return 2;
}

}  // namespace

int
main(int argc, char** argv)
{
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string v;
    if (Flag(arg, "workload", &v)) {
      options.workload = v;
    } else if (Flag(arg, "seed", &v)) {
      options.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (Flag(arg, "seconds", &v)) {
      options.seconds = std::strtod(v.c_str(), nullptr);
    } else if (Flag(arg, "trace", &v)) {
      options.trace = v == "1";
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else if (Flag(arg, "out", &v)) {
      options.out_dir = v;
    } else if (Flag(arg, "data", &v)) {
      options.data_dir = v;
    } else if (Flag(arg, "root", &v)) {
      options.root = v;
    } else {
      return Usage("unknown argument '" + arg + "'");
    }
  }
  if (options.out_dir.empty() || options.data_dir.empty() ||
      !(options.seconds > 0.0)) {
    return Usage("--out, --data and a positive --seconds are required");
  }
  std::filesystem::create_directories(options.out_dir);
  PinProcess();

  Report report;
  if (options.workload == "long_run") {
    report = perfbench::RunLongRun(options);
  } else if (options.workload == "batch_sweep") {
    report = perfbench::RunBatchSweep(options);
  } else if (options.workload == "serve_tenants") {
    report = perfbench::RunServeTenants(options);
  } else {
    return Usage("unknown workload '" + options.workload + "'");
  }

  std::printf("machine %s\n", perfbench::MachineJson().c_str());
  std::string metrics;
  auto emit = [&](const std::string& name, const char* unit) {
    const auto it = report.metrics.find(name);
    double value = it == report.metrics.end() ? 0.0 : it->second.first;
    if (!std::isfinite(value)) {
      report.Problem(name + " is not finite");
      value = 0.0;
    }
    if (options.trace) {
      std::printf("layer %-38s %16.6f %s\n", name.c_str(), value, unit);
    }
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                  metrics.empty() ? "" : ",", name.c_str(), value, unit);
    metrics += buf;
  };
  if (options.trace) {
    for (const auto& [name, unit] : kLayerMetrics) {
      emit(name, unit);
    }
    std::printf(
        "note kernels.bytes_per_cell and kernels.flops_per_byte are computed "
        "by the SoA traffic model, not measured; the long_run working set is "
        "L3-resident, so compare them with L3 bandwidth, not DRAM\n");
  } else {
    for (const char* name : kEndToEnd) {
      const auto it = report.metrics.find(name);
      if (it == report.metrics.end()) {
        report.Problem(std::string("missing metric ") + name);
        emit(name, "");
      } else {
        emit(name, it->second.second.c_str());
      }
    }
  }
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":{%s}}\n",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed), metrics.c_str());
  return 0;
}
