/**
 * @file
 * cenn_serve — long-lived multi-tenant solver service over TCP.
 *
 * Accepts newline-delimited cenn.serve.v1 JSON requests (submit /
 * status / result / cancel / snapshot / stats / ping / shutdown; see
 * docs/serve.md) and multiplexes the submitted jobs over one shared
 * worker pool, each job a fault-tolerant SolverSession with its own
 * health guard and checkpoint file under --work-dir.
 *
 * Lifecycle: the process serves until a client sends the "shutdown"
 * op or the process receives SIGTERM/SIGINT, then drains — admission
 * closes, queued jobs flush as "interrupted", running sessions pause
 * at a slice boundary, checkpoint, and report "interrupted" — and
 * exits 0. Every waiter is answered before the socket closes.
 *
 * Examples:
 *   cenn_serve --work-dir=/tmp/serve --port=7070 --threads=4
 *   cenn_serve --work-dir=/tmp/serve --port=0 --port-file=/tmp/port \
 *              --metrics-out=/tmp/serve.metrics.jsonl
 */

#include <csignal>
#include <cstdio>
#include <fstream>
#include <thread>

#include "serve/service.h"
#include "serve/tcp_server.h"
#include "util/cli.h"
#include "util/common_options.h"
#include "util/logging.h"

namespace cenn {
namespace {

constexpr unsigned kServeFlagGroups =
    kThreadsFlag | kGuardFlags | kMetricsFlags;

/** Set by the SIGTERM/SIGINT handler; polled by the main loop. */
volatile std::sig_atomic_t g_signal = 0;

void
OnSignal(int signum)
{
  g_signal = signum;
}

void
PrintUsage()
{
  std::printf(
      "usage: cenn_serve --work-dir=DIR [options]\n\n"
      "shared options:\n%s"
      "\nserve options:\n"
      "  --work-dir=DIR           checkpoint directory (required)\n"
      "  --host=ADDR              bind address (default 127.0.0.1)\n"
      "  --port=N                 TCP port; 0 = kernel-assigned (default)\n"
      "  --port-file=FILE         write the bound port here once listening\n"
      "  --queue-capacity=N       job-queue bound (default 16)\n"
      "  --tenant-quota=N         max in-flight jobs per tenant (8; 0 = off)\n"
      "  --max-in-flight=N        global in-flight bound (0 = derive)\n"
      "  --seed=N                 base seed for unseeded jobs (42)\n"
      "  --max-retries=N          extra attempts after a crash or guard\n"
      "                           trip (default 2)\n"
      "  --retry-backoff-ms=N     base retry delay, doubled per attempt\n"
      "  --checkpoint-every=N     default auto-checkpoint interval (64)\n"
      "  --max-cells=N            largest grid a submit may run (2^20)\n"
      "  --max-steps=N            largest steps a submit may ask (0 = off)\n"
      "  --retry-after-ms=N       retry hint on quota/busy rejects (200)\n"
      "  --max-line-bytes=N       request-line size cap (default 1 MiB)\n",
      CommonOptionsHelp(kServeFlagGroups).c_str());
}

int
ServeMain(int argc, char** argv)
{
  CliFlags flags(argc, argv);
  const bool help = flags.GetBool("help", false);
  const std::string work_dir = flags.GetString("work-dir", "");
  if (help || work_dir.empty()) {
    PrintUsage();
    return work_dir.empty() && !help ? 1 : 0;
  }

  // A service defaults its guard on: a hosted job that diverges must
  // trip and retry instead of burning a worker on NaNs.
  CommonOptions defaults;
  defaults.threads = 2;
  defaults.guard = true;
  const CommonOptions copts =
      ParseCommonOptions(flags, kServeFlagGroups, defaults);

  ServiceOptions options;
  options.work_dir = work_dir;
  options.num_threads = copts.threads;
  options.queue_capacity =
      static_cast<std::size_t>(flags.GetInt("queue-capacity", 16));
  options.tenant_quota = static_cast<int>(flags.GetInt("tenant-quota", 8));
  options.max_in_flight =
      static_cast<std::size_t>(flags.GetInt("max-in-flight", 0));
  options.base_seed = static_cast<std::uint64_t>(flags.GetInt("seed", 42));
  options.max_retries = static_cast<int>(flags.GetInt("max-retries", 2));
  options.retry_backoff_ms =
      static_cast<int>(flags.GetInt("retry-backoff-ms", 0));
  options.checkpoint_every =
      static_cast<std::uint64_t>(flags.GetInt("checkpoint-every", 64));
  options.max_cells =
      static_cast<std::size_t>(flags.GetInt("max-cells", 1 << 20));
  options.max_steps =
      static_cast<std::uint64_t>(flags.GetInt("max-steps", 0));
  options.retry_after_ms =
      static_cast<int>(flags.GetInt("retry-after-ms", 200));
  options.guard_enabled = copts.guard;
  options.guard.max_abs = copts.guard_max_abs;
  options.guard.max_rms = copts.guard_max_rms;
  options.guard.max_sat_events = copts.guard_max_sat;
  options.guard.check_every = copts.guard_check_every;
  options.metrics_path = copts.metrics_out;
  options.metrics_interval_ms = copts.metrics_interval_ms;

  TcpServerOptions tcp;
  tcp.host = flags.GetString("host", "127.0.0.1");
  tcp.port = static_cast<int>(flags.GetInt("port", 0));
  tcp.max_line_bytes =
      static_cast<std::size_t>(flags.GetInt("max-line-bytes", 1 << 20));
  const std::string port_file = flags.GetString("port-file", "");
  flags.Validate();

  SolverService service(options);
  TcpServer server(
      tcp,
      [&service](const std::string& line, std::string* response) {
        return service.HandleLine(line, response);
      },
      [&service] { service.OnConnection(); });

  std::string error;
  if (!server.Start(&error)) {
    CENN_FATAL("cenn_serve: cannot listen on ", tcp.host, ":", tcp.port,
               ": ", error);
  }
  if (!port_file.empty()) {
    std::ofstream out(port_file);
    if (!out) {
      CENN_FATAL("cenn_serve: cannot write port file '", port_file, "'");
    }
    out << server.Port() << "\n";
  }
  std::printf("cenn_serve: listening on %s:%d (%d workers, queue %zu, "
              "quota %d)\n",
              tcp.host.c_str(), server.Port(), options.num_threads,
              options.queue_capacity, options.tenant_quota);
  std::fflush(stdout);

  std::signal(SIGTERM, OnSignal);
  std::signal(SIGINT, OnSignal);

  // Serve until a wire shutdown or a signal; both end in the same
  // drain sequence (stop accepting, then checkpoint-and-flush).
  while (g_signal == 0 && !server.ShutdownRequested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  const char* why = g_signal == SIGTERM   ? "SIGTERM"
                    : g_signal == SIGINT  ? "SIGINT"
                                          : "shutdown op";
  std::printf("cenn_serve: %s received, draining\n", why);
  std::fflush(stdout);

  // Drain first, then stop the transport: Stop() waits for connection
  // threads, and those may be parked in a result long-poll that only
  // Drain() wakes (it finalizes every job and notifies its waiters).
  // Submits arriving during the drain are rejected with "draining".
  service.Drain();
  server.Stop();

  std::printf("cenn_serve: drained (%llu connections served); bye\n",
              static_cast<unsigned long long>(server.ConnectionsAccepted()));
  return 0;
}

}  // namespace
}  // namespace cenn

int
main(int argc, char** argv)
{
  return cenn::ServeMain(argc, argv);
}
