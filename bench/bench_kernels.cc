/**
 * @file
 * bench_kernels — throughput of the SoA stepping kernels against the
 * functional reference solver.
 *
 * Times the same solve on five backends: the functional engine
 * (MultilayerCenn walking the IR per cell), the SoA engine on its
 * scalar path (compiled plans, cell-by-cell), the SoA engine on its
 * blocked path (fused row kernels), the SoA engine on its simd path
 * (explicitly vectorized kernels, runtime-dispatched ISA — the
 * default, Q16.16 int32 lanes at fixed precision), the blocked path
 * band-sharded across worker threads, and the fused path: a
 * persistent ShardTeam stepping the simd kernels (the
 * --exec=soa:simd:shards=K configuration, workers resident across the
 * warm-up and timed regions). Rows are named by their --exec spelling
 * (soa:fixed:simd, ...). Reports steps/s, layer-cell updates/s
 * (Mlayer-cell/s: rows x cols x layers, unlike the grid-cell Mcell/s
 * of perfbench and cenn_run) and speedup over the functional
 * baseline, and verifies that every fixed/double variant ends in a
 * bit-identical final state (float runs are reported but not
 * compared — there is no float reference).
 *
 * --check turns the run into a regression gate: exit 1 if the blocked
 * kernels are slower than the scalar plan walk, if the simd kernels
 * are below 1.5x the blocked kernels on the double datapath (skipped
 * when the dispatcher picks the generic backend — scalar-width
 * "vectors" carry no speedup promise), if a persistent 4-shard simd
 * team is below 2.5x single-thread simd on a 256x256 grid (skipped
 * below 4 physical cores — SMT siblings share execution ports and
 * cannot honor that margin), if the packed SoA coefficient
 * lanes are below 1.15x over the 9-field AoS tuple stride on a
 * LUT-bound sweep, if any comparable variant diverges from the
 * functional state, or if the health-guard instrumentation (the
 * Fixed32 saturation-counter hook) costs more than 2% on the fixed
 * simd path. --quick shrinks the workload for CI smoke use.
 *
 * Examples:
 *   bench_kernels
 *   bench_kernels --model=gray_scott --rows=256 --cols=256 --steps=100
 *   bench_kernels --quick --check
 *   bench_kernels --precision=float --shards=1,2,4
 */

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/nonlinear.h"
#include "core/solver.h"
#include "health/health_guard.h"
#include "kernels/soa_engine.h"
#include "kernels/soa_simd.h"
#include "models/benchmark_model.h"
#include "obs/metrics_emitter.h"
#include "obs/stat_registry.h"
#include "runtime/engine_factory.h"
#include "runtime/worker_team.h"
#include "util/cli.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/table.h"

namespace cenn {
namespace {

/** Builds `engine` at `precision` on kernel path `path`. */
std::unique_ptr<Engine>
Build(const SolverProgram& program, const char* engine,
      const std::string& precision, const char* path = "auto")
{
  ExecPolicy policy;
  policy.engine = engine;
  policy.precision = precision;
  policy.kernel_path = path;
  return BuildEngine(program, policy);
}

std::vector<int>
ParseShardList(const std::string& list)
{
  std::vector<int> shards;
  std::istringstream in(list);
  std::string item;
  while (std::getline(in, item, ',')) {
    const int k = std::atoi(item.c_str());
    if (k < 1) {
      CENN_FATAL("--shards: bad worker count '", item, "'");
    }
    shards.push_back(k);
  }
  if (shards.empty()) {
    CENN_FATAL("--shards: empty list");
  }
  return shards;
}

/** 64-bit FNV-1a over every layer's final state bits. */
std::uint64_t
StateChecksum(const Engine& engine)
{
  std::uint64_t hash = 1469598103934665603ull;
  for (int layer = 0; layer < engine.Spec().NumLayers(); ++layer) {
    for (const double v : engine.Snapshot(layer)) {
      hash = FnvMix(hash, std::bit_cast<std::uint64_t>(v));
    }
  }
  return hash;
}

struct Variant {
  std::string name;
  std::unique_ptr<Engine> engine;
  // Declared after `engine`: destroyed first, so a persistent
  // ShardTeam captured in the closure joins before the engine dies.
  std::function<void(Engine*, std::uint64_t)> run;
  bool comparable = true;  ///< has the same numerics as the reference
};

/**
 * Physical cores: unique (physical id, core id) pairs in
 * /proc/cpuinfo, so SMT siblings count once. Falls back to
 * hardware_concurrency where the file is absent (non-Linux) — an
 * overcount there only makes the scaling gate stricter, never skips
 * it wrongly.
 */
int
CountPhysicalCores()
{
  std::ifstream in("/proc/cpuinfo");
  std::set<std::pair<int, int>> cores;
  int physical_id = 0;
  std::string line;
  while (std::getline(in, line)) {
    const auto value = [&line] {
      const std::size_t colon = line.find(':');
      return colon == std::string::npos
                 ? 0
                 : std::atoi(line.c_str() + colon + 1);
    };
    if (line.rfind("physical id", 0) == 0) {
      physical_id = value();
    } else if (line.rfind("core id", 0) == 0) {
      cores.emplace(physical_id, value());
    }
  }
  if (!cores.empty()) {
    return static_cast<int>(cores.size());
  }
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<int>(hc);
}

/** Modeled memory traffic + arithmetic from the kernels.traffic.*
 *  counters (zero for engines that don't publish them). */
struct Traffic {
  double bytes = 0.0;
  double flops = 0.0;
};

Traffic
ReadTraffic(const StatRegistry& registry)
{
  const auto snapshot = registry.TypedSnapshot();
  const auto get = [&snapshot](const char* name) {
    const auto it = snapshot.find(name);
    return it == snapshot.end() ? 0.0 : it->second.value;
  };
  Traffic t;
  t.bytes = get("kernels.traffic.bytes_read") +
            get("kernels.traffic.bytes_written");
  t.flops = get("kernels.traffic.flops");
  return t;
}

/**
 * STREAM-like triad bandwidth (best of five passes, GB/s): the
 * single-thread peak the roofline summary compares kernel traffic
 * against. Arrays are far beyond any LLC so this measures DRAM, and
 * the result array is read afterwards so the stores can't be elided.
 */
double
MeasureTriadGBs()
{
  const std::size_t n = std::size_t{8} << 20;  // 3 x 64 MiB of doubles
  std::vector<double> a(n, 1.0);
  std::vector<double> b(n, 2.0);
  std::vector<double> c(n, 0.0);
  double best = 0.0;
  for (int pass = 0; pass < 5; ++pass) {
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      c[i] = a[i] + 3.0 * b[i];
    }
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    // Two reads + one write of 8 bytes per element.
    best = std::max(best, 24.0 * static_cast<double>(n) / seconds / 1e9);
    if (c[n / 2] != 7.0) {
      CENN_FATAL("triad kernel produced a wrong value");
    }
  }
  return best;
}


int
BenchMain(int argc, char** argv)
{
  CliFlags flags(argc, argv);
  const bool quick = flags.GetBool("quick", false);
  const bool check = flags.GetBool("check", false);
  const std::string model_name =
      flags.GetString("model", "reaction_diffusion");
  ModelConfig mc;
  mc.rows = static_cast<std::size_t>(flags.GetInt("rows", 128));
  mc.cols = static_cast<std::size_t>(flags.GetInt("cols", 128));
  mc.seed = static_cast<std::uint64_t>(flags.GetInt("seed", 42));
  const auto steps = static_cast<std::uint64_t>(
      flags.GetInt("steps", quick ? 40 : 200));
  const std::string precision = flags.GetString("precision", "fixed");
  const std::vector<int> shard_counts =
      ParseShardList(flags.GetString("shards", quick ? "2" : "2,4"));
  flags.Validate();

  const SolverProgram program = MakeProgram(*MakeModel(model_name, mc));
  std::printf("kernel bench: %s %zux%zu, %llu steps, %d layers, "
              "precision=%s%s\n\n",
              model_name.c_str(), mc.rows, mc.cols,
              static_cast<unsigned long long>(steps),
              program.spec.NumLayers(), precision.c_str(),
              quick ? " (quick)" : "");

  const auto serial = [](Engine* engine, std::uint64_t n) {
    engine->Run(n);
  };

  std::vector<Variant> variants;
  // The float SoA engine has no functional twin; everything else is
  // held to bit-identity with the reference.
  const bool comparable = precision != "float";
  // Rows are named by their --exec spelling.
  const std::string soa = "soa:" + precision + ":";
  if (comparable) {
    variants.push_back({"functional:" + precision,
                        Build(program, "functional", precision), serial});
  }
  for (const char* path : {"scalar", "blocked", "simd"}) {
    variants.push_back({soa + path, Build(program, "soa", precision, path),
                        serial, comparable});
  }
  for (const int k : shard_counts) {
    // A one-shot team per call: workers spawn and join every Run.
    variants.push_back(
        {soa + "blocked:shards=" + std::to_string(k),
         Build(program, "soa", precision, "blocked"),
         [k](Engine* engine, std::uint64_t n) {
           TeamOptions options;
           options.shards = k;
           ShardTeam(engine, options).Run(n);
         },
         comparable});
  }
  for (const int k : shard_counts) {
    // The fused path: persistent simd worker team, built lazily on
    // first use and resident across the warm-up and timed regions —
    // exactly what --exec=soa:simd:shards=K runs in a session.
    auto team = std::make_shared<std::unique_ptr<ShardTeam>>();
    variants.push_back(
        {soa + "simd:shards=" + std::to_string(k) + " (team)",
         Build(program, "soa", precision, "simd"),
         [k, team](Engine* engine, std::uint64_t n) {
           if (*team == nullptr) {
             TeamOptions options;
             options.shards = k;
             *team = std::make_unique<ShardTeam>(engine, options);
           }
           (*team)->Run(n);
         },
         comparable});
  }

  const double cells = static_cast<double>(mc.rows) *
                       static_cast<double>(mc.cols) *
                       static_cast<double>(program.spec.NumLayers());
  const std::uint64_t warmup = steps / 10 + 1;

  // Mlayer-cell/s counts rows x cols x layers per second; perfbench
  // and cenn_run's Mcell/s count grid cells (rows x cols).
  TextTable table({"backend", "seconds", "steps/s", "Mlayer-cell/s",
                   "speedup", "GB/s", "FLOP/B", "state"});
  double baseline_seconds = 0.0;
  double scalar_seconds = 0.0;
  double blocked_seconds = 0.0;
  std::uint64_t reference_checksum = 0;
  bool states_agree = true;
  // Best soa kernel by modeled bandwidth, for the roofline summary.
  std::string roofline_name;
  double roofline_gbs = 0.0;
  double roofline_flop_per_byte = 0.0;

  for (Variant& v : variants) {
    // Each variant gets its own registry so the kernels.traffic.*
    // counters can be deltaed around the timed region.
    StatRegistry traffic_registry;
    v.engine->BindStats(&traffic_registry, "");
    v.run(v.engine.get(), warmup);
    const Traffic pre = ReadTraffic(traffic_registry);
    const auto start = std::chrono::steady_clock::now();
    v.run(v.engine.get(), steps);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    const Traffic post = ReadTraffic(traffic_registry);
    const double bytes = post.bytes - pre.bytes;
    const double gbs = seconds > 0.0 ? bytes / seconds / 1e9 : 0.0;
    const double flop_per_byte =
        bytes > 0.0 ? (post.flops - pre.flops) / bytes : 0.0;
    if (gbs > roofline_gbs) {
      roofline_name = v.name;
      roofline_gbs = gbs;
      roofline_flop_per_byte = flop_per_byte;
    }

    if (&v == &variants.front()) {
      baseline_seconds = seconds;
      reference_checksum = v.comparable ? StateChecksum(*v.engine) : 0;
    }
    if (v.name == soa + "scalar") {
      scalar_seconds = seconds;
    } else if (v.name == soa + "blocked") {
      blocked_seconds = seconds;
    } else if (v.name == soa + "simd") {
      v.name += std::string(" [") + SimdIsaName() + "]";
    }

    std::string state = "-";
    if (v.comparable) {
      const bool same = StateChecksum(*v.engine) == reference_checksum;
      states_agree = states_agree && same;
      state = same ? "exact" : "DIVERGED";
    }
    const double steps_per_s =
        seconds > 0.0 ? static_cast<double>(steps) / seconds : 0.0;
    table.AddRow({v.name, TextTable::Num(seconds, "%.3f"),
                  TextTable::Num(steps_per_s, "%.1f"),
                  TextTable::Num(steps_per_s * cells / 1e6, "%.1f"),
                  TextTable::Num(seconds > 0.0 ? baseline_seconds / seconds
                                               : 0.0, "%.2fx"),
                  bytes > 0.0 ? TextTable::Num(gbs, "%.2f") : "-",
                  bytes > 0.0 ? TextTable::Num(flop_per_byte, "%.2f") : "-",
                  state});
  }

  table.Print();
  std::printf("\nbit-exactness: final states %s\n",
              states_agree ? "IDENTICAL across backends"
                           : "DIVERGED (BUG)");

  // Roofline: the kernels' modeled streaming traffic per wall second
  // against a measured single-thread STREAM triad. Far below peak at
  // a low FLOP/byte means overhead-bound, near peak means the kernels
  // are genuinely bandwidth-limited (the regime the accelerator
  // paper's HMC scaling argument assumes).
  if (roofline_gbs > 0.0) {
    const double triad = MeasureTriadGBs();
    std::printf("roofline: stream triad peak %.1f GB/s; %s streams "
                "%.2f GB/s (%.0f%% of peak) at %.2f FLOP/byte\n",
                triad, roofline_name.c_str(), roofline_gbs,
                triad > 0.0 ? 100.0 * roofline_gbs / triad : 0.0,
                roofline_flop_per_byte);
  }

  bool ok = states_agree;
  if (check && blocked_seconds > scalar_seconds) {
    std::printf("check FAILED: blocked kernels (%.3fs) slower than the "
                "scalar path (%.3fs)\n", blocked_seconds, scalar_seconds);
    ok = false;
  } else if (check) {
    std::printf("check passed: blocked %.2fx vs scalar\n",
                scalar_seconds / blocked_seconds);
  }

  // Simd-speedup gate: the vector kernels must hold a >=1.5x margin
  // over the blocked row kernels on the double datapath (the widest
  // vectors and the precision the exactness contract is written for),
  // measured on this run's model/grid with --precision forced to
  // double. Like the guard gate below, blocked and simd chunks are
  // interleaved ABBA and the per-round ratios medianed per ordering,
  // then combined geometrically, so clock drift and cache warm-up
  // cancel. The same run doubles as an exactness check: with two-
  // rounding MulAdd kernels the simd state must match blocked
  // bit-for-bit. Skipped on the generic backend — its scalar-width
  // "vectors" exist for portability, not speed.
  if (check && std::strcmp(SimdIsaName(), "generic") != 0) {
    const auto blocked_engine = Build(program, "soa", "double", "blocked");
    const auto simd_engine = Build(program, "soa", "double", "simd");
    const auto timed = [](Engine* engine, std::uint64_t n) {
      const auto start = std::chrono::steady_clock::now();
      engine->Run(n);
      return std::chrono::duration<double>(
                 std::chrono::steady_clock::now() - start)
          .count();
    };
    // Calibrate a ~25ms blocked chunk so each round is long enough
    // for the steady clock yet short enough that 24 rounds stay
    // CI-friendly. The simd engine steps the same probe count so the
    // final-state comparison below sees both engines at the same
    // simulation time.
    const double probe = timed(blocked_engine.get(), steps);
    timed(simd_engine.get(), steps);
    const std::uint64_t chunk_steps = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               0.025 / std::max(probe / static_cast<double>(steps),
                                1e-9)));
    const auto median = [](std::vector<double>* v) {
      std::sort(v->begin(), v->end());
      return (*v)[v->size() / 2];
    };
    std::vector<double> simd_second;
    std::vector<double> simd_first;
    for (int round = 0; round < 24; ++round) {
      double blocked_s;
      double simd_s;
      if (round % 2 == 0) {
        blocked_s = timed(blocked_engine.get(), chunk_steps);
        simd_s = timed(simd_engine.get(), chunk_steps);
      } else {
        simd_s = timed(simd_engine.get(), chunk_steps);
        blocked_s = timed(blocked_engine.get(), chunk_steps);
      }
      if (round < 4) {
        continue;  // discard warm-up rounds (caches, cpu frequency)
      }
      (round % 2 == 0 ? simd_second : simd_first)
          .push_back(blocked_s / simd_s);
    }
    const double speedup =
        std::sqrt(median(&simd_second) * median(&simd_first));
    std::printf("simd kernels (double, %s): %.2fx vs blocked\n",
                SimdIsaName(), speedup);
    if (speedup < 1.5) {
      std::printf("check FAILED: simd kernels %.2fx vs blocked, below "
                  "the 1.5x gate\n", speedup);
      ok = false;
    }
    // Both engines stepped the same total; the states must agree.
    if (StateChecksum(*simd_engine) != StateChecksum(*blocked_engine)) {
      std::printf("check FAILED: simd double state diverged from "
                  "blocked\n");
      ok = false;
    }
  }

  // Fused-scaling gate: a persistent 4-shard simd team must hold a
  // >=2.5x margin over single-thread simd on a 256x256 double grid —
  // the regime the tentpole fused path exists for. Threads only buy
  // that margin on real parallel hardware, so the gate requires >= 4
  // physical cores (unique (physical id, core id) pairs; SMT siblings
  // share execution ports) and reports a skip otherwise instead of
  // failing on laptops and small CI runners. Same ABBA-interleaved
  // order-split-median protocol as the gates above, and the same
  // exactness rider: after identical step counts the fused state must
  // match the serial one bit-for-bit.
  if (check) {
    const int cores = CountPhysicalCores();
    if (cores < 4) {
      std::printf("fused-scaling gate skipped: %d physical core(s), "
                  "need >= 4\n", cores);
    } else {
      ModelConfig gate_mc = mc;
      gate_mc.rows = std::max<std::size_t>(mc.rows, 256);
      gate_mc.cols = std::max<std::size_t>(mc.cols, 256);
      const SolverProgram gate_program =
          MakeProgram(*MakeModel(model_name, gate_mc));
      const auto serial_engine =
          Build(gate_program, "soa", "double", "simd");
      const auto fused_engine = Build(gate_program, "soa", "double", "simd");
      TeamOptions team_options;
      team_options.shards = 4;
      ShardTeam team(fused_engine.get(), team_options);
      const auto timed_serial = [&](std::uint64_t n) {
        const auto start = std::chrono::steady_clock::now();
        serial_engine->Run(n);
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
            .count();
      };
      const auto timed_fused = [&](std::uint64_t n) {
        const auto start = std::chrono::steady_clock::now();
        team.Run(n);
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
            .count();
      };
      // Calibrate a ~25ms serial chunk (the slower side).
      const std::uint64_t gate_probe_steps = quick ? 10 : 40;
      const double probe = timed_serial(gate_probe_steps);
      timed_fused(gate_probe_steps);
      const std::uint64_t chunk_steps = std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(
                 0.025 /
                 std::max(probe / static_cast<double>(gate_probe_steps),
                          1e-9)));
      const auto median = [](std::vector<double>* v) {
        std::sort(v->begin(), v->end());
        return (*v)[v->size() / 2];
      };
      std::vector<double> fused_second;
      std::vector<double> fused_first;
      for (int round = 0; round < 24; ++round) {
        double serial_s;
        double fused_s;
        if (round % 2 == 0) {
          serial_s = timed_serial(chunk_steps);
          fused_s = timed_fused(chunk_steps);
        } else {
          fused_s = timed_fused(chunk_steps);
          serial_s = timed_serial(chunk_steps);
        }
        if (round < 4) {
          continue;  // discard warm-up rounds (caches, cpu frequency)
        }
        (round % 2 == 0 ? fused_second : fused_first)
            .push_back(serial_s / fused_s);
      }
      const double speedup =
          std::sqrt(median(&fused_second) * median(&fused_first));
      std::printf("fused simd team x4 (%zux%zu double, %d cores): "
                  "%.2fx vs single-thread simd\n", gate_mc.rows,
                  gate_mc.cols, cores, speedup);
      if (speedup < 2.5) {
        std::printf("check FAILED: fused team %.2fx vs single-thread "
                    "simd, below the 2.5x gate\n", speedup);
        ok = false;
      }
      if (StateChecksum(*fused_engine) != StateChecksum(*serial_engine)) {
        std::printf("check FAILED: fused team state diverged from "
                    "single-thread simd\n");
        ok = false;
      }
    }
  }

  // Packed-layout gate: the simd kernels gather LUT coefficients from
  // the packed SoA lanes (l_p/a1/a2/a3, expansion point recomputed
  // from the index) instead of striding across the 9-field AoS
  // TaylorTuple array. On a LUT-bound sweep — a table far beyond the
  // LLC, walked coherently as states drift through the sampled range —
  // the packed lanes move 32 useful bytes per lookup where the tuple
  // stride drags the full 72-byte entry through the cache for 40
  // useful bytes. This times exactly that difference with identical
  // delta-cubic arithmetic on both sides (the accumulated sums must
  // agree bit-for-bit, since the packed side recomputes p with the
  // builder's own min_p + i*spacing expression) and requires the
  // packed layout to hold >=1.15x. Plain scalar C++ on purpose: the
  // advantage is a property of the memory traffic, not of any ISA's
  // gather instruction. Same ABBA order-split-median protocol as the
  // gates above.
  if (check) {
    const std::size_t entries = std::size_t{1} << (quick ? 20 : 21);
    const double min_p = -4.0;
    const double spacing = 8.0 / static_cast<double>(entries);
    std::vector<TaylorTuple> tuples(entries);
    std::vector<double> lane_lp(entries);
    std::vector<double> lane_a1(entries);
    std::vector<double> lane_a2(entries);
    std::vector<double> lane_a3(entries);
    for (std::size_t i = 0; i < entries; ++i) {
      TaylorTuple& t = tuples[i];
      t.p = min_p + static_cast<double>(i) * spacing;
      t.l_p = std::tanh(t.p);
      const double sech2 = 1.0 - t.l_p * t.l_p;
      t.a1 = sech2;
      t.a2 = -t.l_p * sech2;
      t.a3 = sech2 * (3.0 * t.l_p * t.l_p - 1.0) / 3.0;
      // Unread by either side's arithmetic — the monomial fields are
      // the freight the AoS layout pays to stream and the packed
      // layout leaves behind.
      t.c0 = t.a1;
      t.c1 = t.a2;
      t.c2 = t.a3;
      t.c3 = t.l_p;
      lane_lp[i] = t.l_p;
      lane_a1[i] = t.a1;
      lane_a2[i] = t.a2;
      lane_a3[i] = t.a3;
    }
    // One pass sweeps x coherently through the sampled range, hitting
    // every entry mid-interval; the index math mirrors the kernels'.
    const auto pass_tuple = [&] {
      double acc = 0.0;
      for (std::size_t i = 0; i < entries; ++i) {
        const double x =
            min_p + (static_cast<double>(i) + 0.375) * spacing;
        const auto idx =
            static_cast<std::size_t>((x - min_p) / spacing);
        const TaylorTuple& t = tuples[idx];
        const double d = x - t.p;
        acc += t.l_p + d * (t.a1 + d * (t.a2 + d * t.a3));
      }
      return acc;
    };
    const auto pass_packed = [&] {
      double acc = 0.0;
      for (std::size_t i = 0; i < entries; ++i) {
        const double x =
            min_p + (static_cast<double>(i) + 0.375) * spacing;
        const auto idx =
            static_cast<std::size_t>((x - min_p) / spacing);
        const double p = min_p + static_cast<double>(idx) * spacing;
        const double d = x - p;
        acc += lane_lp[idx] +
               d * (lane_a1[idx] + d * (lane_a2[idx] + d * lane_a3[idx]));
      }
      return acc;
    };
    double tuple_sum = 0.0;
    double packed_sum = 0.0;
    const auto timed = [&](bool packed, int reps) {
      const auto start = std::chrono::steady_clock::now();
      double acc = 0.0;
      for (int r = 0; r < reps; ++r) {
        acc += packed ? pass_packed() : pass_tuple();
      }
      (packed ? packed_sum : tuple_sum) = acc;
      return std::chrono::duration<double>(
                 std::chrono::steady_clock::now() - start)
          .count();
    };
    // Calibrate a ~25ms tuple chunk (the slower side) so each round is
    // long enough for the steady clock yet 24 rounds stay CI-friendly.
    const double probe = timed(false, 1);
    const int reps = std::max(
        1, static_cast<int>(0.025 / std::max(probe, 1e-9)));
    const auto median = [](std::vector<double>* v) {
      std::sort(v->begin(), v->end());
      return (*v)[v->size() / 2];
    };
    std::vector<double> packed_second;
    std::vector<double> packed_first;
    for (int round = 0; round < 24; ++round) {
      double tuple_s;
      double packed_s;
      if (round % 2 == 0) {
        tuple_s = timed(false, reps);
        packed_s = timed(true, reps);
      } else {
        packed_s = timed(true, reps);
        tuple_s = timed(false, reps);
      }
      if (round < 4) {
        continue;  // discard warm-up rounds (caches, cpu frequency)
      }
      (round % 2 == 0 ? packed_second : packed_first)
          .push_back(tuple_s / packed_s);
    }
    const double speedup =
        std::sqrt(median(&packed_second) * median(&packed_first));
    std::printf("packed LUT lanes vs tuple stride (%zu-entry table): "
                "%.2fx\n", entries, speedup);
    if (speedup < 1.15) {
      std::printf("check FAILED: packed-layout reads %.2fx vs the tuple "
                  "stride, below the 1.15x gate\n", speedup);
      ok = false;
    }
    if (tuple_sum != packed_sum) {
      std::printf("check FAILED: packed-layout cubic diverged from the "
                  "tuple evaluation (%.17g vs %.17g)\n", packed_sum,
                  tuple_sum);
      ok = false;
    }
  }

  // Guard-overhead gate: time the fixed simd path — the default, where
  // every vector op checks its lanes for clamps — with and without an
  // installed Fixed32 saturation counter. The counter is only touched
  // on the rare clamping branch, so even counter-ON must stay within
  // 2% of counter-OFF — which bounds the guards-off cost of the
  // instrumentation from above. The two flavors are interleaved as
  // many small ABBA-ordered chunks and compared by total time, so
  // clock drift and noisy neighbors hit both flavors equally. Only
  // measured under --check: the multi-second gate has no place in the
  // plain smoke run.
  if (check) {
    HealthGuard guard;
    const auto engine = Build(program, "soa", "fixed", "simd");
    const auto timed = [&](HealthGuard* sink, std::uint64_t n) {
      ScopedSatCounter sat(sink);
      const auto start = std::chrono::steady_clock::now();
      engine->Run(n);
      return std::chrono::duration<double>(
                 std::chrono::steady_clock::now() - start)
          .count();
    };
    // Calibrate a ~50ms chunk; a 2% budget is unmeasurable on
    // microsecond regions.
    const double probe = timed(nullptr, steps);
    const std::uint64_t chunk_steps = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               0.05 / std::max(probe / static_cast<double>(steps),
                               1e-9)));
    // Each round times one chunk of each flavor and contributes one
    // with/without ratio; medians are immune to the occasional chunk
    // a noisy neighbor stalls. Whichever flavor runs second in a
    // round inherits warmed caches, so the two orderings are medianed
    // separately and combined geometrically to cancel that bias.
    const auto median = [](std::vector<double>* v) {
      std::sort(v->begin(), v->end());
      return (*v)[v->size() / 2];
    };
    std::vector<double> on_second;
    std::vector<double> on_first;
    for (int round = 0; round < 44; ++round) {
      const double a = timed(round % 2 == 0 ? nullptr : &guard,
                             chunk_steps);
      const double b = timed(round % 2 == 0 ? &guard : nullptr,
                             chunk_steps);
      if (round < 4) {
        continue;  // discard warm-up rounds (caches, cpu frequency)
      }
      (round % 2 == 0 ? on_second : on_first)
          .push_back(round % 2 == 0 ? b / a : a / b);
    }
    const double overhead =
        std::sqrt(median(&on_second) * median(&on_first)) - 1.0;
    std::printf("guard instrumentation overhead (fixed simd, counter "
                "installed): %+.2f%%, %llu sat events\n", overhead * 100.0,
                static_cast<unsigned long long>(guard.SatEvents()));
    if (overhead > 0.02) {
      std::printf("check FAILED: guard instrumentation overhead %.2f%% "
                  "exceeds the 2%% budget\n", overhead * 100.0);
      ok = false;
    }
  }

  // Metrics-overhead gate: a live MetricsEmitter sampling the bound
  // stats every 25 ms (10x the 250 ms default — an aggressive live
  // dashboard) must cost the fixed blocked path less than 2%. The
  // compute path is identical either way — the kernels' counter
  // updates always run — so this measures the real interference:
  // snapshotting + flushing JSONL on the sampler thread (pure CPU
  // stealing on a single-hardware-thread host, cache-line traffic
  // otherwise). Chunks are calibrated to ~200 ms so several samples
  // land inside every timed region; same ABBA-interleaved,
  // order-split-median protocol as the gates above.
  if (check) {
    const auto engine = Build(program, "soa", "fixed", "blocked");
    StatRegistry registry;
    engine->BindStats(&registry, "");
    const std::string sink = "bench_kernels_overhead.metrics.jsonl";
    const auto timed = [&](bool metrics_on, std::uint64_t n) {
      std::unique_ptr<MetricsEmitter> emitter;
      if (metrics_on) {
        MetricsOptions options;
        options.path = sink;
        options.interval_ms = 25;
        emitter = std::make_unique<MetricsEmitter>(&registry, options);
        if (!emitter->Start()) {
          CENN_FATAL("metrics gate: cannot open '", sink, "'");
        }
      }
      const auto start = std::chrono::steady_clock::now();
      engine->Run(n);
      const double seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      return seconds;  // emitter stops (and writes its exit line) here
    };
    const double probe = timed(false, steps);
    const std::uint64_t chunk_steps = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               0.2 / std::max(probe / static_cast<double>(steps),
                              1e-9)));
    const auto median = [](std::vector<double>* v) {
      std::sort(v->begin(), v->end());
      return (*v)[v->size() / 2];
    };
    std::vector<double> on_second;
    std::vector<double> on_first;
    for (int round = 0; round < 24; ++round) {
      const double a = timed(round % 2 != 0, chunk_steps);
      const double b = timed(round % 2 == 0, chunk_steps);
      if (round < 4) {
        continue;  // discard warm-up rounds (caches, cpu frequency)
      }
      (round % 2 == 0 ? on_second : on_first)
          .push_back(round % 2 == 0 ? b / a : a / b);
    }
    std::remove(sink.c_str());
    const double overhead =
        std::sqrt(median(&on_second) * median(&on_first)) - 1.0;
    std::printf("live-metrics overhead (fixed blocked, 25 ms sampling): "
                "%+.2f%%\n", overhead * 100.0);
    if (overhead > 0.02) {
      std::printf("check FAILED: live-metrics overhead %.2f%% exceeds "
                  "the 2%% budget\n", overhead * 100.0);
      ok = false;
    }
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace cenn

int
main(int argc, char** argv)
{
  return cenn::BenchMain(argc, argv);
}
