// Helpers shared by the workloads: timing and percentiles, the span
// recorder, pinned-output checks and the machine description.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <thread>

#include "bench.h"
#include "kernels/soa_simd.h"
#include "obs/trace.h"
#include "runtime/job_spec.h"

namespace perfbench {

double
SecondsSince(Clock::time_point t0)
{
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
Ms(Clock::time_point a, Clock::time_point b)
{
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double
Percentile(std::vector<double> values, double q)
{
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double
Median(std::vector<double> values)
{
  return Percentile(std::move(values), 0.5);
}

double
PeakRssMb()
{
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void
ResetPeakRss()
{
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.close();
  static std::once_flag warned;
  if (!out) {
    std::call_once(warned, [] {
      std::cerr << "perfbench: cannot reset the peak-RSS mark; per-pass "
                   "peak RSS reads the process peak\n";
    });
  }
}

double
PassPeakRssMb()
{
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

void
Report::Problem(const std::string& what)
{
  correct = false;
  std::cerr << "perfbench: CHECK FAILED: " << what << "\n";
}

void
SetTraceOverhead(const Report& untraced, const Report& traced, Report* report)
{
  for (const auto& [name, value] : traced.metrics) {
    const auto it = untraced.metrics.find(name);
    const double base = it == untraced.metrics.end() ? 0.0 : it->second.first;
    report->Set("obs.trace_overhead_frac." + name,
                base == 0.0 ? 0.0 : (base - value.first) / base, "frac");
  }
}

bool
IsFixed(const cenn::JobSpec& spec)
{
  return spec.exec.precision.empty() || spec.exec.precision == "fixed";
}

cenn::JobSpec
SpecFromKeys(const SpecKeys& keys)
{
  cenn::JobSpecBuilder builder;
  for (const auto& [key, value] : keys) {
    builder.Apply(key, value);
  }
  std::vector<cenn::JobSpecError> errors = builder.Errors();
  cenn::ValidateJobSpec(builder.Spec(), &errors);
  if (!errors.empty()) {
    std::cerr << "perfbench: bad generated spec: "
              << cenn::FormatJobSpecErrors(errors) << "\n";
    std::exit(2);
  }
  return builder.Spec();
}

// ---------------------------------------------------------------- pins

void
CheckPinned(const Options& options, Report* report)
{
  if (options.seed != kPinnedSeed || options.smoke) {
    return;
  }
  const std::string path = options.data_dir + "/pinned.txt";
  std::ifstream in(path);
  if (!in) {
    report->Problem("cannot read " + path);
    return;
  }
  std::map<std::string, std::uint64_t> pinned;
  std::string workload;
  std::string key;
  std::uint64_t value = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream fields(line);
    if (fields >> workload >> key >> value && workload == options.workload) {
      pinned[key] = value;
    }
  }
  for (const auto& [name, got] : report->observed) {
    const auto it = pinned.find(name);
    // Each message carries the observed value in pinned.txt's own
    // "workload key value" form, so the file can be regenerated from
    // a failing run's stderr.
    const std::string line =
        options.workload + " " + name + " " + std::to_string(got);
    if (it == pinned.end()) {
      report->Problem("no pinned value: " + line);
    } else if (it->second != got) {
      report->Problem("pinned " + std::to_string(it->second) +
                      ", observed: " + line);
    }
  }
}

// --------------------------------------------------------------- spans

namespace {

std::uint64_t
NowNs()
{
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/** One timed call into a layer, recorded by the benchmark's code. */
struct Span {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  /** Index of the enclosing span on the same thread; -1 = root. */
  std::int64_t parent = -1;
  /** Job or request id the span belongs to (0 = none). */
  std::uint64_t id = 0;
  std::uint32_t thread = 0;
};

struct SpanStore {
  std::mutex mu;
  std::vector<Span> spans;
  std::uint32_t next_thread = 0;
};

SpanStore&
Store()
{
  static SpanStore store;
  return store;
}

std::atomic<bool> g_spans_enabled{false};
thread_local std::int64_t t_open_span = -1;
thread_local std::int64_t t_thread_id = -1;

}  // namespace

void
EnableSpans(bool on)
{
  g_spans_enabled.store(on, std::memory_order_relaxed);
}

void
ClearSpans()
{
  std::lock_guard<std::mutex> lock(Store().mu);
  Store().spans.clear();
}

ScopedSpan::ScopedSpan(const char* name, std::uint64_t id)
{
  if (!g_spans_enabled.load(std::memory_order_relaxed)) {
    return;
  }
  SpanStore& store = Store();
  std::lock_guard<std::mutex> lock(store.mu);
  if (t_thread_id < 0) {
    t_thread_id = store.next_thread++;
  }
  Span span;
  span.name = name;
  span.parent = t_open_span;
  span.id = id;
  span.thread = static_cast<std::uint32_t>(t_thread_id);
  index_ = static_cast<std::int64_t>(store.spans.size());
  store.spans.push_back(span);
  t_open_span = index_;
  store.spans.back().start_ns = NowNs();
}

ScopedSpan::~ScopedSpan()
{
  if (index_ < 0) {
    return;
  }
  const std::uint64_t end = NowNs();
  SpanStore& store = Store();
  std::lock_guard<std::mutex> lock(store.mu);
  Span& span = store.spans[static_cast<std::size_t>(index_)];
  span.end_ns = end;
  t_open_span = span.parent;
}

void
ScopedSpan::Rename(const char* name)
{
  if (index_ < 0) {
    return;
  }
  std::lock_guard<std::mutex> lock(Store().mu);
  Store().spans[static_cast<std::size_t>(index_)].name = name;
}

std::map<std::string, SelfTime>
SpanSelfTimes()
{
  std::lock_guard<std::mutex> lock(Store().mu);
  const std::vector<Span>& spans = Store().spans;
  std::vector<double> child_ns(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::map<std::string, SelfTime> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SelfTime& t = out[spans[i].name];
    ++t.count;
    t.self_ns +=
        static_cast<double>(spans[i].end_ns - spans[i].start_ns) - child_ns[i];
  }
  return out;
}

bool
WriteSpans(const std::string& path, const cenn::TraceSession* shard_trace)
{
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  std::lock_guard<std::mutex> lock(Store().mu);
  const std::vector<Span>& spans = Store().spans;
  const std::uint64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  out << "{\"traceEvents\":[\n";
  bool first = true;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (first ? "" : ",\n") << "{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread
        << ",\"ts\":" << static_cast<double>(s.start_ns - origin) / 1e3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
        << ",\"args\":{\"span\":" << i << ",\"parent\":" << s.parent
        << ",\"id\":" << s.id << "}}";
    first = false;
  }
  if (shard_trace != nullptr) {
    // Shard-phase events from SessionConfig::trace, on their own pid.
    for (const cenn::TraceEvent& e : shard_trace->Events()) {
      if (e.phase != 'X') {
        continue;
      }
      out << (first ? "" : ",\n") << "{\"name\":\"" << e.name
          << "\",\"ph\":\"X\",\"pid\":2,\"tid\":" << e.lane
          << ",\"ts\":"
          << (static_cast<double>(e.ts) - static_cast<double>(origin)) / 1e3
          << ",\"dur\":" << static_cast<double>(e.dur) / 1e3 << "}";
      first = false;
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

// ------------------------------------------------------------- machine

namespace {

std::string
ReadFirstLine(const std::string& path)
{
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

std::string
CpuModel()
{
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

/** Size string of the cpu0 cache at `level` (unified or data). */
std::string
CacheSize(int level)
{
  for (int index = 0; index < 8; ++index) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index);
    if (ReadFirstLine(dir + "/level") == std::to_string(level) &&
        ReadFirstLine(dir + "/type") != "Instruction") {
      return ReadFirstLine(dir + "/size");
    }
  }
  return "unknown";
}

std::string
EnvOr(const char* name, const char* fallback)
{
  const char* value = std::getenv(name);
  return value != nullptr ? value : fallback;
}

}  // namespace

std::string
MachineJson()
{
  std::ostringstream out;
  out << "{\"cpu\":\"" << CpuModel() << "\",\"nproc\":"
      << std::thread::hardware_concurrency() << ",\"l2_per_core\":\""
      << CacheSize(2) << "\",\"l3\":\"" << CacheSize(3)
      << "\",\"simd_isa\":\"" << cenn::SimdIsaName() << "\",\"build_type\":\""
      << CENN_PERFBENCH_BUILD_TYPE << "\",\"git_sha\":\""
      << EnvOr("PERFBENCH_GIT_SHA", "unknown") << "\",\"source_sha\":\""
      << EnvOr("PERFBENCH_SOURCE_SHA", "unknown") << "\"}";
  return out.str();
}

}  // namespace perfbench
