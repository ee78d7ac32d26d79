// serve_tenants: multi-tenant serving as cenn_serve users see it. An
// in-process SolverService (server defaults: 2 workers, guard on,
// checkpoint_every=64, default policy functional:fixed) behind the
// loopback TcpServer; one client connection submits on an evenly
// spaced open-loop schedule, and long-poll result connections (more
// than the workers, so the client adds no head-of-line wait) collect
// results. Latency runs from a submit's due time to its result.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "bench.h"
#include "runtime/batch_runner.h"
#include "serve/json.h"
#include "serve/service.h"
#include "serve/tcp_server.h"
#include "util/rng.h"

namespace perfbench {

namespace {

/** Offered load: about a third of the mix's capacity on the reference
 *  machine (2 workers, mean service time near 85 ms). */
constexpr double kRatePerS = 8.0;
/** The server's pool workers (the SolverService default). */
constexpr int kWorkers = 2;
constexpr int kPollers = 4;
/** Traffic segments per run (each on a freshly started server), and
 *  server set-ups per segment. */
constexpr int kSegments = 8;
constexpr int kSetups = 9;
/** A run is invalid when the client's p99 lateness against the submit
 *  schedule exceeds this share of the arrival gap: a submit later than
 *  half the gap lands nearer the next one's due time than its own, and
 *  the offered load is no longer evenly spaced. Timer wake-ups on the
 *  reference VM make the p99 about 5 ms (4% of the gap) even when the
 *  host is calm, and more when it is busy. */
constexpr double kMaxLateShare = 0.5;
const char* const kTenants[] = {"ana", "ben", "cy", "dee"};

/** Blocking newline-JSON client connection to the loopback server. */
class Connection
{
  public:
    explicit Connection(int port)
    {
      fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(static_cast<std::uint16_t>(port));
      ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
      if (fd_ < 0 || ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                               sizeof(addr)) != 0) {
        std::cerr << "perfbench: connect: " << std::strerror(errno) << "\n";
        std::exit(2);
      }
      const int one = 1;
      ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }

    ~Connection() { ::close(fd_); }

    Connection(const Connection&) = delete;
    Connection& operator=(const Connection&) = delete;

    /** Sends one request line and returns the parsed response line. */
    cenn::JsonValue RoundTrip(const std::string& request)
    {
      const std::string line = request + "\n";
      std::size_t sent = 0;
      while (sent < line.size()) {
        const ssize_t n = ::send(fd_, line.data() + sent, line.size() - sent,
                                 MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR) {
          continue;
        }
        if (n <= 0) {
          return {};
        }
        sent += static_cast<std::size_t>(n);
      }
      std::size_t newline;
      while ((newline = buffer_.find('\n')) == std::string::npos) {
        char chunk[4096];
        const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
        if (n < 0 && errno == EINTR) {
          continue;
        }
        if (n <= 0) {
          return {};
        }
        buffer_.append(chunk, static_cast<std::size_t>(n));
      }
      cenn::JsonValue value;
      std::string error;
      cenn::ParseJson(buffer_.substr(0, newline), &value, &error);
      buffer_.erase(0, newline + 1);
      return value;
    }

  private:
    int fd_ = -1;
    std::string buffer_;
};

/** One distinct spec the tenants submit. */
struct Variant {
  std::string key;   ///< canonical text (equal key = equal checksum)
  std::string json;  ///< the "spec" object of the submit line
  cenn::JobSpec spec;
  bool fixed = true;
};

/** One scheduled submit. */
struct Request {
  std::size_t variant = 0;
  const char* tenant = "";
};

/** What the client observed for one submit. */
struct Outcome {
  bool accepted = false;
  bool ok = false;
  double late_ms = 0.0;
  double latency_ms = 0.0;
  double wall_ms = 0.0;
  std::uint64_t checksum = 0;
};

/** Inline scenario text: a zoo file with its statements joined by ';'. */
std::string
InlineScenario(const std::string& path)
{
  std::ifstream in(path);
  std::string line;
  std::string out;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    out += (out.empty() ? "" : "; ") + line;
  }
  return out;
}

std::string
JsonString(const std::string& text)
{
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

Variant
MakeVariant(SpecKeys keys)
{
  Variant v;
  v.spec = SpecFromKeys(keys);
  v.fixed = IsFixed(v.spec);
  std::ostringstream json;
  json << "{";
  for (std::size_t i = 0; i < keys.size(); ++i) {
    json << (i ? "," : "") << JsonString(keys[i].first) << ":"
         << JsonString(keys[i].second);
    v.key += (i ? " " : "") + keys[i].first + "=" +
             (keys[i].first == "model_source" ? "<inline:" +
                  std::to_string(keys[i].second.size()) + ">"
                                              : keys[i].second);
  }
  json << "}";
  v.json = json.str();
  return v;
}

/** The spec catalogue and the seeded submit schedule. */
struct Traffic {
  std::vector<Variant> variants;
  std::vector<Request> requests;
};

Traffic
MakeTraffic(const Options& options, std::size_t count)
{
  Traffic traffic;
  cenn::Rng rng(options.seed * 0x9e3779b97f4a7c15ULL + 23);
  // Classes, by share of submits and run time here: C, explicit soa
  // jobs, 25%, about 30 ms; A, hand-coded models under the default
  // policy, 50%, and B, inline model_source= scenarios under the
  // default policy, 25%, both about 100 ms (steps set per model so they
  // match). p50 and p95 then both land inside the A+B mode. Jobs this
  // long average over the host's sub-second speed swings; at 25 ms per
  // job, run-to-run drift moved p95 by a third.
  std::vector<std::size_t> class_a, class_b, class_c;
  auto add = [&traffic](std::vector<std::size_t>* cls,
                        SpecKeys keys) {
    cls->push_back(traffic.variants.size());
    traffic.variants.push_back(MakeVariant(std::move(keys)));
  };
  const std::string heat = InlineScenario(options.root + "/zoo/heat.cenn");
  const std::string rd =
      InlineScenario(options.root + "/zoo/reaction_diffusion.cenn");
  // Three initial-condition seeds per spec, shared by all tenants.
  for (int k = 0; k < 3; ++k) {
    const std::string seed = std::to_string(1 + rng.NextU64() % 1000);
    add(&class_a, {{"model", "heat"}, {"rows", "32"}, {"cols", "32"},
                   {"steps", "800"}, {"seed", seed}});
    add(&class_a, {{"model", "fisher"}, {"rows", "32"}, {"cols", "32"},
                   {"steps", "448"}, {"seed", seed}});
    add(&class_a, {{"model", "reaction_diffusion"}, {"rows", "32"},
                   {"cols", "32"}, {"steps", "288"}, {"seed", seed}});
    add(&class_b, {{"model_source", heat}, {"rows", "32"}, {"cols", "32"},
                   {"steps", "800"}, {"seed", seed}});
    add(&class_b, {{"model_source", rd}, {"rows", "32"}, {"cols", "32"},
                   {"steps", "288"}, {"seed", seed}});
    for (const char* model : {"reaction_diffusion", "izhikevich"}) {
      for (const char* exec : {"soa:double", "soa:fixed"}) {
        add(&class_c, {{"model", model}, {"rows", "48"}, {"cols", "48"},
                       {"steps", "512"}, {"exec", exec}, {"seed", seed}});
      }
    }
  }
  // Every segment gets exact class shares, and each class cycles
  // through its specs, so every seed and every segment offers the same
  // mix: a drawn mix moved the segment rates and medians with the seed.
  // The seed sets the order within a segment, the tenants and the
  // initial-condition seeds.
  const std::vector<std::size_t>* pools[] = {&class_c, &class_a, &class_b};
  std::size_t next[] = {0, 0, 0};
  for (int segment = 0; segment < kSegments; ++segment) {
    const std::size_t begin = count * segment / kSegments;
    const std::size_t end = count * (segment + 1) / kSegments;
    for (std::size_t i = begin; i < end; ++i) {
      const std::size_t share = 100 * (i - begin) / (end - begin);
      const int cls = share < 25 ? 0 : (share < 75 ? 1 : 2);
      Request r;
      r.variant = (*pools[cls])[next[cls]++ % pools[cls]->size()];
      r.tenant = kTenants[rng.NextU64() % 4];
      traffic.requests.push_back(r);
    }
    for (std::size_t i = end; i > begin + 1; --i) {
      std::swap(traffic.requests[i - 1],
                traffic.requests[begin + rng.NextU64() % (i - begin)]);
    }
  }
  return traffic;
}

/** A running service, its transport and the client's connections. */
struct Server {
  Server() = default;
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  std::unique_ptr<cenn::SolverService> service;
  std::unique_ptr<cenn::TcpServer> tcp;
  std::unique_ptr<Connection> submit;
  std::vector<std::unique_ptr<Connection>> pollers;

  ~Server()
  {
      submit.reset();
      pollers.clear();
      if (tcp != nullptr) {
        tcp->Stop();
      }
      if (service != nullptr) {
        service->Drain();
      }
  }
};

std::unique_ptr<Server>
StartServer(const std::string& work_dir)
{
  auto server = std::make_unique<Server>();
  cenn::ServiceOptions service_options;
  service_options.work_dir = work_dir;
  server->service = std::make_unique<cenn::SolverService>(service_options);
  cenn::SolverService* service = server->service.get();
  server->tcp = std::make_unique<cenn::TcpServer>(
      cenn::TcpServerOptions{},
      [service](const std::string& line, std::string* response) {
        return service->HandleLine(line, response);
      },
      [service] { service->OnConnection(); });
  std::string error;
  if (!server->tcp->Start(&error)) {
    std::cerr << "perfbench: tcp start: " << error << "\n";
    std::exit(2);
  }
  const int port = server->tcp->Port();
  server->submit = std::make_unique<Connection>(port);
  for (int i = 0; i < kPollers; ++i) {
    server->pollers.push_back(std::make_unique<Connection>(port));
  }
  return server;
}

/** Drives one open-loop pass over `requests`; returns per-submit outcomes. */
std::vector<Outcome>
DriveTraffic(Server& server, const Traffic& traffic,
             const std::vector<Request>& requests, double* span_s)
{
  std::vector<Outcome> outcomes(requests.size());
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::pair<std::size_t, std::string>> pending;  // index, job id
  bool submitting = true;
  std::vector<Clock::time_point> due(requests.size());

  const auto t0 = Clock::now() + std::chrono::milliseconds(5);
  std::vector<std::thread> pollers;
  Clock::time_point last_result = t0;
  for (int p = 0; p < kPollers; ++p) {
    pollers.emplace_back([&, p] {
      Connection& conn = *server.pollers[static_cast<std::size_t>(p)];
      for (;;) {
        std::pair<std::size_t, std::string> item;
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return !pending.empty() || !submitting; });
          if (pending.empty()) {
            return;
          }
          item = pending.front();
          pending.pop_front();
        }
        cenn::JsonValue response;
        {
          ScopedSpan span("serve.result_wait", item.first + 1);
          response = conn.RoundTrip("{\"op\":\"result\",\"job\":\"" +
                                    item.second +
                                    "\",\"wait\":true,\"timeout_ms\":120000}");
        }
        const auto arrived = Clock::now();
        Outcome& out = outcomes[item.first];
        out.latency_ms = Ms(due[item.first], arrived);
        out.ok = response.GetBool("ok", false) &&
                 response.GetString("status") == "ok";
        out.wall_ms = response.GetNumber("wall_ms", 0.0);
        out.checksum =
            std::strtoull(response.GetString("checksum").c_str(), nullptr, 10);
        std::lock_guard<std::mutex> lock(mu);
        last_result = std::max(last_result, arrived);
      }
    });
  }

  for (std::size_t i = 0; i < requests.size(); ++i) {
    due[i] = t0 + std::chrono::microseconds(static_cast<std::int64_t>(
                      1e6 * static_cast<double>(i) / kRatePerS));
    std::this_thread::sleep_until(due[i]);
    const Variant& v = traffic.variants[requests[i].variant];
    outcomes[i].late_ms = Ms(due[i], Clock::now());
    cenn::JsonValue response;
    {
      ScopedSpan span("serve.submit", i + 1);
      response = server.submit->RoundTrip(
          std::string("{\"op\":\"submit\",\"tenant\":\"") +
          requests[i].tenant + "\",\"spec\":" + v.json + "}");
    }
    outcomes[i].accepted = response.GetBool("ok", false);
    if (outcomes[i].accepted) {
      std::lock_guard<std::mutex> lock(mu);
      pending.emplace_back(i, response.GetString("job"));
      cv.notify_one();
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    submitting = false;
  }
  cv.notify_all();
  for (std::thread& t : pollers) {
    t.join();
  }
  *span_s = Ms(t0, last_result) / 1e3;
  return outcomes;
}

/** Submits and set-up samples of one measured pass (or several). */
struct Pass {
  std::vector<Request> requests;
  std::vector<Outcome> outcomes;  ///< one per request
  /** End of each segment in `outcomes`. */
  std::vector<std::size_t> segment_end;
  std::vector<double> setup_s;
  double span_s = 0.0;
  double rejected = 0.0;
  double retries = 0.0;
  double peak_rss_mb = 0.0;

  void Append(const Pass& other)
  {
      for (std::size_t end : other.segment_end) {
        segment_end.push_back(outcomes.size() + end);
      }
      requests.insert(requests.end(), other.requests.begin(),
                      other.requests.end());
      outcomes.insert(outcomes.end(), other.outcomes.begin(),
                      other.outcomes.end());
      setup_s.insert(setup_s.end(), other.setup_s.begin(),
                     other.setup_s.end());
      span_s += other.span_s;
      rejected += other.rejected;
      retries += other.retries;
      peak_rss_mb = std::max(peak_rss_mb, other.peak_rss_mb);
  }
};

/** Ok results of a pass, in submit order. */
struct PassFigures {
  std::vector<double> latency_ms;
  std::vector<double> wall_ms;
  std::vector<double> late_ms;
};

/**
 * Checks and end-to-end metrics for one pass. Latencies, capacity and
 * rates are taken per segment and the run reports the median over
 * segments, so a burst of host slowness in part of a run does not move
 * its figures.
 */
PassFigures
ScorePass(const Traffic& traffic, const Pass& pass,
          std::map<std::string, std::uint64_t>* checksums, Report* report)
{
  PassFigures f;
  std::vector<double> seg_p50, seg_p95, seg_capacity, seg_dbl, seg_fix;
  std::size_t begin = 0;
  for (const std::size_t end : pass.segment_end) {
    std::vector<double> latency_ms;
    double busy_s = 0.0;
    double dbl_updates = 0, dbl_s = 0, fix_updates = 0, fix_s = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const Outcome& o = pass.outcomes[i];
      const Variant& v = traffic.variants[pass.requests[i].variant];
      ++report->attempted;
      f.late_ms.push_back(o.late_ms);
      bool ok = o.accepted && o.ok;
      if (ok) {
        const auto [it, fresh] = checksums->emplace(v.key, o.checksum);
        if (!fresh && it->second != o.checksum) {
          report->Problem("equal specs returned different checksums: " +
                          v.key);
          ok = false;
        }
      } else {
        report->Problem("submit " + std::to_string(i) + " (" + v.key + ") " +
                        (o.accepted ? "did not end ok" : "was rejected"));
      }
      if (!ok) {
        ++report->failed;
        continue;
      }
      latency_ms.push_back(o.latency_ms);
      busy_s += o.wall_ms / 1e3;
      f.latency_ms.push_back(o.latency_ms);
      f.wall_ms.push_back(o.wall_ms);
      const double updates =
          static_cast<double>(Cells(v.spec) * v.spec.steps);
      (v.fixed ? fix_updates : dbl_updates) += updates;
      (v.fixed ? fix_s : dbl_s) += o.wall_ms / 1e3;
    }
    seg_p50.push_back(Percentile(latency_ms, 0.50));
    seg_p95.push_back(Percentile(latency_ms, 0.95));
    // Service capacity: jobs per second the workers finish when busy.
    seg_capacity.push_back(
        busy_s > 0.0 ? kWorkers * static_cast<double>(latency_ms.size()) /
                           busy_s
                     : 0.0);
    seg_dbl.push_back(dbl_s > 0.0 ? dbl_updates / dbl_s / 1e6 : 0.0);
    seg_fix.push_back(fix_s > 0.0 ? fix_updates / fix_s / 1e6 : 0.0);
    begin = end;
  }
  const double late_p99 = Percentile(f.late_ms, 0.99);
  const double gap_ms = 1e3 / kRatePerS;
  if (late_p99 > kMaxLateShare * gap_ms) {
    report->Problem("client fell behind its schedule: p99 lateness " +
                    std::to_string(late_p99) + " ms against a " +
                    std::to_string(gap_ms) + " ms arrival gap");
  }
  report->Set("setup_s", Median(pass.setup_s), "s");
  report->Set("mcups_double", Median(seg_dbl), "Mcell/s");
  report->Set("mcups_fixed", Median(seg_fix), "Mcell/s");
  report->Set("jobs_per_s", Median(seg_capacity), "1/s");
  report->Set("latency_p50_ms", Median(seg_p50), "ms");
  report->Set("latency_p95_ms", Median(seg_p95), "ms");
  report->Set("peak_rss_mb", pass.peak_rss_mb, "MiB");
  std::cerr << "perfbench: serve_tenants latency over " << f.latency_ms.size()
            << " results in " << pass.segment_end.size()
            << " segments; client p99 lateness " << late_p99 << " ms\n";
  return f;
}

/**
 * Runs `requests` in `segments` consecutive segments. Each segment sets
 * a server up kSetups times (keeping the last) and then submits its
 * share of the schedule. Set-up takes about 0.2 ms and the host's
 * state moves it by half within seconds, so its samples are spread
 * over the whole run rather than taken in one burst at the start.
 */
Pass
RunSegments(const std::string& work_dir, const Traffic& traffic,
            const std::vector<Request>& requests, int segments, bool ping)
{
  Pass pass;
  pass.requests = requests;
  for (int k = 0; k < segments; ++k) {
    const std::vector<Request> part(
        requests.begin() + requests.size() * k / segments,
        requests.begin() + requests.size() * (k + 1) / segments);
    std::unique_ptr<Server> server;
    for (int i = 0; i < kSetups; ++i) {
      server.reset();
      const auto t0 = Clock::now();
      server = StartServer(work_dir);
      pass.setup_s.push_back(SecondsSince(t0));
    }
    for (int i = 0; ping && k == 0 && i < 200; ++i) {
      ScopedSpan span("serve.ping");
      server->submit->RoundTrip("{\"op\":\"ping\"}");
    }
    double span_s = 0.0;
    const std::vector<Outcome> outcomes =
        DriveTraffic(*server, traffic, part, &span_s);
    pass.outcomes.insert(pass.outcomes.end(), outcomes.begin(),
                         outcomes.end());
    pass.segment_end.push_back(pass.outcomes.size());
    pass.span_s += span_s;
    const cenn::StatRegistry& stats = server->service->Stats();
    pass.rejected += stats.Value("serve.rejected_quota") +
                     stats.Value("serve.rejected_busy") +
                     stats.Value("serve.rejected_invalid") +
                     stats.Value("serve.rejected_draining");
    pass.retries += stats.Value("serve.retries");
  }
  return pass;
}

/** The catalogue as named jobs ("v<index>"), for BatchRunner and replay. */
std::vector<cenn::JobSpec>
CatalogueJobs(const Traffic& traffic)
{
  std::vector<cenn::JobSpec> jobs;
  for (const Variant& v : traffic.variants) {
    jobs.push_back(v.spec);
    jobs.back().name = "v";
    jobs.back().name += std::to_string(jobs.size() - 1);
  }
  return jobs;
}

/** serve == batch: every spec in the catalogue through BatchRunner. */
void
CheckAgainstBatch(const Traffic& traffic,
                  const std::map<std::string, std::uint64_t>& checksums,
                  const std::string& out_dir, Report* report)
{
  const std::vector<cenn::JobSpec> jobs = CatalogueJobs(traffic);
  cenn::BatchOptions batch;
  batch.out_dir = out_dir;
  batch.guard_enabled = true;
  const std::vector<cenn::JobResult> results =
      cenn::BatchRunner(jobs, batch).RunAll();
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto it = checksums.find(traffic.variants[i].key);
    if (it != checksums.end() && it->second != results[i].checksum) {
      report->Problem("serve checksum differs from BatchRunner for " +
                      traffic.variants[i].key);
    }
    report->observed["checksum." + jobs[i].name] = results[i].checksum;
  }
  std::filesystem::remove_all(out_dir);
}

}  // namespace

Report
RunServeTenants(const Options& options)
{
  Report report;
  // Smoke: four submits per segment, enough for every class.
  const double seconds = options.smoke ? 4.0 : options.seconds;
  const auto count = static_cast<std::size_t>(seconds * kRatePerS);
  const Traffic traffic = MakeTraffic(options, count);
  const std::string work_dir = options.out_dir + "/serve/work";
  std::filesystem::create_directories(work_dir);
  std::map<std::string, std::uint64_t> checksums;

  if (!options.trace) {
    Pass pass =
        RunSegments(work_dir, traffic, traffic.requests, kSegments, false);
    pass.peak_rss_mb = PeakRssMb();
    ScorePass(traffic, pass, &checksums, &report);
    CheckAgainstBatch(traffic, checksums, options.out_dir + "/serve/batch",
                      &report);
    CheckPinned(options, &report);
    std::filesystem::remove_all(options.out_dir + "/serve");
    return report;
  }

  // Traced run: the schedule in quarters, untraced-traced-traced-
  // untraced, so a steady host drift cancels out of the overhead. The
  // traced quarters record client spans; the first adds ping round
  // trips. Each quarter's peak RSS is its own (the mark is reset first).
  const LutStoreCounts lut_before = ReadLutStore();
  Pass passes[2];
  const std::size_t n = traffic.requests.size();
  for (std::size_t quarter = 0; quarter < 4; ++quarter) {
    const bool traced = quarter == 1 || quarter == 2;
    const std::vector<Request> part(
        traffic.requests.begin() + n * quarter / 4,
        traffic.requests.begin() + n * (quarter + 1) / 4);
    ResetPeakRss();
    EnableSpans(traced);
    Pass pass =
        RunSegments(work_dir, traffic, part, kSegments / 4, quarter == 1);
    pass.peak_rss_mb = PassPeakRssMb();
    passes[traced].Append(pass);
  }
  EnableSpans(false);
  SetLutShare(lut_before, &report);
  Report untraced;
  Report traced;
  ScorePass(traffic, passes[0], &checksums, &untraced);
  const Pass& pass = passes[1];
  const PassFigures figures = ScorePass(traffic, pass, &checksums, &traced);
  report.attempted = untraced.attempted + traced.attempted;
  report.failed = untraced.failed + traced.failed;
  report.correct = untraced.correct && traced.correct;
  SetTraceOverhead(untraced, traced, &report);
  double busy_ms = 0.0;
  for (double w : figures.wall_ms) {
    busy_ms += w;
  }
  report.Set("serve.rejected", pass.rejected, "count");
  report.Set("runtime.retries", pass.retries, "count");
  report.Set("runtime.pool.busy_frac",
             busy_ms / (kWorkers * pass.span_s * 1e3), "frac");
  report.Set("runtime.job_ms", busy_ms / figures.wall_ms.size(), "ms");
  const std::map<std::string, SelfTime> self = SpanSelfTimes();
  report.Set("serve.ping_rtt_us", self.at("serve.ping").MeanMs() * 1e3, "us");
  report.Set("serve.submit_rtt_ms", self.at("serve.submit").MeanMs(), "ms");
  std::vector<double> queue_ms;
  for (std::size_t i = 0; i < figures.latency_ms.size(); ++i) {
    queue_ms.push_back(figures.latency_ms[i] - figures.wall_ms[i]);
  }
  report.Set("serve.run_ms", Median(figures.wall_ms), "ms");
  report.Set("serve.queue_wait_p50_ms", Percentile(queue_ms, 0.50), "ms");
  report.Set("serve.queue_wait_p95_ms", Percentile(queue_ms, 0.95), "ms");
  report.Set("client.late_ms", Percentile(figures.late_ms, 0.99), "ms");
  WriteSpans(options.out_dir + "/serve_tenants.spans.json", nullptr);

  // The server's per-job layers are internal: replay the catalogue
  // through the same public calls, with spans.
  ClearSpans();
  EnableSpans(true);
  ReplayOptions replay;
  replay.out_dir = options.out_dir + "/serve/replay";
  replay.checkpoint_every = 64;
  replay.max_retries = 2;
  replay.guard = true;
  const ReplayTotals totals = ReplayJobs(CatalogueJobs(traffic), replay);
  SetReplayLayerMetrics(totals, &report);
  EnableSpans(false);
  UnitRateProbes(options, &report);
  std::filesystem::remove_all(options.out_dir + "/serve");
  return report;
}

}  // namespace perfbench
