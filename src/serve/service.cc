#include "serve/service.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <thread>

#include "lut/lut_store.h"
#include "runtime/job_runner.h"
#include "runtime/model_source.h"
#include "runtime/solver_session.h"
#include "serve/json.h"
#include "util/logging.h"
#include "util/rng.h"

namespace cenn {

namespace {

/** How long a snapshot request waits for the slice boundary. */
constexpr auto kPauseWait = std::chrono::seconds(10);

/** Longest honored result long-poll (keeps shutdown bounded). */
constexpr double kMaxResultWaitMs = 600000.0;

/** Tenant names feed stat names: [a-z0-9_], 1..32 chars. */
bool
ValidTenantName(const std::string& tenant)
{
  if (tenant.empty() || tenant.size() > 32) {
    return false;
  }
  for (const char c : tenant) {
    if (!((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_')) {
      return false;
    }
  }
  return true;
}

/** Renders a scalar JSON value as a manifest-grammar value string. */
bool
ScalarToSpecValue(const JsonValue& value, std::string* out)
{
  if (value.IsString()) {
    *out = value.string;
    return true;
  }
  if (value.IsNumber()) {
    // The grammar's values are integers; render without a fraction
    // when possible so "rows": 64 round-trips as "64". The cast is
    // only defined inside [-2^63, 2^63); anything else (1e300, NaN)
    // renders as %.17g and fails the grammar's integer parse.
    const double n = value.number;
    if (n >= -9223372036854775808.0 && n < 9223372036854775808.0 &&
        static_cast<double>(static_cast<long long>(n)) == n) {
      *out = std::to_string(static_cast<long long>(n));
    } else {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", value.number);
      *out = buf;
    }
    return true;
  }
  return false;
}

/**
 * Resolves the "job" field to a registry record; on failure writes
 * the error response and returns null.
 */
ServeJob*
LookupJob(JobRegistry& jobs, const JsonValue& request, const std::string& op,
          std::string* response)
{
  const std::string id = request.GetString("job");
  if (id.empty()) {
    *response = ErrorResponse(op, ServeErrorCode::kInvalid,
                              "missing \"job\" field");
    return nullptr;
  }
  ServeJob* job = jobs.Find(id);
  if (job == nullptr) {
    *response = ErrorResponse(op, ServeErrorCode::kUnknownJob,
                              "unknown job '" + id + "'");
  }
  return job;
}

/** The result of a job that ends before it runs. */
JobResult
NotRunResult(JobStatus status, const char* message)
{
  JobResult result;
  result.status = status;
  result.attempts = 0;
  result.message = message;
  return result;
}

/**
 * Serve's side of a running job: publishes the session under the job
 * lock (passing on a cancel or pause that arrived early), parks the
 * worker for a snapshot, reports a drain and mirrors live steps.
 */
class ServeJobControl final : public JobControl
{
  public:
    ServeJobControl(ServeJob* job, const std::atomic<bool>* draining)
        : job_(job), draining_(draining)
    {
    }

    void
    Publish(SolverSession* session, int attempt) override
    {
      std::lock_guard<std::mutex> lock(job_->mu);
      job_->session = session;
      job_->attempts = attempt;
      if (session == nullptr) {
        return;
      }
      if (job_->cancel_requested) {
        session->RequestCancel();
      }
      if (job_->pause_holders > 0) {
        session->RequestPause();  // a snapshot waiter arrived early
      }
    }

    bool StopRequested() override { return draining_->load(); }

    void
    Park() override
    {
      std::unique_lock<std::mutex> lock(job_->mu);
      if (job_->pause_holders == 0) {
        return;  // a drain's pause, or a snapshot that already gave up
      }
      job_->paused = true;
      job_->cv.notify_all();
      job_->cv.wait(lock, [this] {
        return job_->pause_holders == 0 || job_->cancel_requested ||
               draining_->load();
      });
      job_->paused = false;
      job_->cv.notify_all();
    }

    void
    Progress(std::uint64_t steps) override
    {
      job_->live_steps.store(steps, std::memory_order_relaxed);
    }

  private:
    ServeJob* job_;
    const std::atomic<bool>* draining_;
};

}  // namespace

SolverService::SolverService(ServiceOptions options)
    : options_(std::move(options)),
      admission_(AdmissionConfig{
          options_.tenant_quota,
          options_.max_in_flight > 0
              ? options_.max_in_flight
              : options_.queue_capacity +
                    static_cast<std::size_t>(options_.num_threads)})
{
  if (options_.work_dir.empty()) {
    CENN_FATAL("SolverService: work_dir is required");
  }
  if (options_.num_threads < 1) {
    CENN_FATAL("SolverService: num_threads must be >= 1");
  }
  if (options_.max_retries < 0 || options_.retry_backoff_ms < 0) {
    CENN_FATAL("SolverService: max_retries / retry_backoff_ms must be >= 0");
  }
  std::error_code ec;
  std::filesystem::create_directories(options_.work_dir, ec);
  if (ec) {
    CENN_FATAL("SolverService: cannot create work_dir '", options_.work_dir,
               "': ", ec.message());
  }

  ThreadPool::Options pool_options;
  pool_options.num_threads = options_.num_threads;
  pool_options.queue_capacity = options_.queue_capacity;
  pool_ = std::make_unique<ThreadPool>(pool_options);

  BindServiceStats();

  if (!options_.metrics_path.empty()) {
    MetricsOptions mo;
    mo.path = options_.metrics_path;
    mo.interval_ms = options_.metrics_interval_ms;
    metrics_ = std::make_unique<MetricsEmitter>(&registry_, mo);
    metrics_->Start();
    // Force a sample whenever LUT residency changes, so every table
    // build/evict lands in the stream at the moment it happens.
    lut_listener_token_ = LutStore::Global().AddEventListener(
        [this](const char* reason) { metrics_->SampleNow(reason); });
  }
}

SolverService::~SolverService()
{
  Drain();
}

void
SolverService::BindServiceStats()
{
  StatScope scope = registry_.WithPrefix("serve");
  scope.BindAtomicCounter("connections", "client connections accepted",
                          &counters_.connections);
  scope.BindAtomicCounter("requests", "request lines handled",
                          &counters_.requests);
  scope.BindAtomicCounter("bad_requests",
                          "lines rejected before dispatch (parse/bad op)",
                          &counters_.bad_requests);
  scope.BindAtomicCounter("jobs_accepted", "submits admitted to the queue",
                          &counters_.accepted);
  scope.BindAtomicCounter("rejected_quota",
                          "submits rejected by a tenant quota",
                          &counters_.rejected_quota);
  scope.BindAtomicCounter("rejected_busy",
                          "submits rejected by the global capacity bound",
                          &counters_.rejected_busy);
  scope.BindAtomicCounter("rejected_invalid",
                          "submits rejected by spec validation",
                          &counters_.rejected_invalid);
  scope.BindAtomicCounter("rejected_draining",
                          "submits rejected during drain",
                          &counters_.rejected_draining);
  scope.BindAtomicCounter("jobs_completed",
                          "jobs that reached their target",
                          &counters_.completed);
  scope.BindAtomicCounter("jobs_recovered",
                          "completions that needed one or more retries",
                          &counters_.recovered);
  scope.BindAtomicCounter("retries", "extra attempts across all jobs",
                          &counters_.retries);
  scope.BindAtomicCounter("jobs_cancelled", "jobs stopped by a cancel",
                          &counters_.cancelled);
  scope.BindAtomicCounter("jobs_interrupted",
                          "jobs checkpointed and stopped by a drain",
                          &counters_.interrupted);
  scope.BindAtomicCounter("jobs_failed", "jobs that exhausted their retries",
                          &counters_.failed);
  scope.BindAtomicCounter("snapshots", "snapshot requests served",
                          &counters_.snapshots);
  scope.BindAtomicCounter("steps_executed",
                          "solver steps run across all jobs",
                          &counters_.steps_executed);
  scope.BindAtomicCounter("faults_injected",
                          "faults fired by per-job injectors",
                          &counters_.faults_injected);
  scope.BindDerived("jobs_queued", "jobs admitted but not yet dispatched",
                    [this] { return static_cast<double>(jobs_.Queued()); });
  scope.BindDerived("jobs_running", "jobs currently on a worker",
                    [this] { return static_cast<double>(jobs_.Running()); });
  scope.BindDerived("jobs_active", "in-flight jobs (queued + running)",
                    [this] {
                      return static_cast<double>(jobs_.Queued() +
                                                 jobs_.Running());
                    });
  scope.BindDerived("draining", "1 once a drain has started", [this] {
    return draining_.load() ? 1.0 : 0.0;
  });
  pool_->BindStats(registry_.WithPrefix("runtime.pool"));
  // The shared table store: same-model jobs across tenants intern
  // their LUT tables here, so builds stays at the distinct-function
  // count no matter how many sessions run.
  LutStore::Global().BindStats(&registry_);
}

SolverService::TenantCounters*
SolverService::TenantStats(const std::string& tenant)
{
  std::lock_guard<std::mutex> lock(tenant_mu_);
  auto& slot = tenants_[tenant];
  if (slot == nullptr) {
    slot = std::make_unique<TenantCounters>();
    StatScope scope = registry_.WithPrefix("serve.tenant." + tenant);
    scope.BindAtomicCounter("accepted", "submits admitted for this tenant",
                            &slot->accepted);
    scope.BindAtomicCounter("rejected", "submits rejected for this tenant",
                            &slot->rejected);
    scope.BindAtomicCounter("completed", "jobs completed for this tenant",
                            &slot->completed);
    scope.BindAtomicCounter("failed",
                            "jobs failed or diverged for this tenant",
                            &slot->failed);
    scope.BindDerived("active", "in-flight jobs of this tenant",
                      [this, tenant] {
                        return static_cast<double>(
                            admission_.TenantInFlight(tenant));
                      });
  }
  return slot.get();
}

bool
SolverService::HandleLine(const std::string& line, std::string* response)
{
  counters_.requests.fetch_add(1);

  JsonValue request;
  std::string parse_error;
  if (!ParseJson(line, &request, &parse_error)) {
    counters_.bad_requests.fetch_add(1);
    *response = ErrorResponse("", ServeErrorCode::kParse,
                              "bad JSON: " + parse_error);
    return true;
  }
  if (!request.IsObject()) {
    counters_.bad_requests.fetch_add(1);
    *response = ErrorResponse("", ServeErrorCode::kParse,
                              "request is not a JSON object");
    return true;
  }
  const std::string op = request.GetString("op");
  if (op == "ping") {
    *response = HandlePing();
  } else if (op == "submit") {
    *response = HandleSubmit(request);
  } else if (op == "status") {
    *response = HandleStatus(request);
  } else if (op == "result") {
    *response = HandleResult(request);
  } else if (op == "cancel") {
    *response = HandleCancel(request);
  } else if (op == "snapshot") {
    *response = HandleSnapshot(request);
  } else if (op == "stats") {
    *response = HandleStats();
  } else if (op == "shutdown") {
    *response = OkResponse("shutdown").Bool("draining", true).Finish();
    return false;
  } else {
    counters_.bad_requests.fetch_add(1);
    *response = ErrorResponse(op, ServeErrorCode::kBadOp,
                              op.empty() ? "missing \"op\" field"
                                         : "unknown op '" + op + "'");
  }
  return true;
}

std::string
SolverService::HandlePing()
{
  return OkResponse("ping")
      .String("state", draining_.load() ? "draining" : "serving")
      .Int("threads", options_.num_threads)
      .Int("jobs_queued", static_cast<std::int64_t>(jobs_.Queued()))
      .Int("jobs_running", static_cast<std::int64_t>(jobs_.Running()))
      .Finish();
}

std::string
SolverService::HandleSubmit(const JsonValue& request)
{
  if (draining_.load()) {
    counters_.rejected_draining.fetch_add(1);
    return ErrorResponse("submit", ServeErrorCode::kDraining,
                         "server is draining; resubmit elsewhere");
  }
  const std::string tenant = request.GetString("tenant");
  if (!ValidTenantName(tenant)) {
    counters_.rejected_invalid.fetch_add(1);
    return ErrorResponse("submit", ServeErrorCode::kInvalid,
                         "tenant must match [a-z0-9_]{1,32}");
  }
  const JsonValue* spec_value = request.Find("spec");
  if (spec_value == nullptr || !spec_value->IsObject()) {
    counters_.rejected_invalid.fetch_add(1);
    TenantStats(tenant)->rejected.fetch_add(1);
    return ErrorResponse("submit", ServeErrorCode::kInvalid,
                         "submit needs a \"spec\" object of manifest keys");
  }

  // The spec object reuses the batch-manifest grammar key for key;
  // every problem is collected (JobSpecBuilder) so one reject lists
  // all of them.
  JobSpecBuilder builder;
  std::vector<JobSpecError> errors;
  for (const auto& [key, value] : spec_value->object) {
    std::string text;
    if (!ScalarToSpecValue(value, &text)) {
      errors.push_back({0, key, "value must be a string or number"});
      continue;
    }
    builder.Apply(key, text);
  }
  JobSpec spec = builder.Spec();
  errors.insert(errors.end(), builder.Errors().begin(),
                builder.Errors().end());
  ValidateJobSpec(spec, &errors);
  // The limit applies to the grid the job will run: a scenario without
  // rows= and cols= runs at its own `grid`. Divide instead of
  // multiplying: rows * cols can wrap size_t and sneak a gigantic grid
  // past the limit.
  const auto [rows, cols] = JobGrid(spec);
  if (options_.max_cells > 0 && rows > 0 &&
      cols > options_.max_cells / rows) {
    errors.push_back({0, "rows",
                      "rows*cols " + std::to_string(rows) + "x" +
                          std::to_string(cols) +
                          " exceeds the server limit of " +
                          std::to_string(options_.max_cells) + " cells"});
  }
  // One worker thread per shard: bound a client's ask by the host.
  const int max_shards =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  if (spec.exec.shards > max_shards) {
    errors.push_back({0, "exec",
                      "shards=" + std::to_string(spec.exec.shards) +
                          " exceeds the server's " +
                          std::to_string(max_shards) + " hardware threads"});
  }
  if (options_.max_steps > 0 && spec.steps > options_.max_steps) {
    errors.push_back({0, "steps",
                      "steps exceeds the server limit of " +
                          std::to_string(options_.max_steps)});
  }
  const std::string fault_spec = request.GetString("fault_inject");
  std::vector<FaultSpec> faults;
  {
    std::string fault_error;
    if (!TryParseFaultSpec(fault_spec, &faults, &fault_error)) {
      errors.push_back({0, "fault_inject", fault_error});
    }
  }
  if (!errors.empty()) {
    counters_.rejected_invalid.fetch_add(1);
    TenantStats(tenant)->rejected.fetch_add(1);
    return ErrorResponse("submit", ServeErrorCode::kInvalid,
                         FormatJobSpecErrors(errors));
  }

  switch (admission_.TryAdmit(tenant)) {
    case AdmissionController::Reject::kNone:
      break;
    case AdmissionController::Reject::kQuota:
      counters_.rejected_quota.fetch_add(1);
      TenantStats(tenant)->rejected.fetch_add(1);
      return ErrorResponse("submit", ServeErrorCode::kQuota,
                           "tenant '" + tenant +
                               "' is at its in-flight quota",
                           options_.retry_after_ms);
    case AdmissionController::Reject::kFull:
      counters_.rejected_busy.fetch_add(1);
      TenantStats(tenant)->rejected.fetch_add(1);
      return ErrorResponse("submit", ServeErrorCode::kBusy,
                           "server is at capacity",
                           options_.retry_after_ms);
    case AdmissionController::Reject::kDraining:
      counters_.rejected_draining.fetch_add(1);
      return ErrorResponse("submit", ServeErrorCode::kDraining,
                           "server is draining; resubmit elsewhere");
  }

  ServeJob* job = jobs_.Create(tenant, std::move(spec));
  if (!faults.empty()) {
    // Per-job injector: the plan key is the job's own name at index 0,
    // so clause job filters are rarely useful over the wire — an
    // unfiltered clause applies, a filtered one must match the name.
    job->injector = std::make_unique<FaultInjector>(
        std::move(faults),
        Rng(options_.base_seed).Split(job->index).NextU64());
    job->plan = job->injector->PlanFor(job->spec.name, 0);
  }

  JobId pool_id = 0;
  if (!pool_->TrySubmit([this, job] { RunJob(job); }, job->spec.priority,
                        &pool_id)) {
    jobs_.Retract(job->id);
    admission_.Release(tenant);
    counters_.rejected_busy.fetch_add(1);
    TenantStats(tenant)->rejected.fetch_add(1);
    return ErrorResponse("submit", ServeErrorCode::kBusy,
                         "job queue is full", options_.retry_after_ms);
  }
  {
    std::lock_guard<std::mutex> lock(job->mu);
    job->pool_id = pool_id;
  }
  counters_.accepted.fetch_add(1);
  TenantStats(tenant)->accepted.fetch_add(1);
  return OkResponse("submit")
      .String("job", job->id)
      .String("name", job->spec.name)
      .String("status", "queued")
      .Finish();
}

std::string
SolverService::HandleStatus(const JsonValue& request)
{
  std::string response;
  ServeJob* job = LookupJob(jobs_, request, "status", &response);
  if (job == nullptr) {
    return response;
  }
  std::lock_guard<std::mutex> lock(job->mu);
  std::uint64_t steps_done = job->result.steps_done;
  if (job->session != nullptr) {
    // Live progress, mirrored at slice boundaries — never read the
    // engine itself while a worker may be stepping it.
    steps_done = job->live_steps.load(std::memory_order_relaxed);
  }
  return OkResponse("status")
      .String("job", job->id)
      .String("tenant", job->tenant)
      .String("name", job->spec.name)
      .String("model", JobDisplayModel(job->spec))
      .String("exec", FormatExecPolicy(job->spec.exec))
      .String("status", JobStatusName(job->status))
      .Bool("done", !JobStatusIsLive(job->status))
      .Int("attempts", job->attempts)
      .Int("priority", job->spec.priority)
      .Int("dispatch_seq", static_cast<std::int64_t>(job->dispatch_seq))
      .U64Str("steps_done", steps_done)
      .Finish();
}

std::string
SolverService::HandleResult(const JsonValue& request)
{
  std::string response;
  ServeJob* job = LookupJob(jobs_, request, "result", &response);
  if (job == nullptr) {
    return response;
  }
  const bool wait = request.GetBool("wait", false);
  // Client-controlled: clamp before casting so NaN, negative and
  // out-of-range doubles neither hit undefined conversions nor park
  // this transport thread indefinitely.
  double timeout_ms = request.GetNumber("timeout_ms", 10000.0);
  if (!(timeout_ms >= 0.0)) {
    timeout_ms = 0.0;
  } else if (timeout_ms > kMaxResultWaitMs) {
    timeout_ms = kMaxResultWaitMs;
  }
  const auto timeout =
      std::chrono::milliseconds(static_cast<std::int64_t>(timeout_ms));

  std::unique_lock<std::mutex> lock(job->mu);
  if (wait) {
    job->cv.wait_for(lock, timeout, [job] {
      return !JobStatusIsLive(job->status);
    });
  }
  if (JobStatusIsLive(job->status)) {
    return ErrorResponse("result", ServeErrorCode::kBusy,
                         "job '" + job->id + "' is still " +
                             JobStatusName(job->status),
                         options_.retry_after_ms);
  }
  const JobResult& result = job->result;
  JsonWriter w = OkResponse("result");
  w.String("job", job->id)
      .String("tenant", job->tenant)
      .String("name", job->spec.name)
      .String("status", JobStatusName(job->status))
      .Int("attempts", job->attempts)
      .U64Str("steps_done", result.steps_done)
      .U64Str("steps_executed", result.steps_executed)
      .U64Str("checksum", result.checksum)
      .Number("wall_ms", result.wall_ms);
  if (!result.message.empty()) {
    w.String("message", result.message);
  }
  return w.Finish();
}

std::string
SolverService::HandleCancel(const JsonValue& request)
{
  std::string response;
  ServeJob* job = LookupJob(jobs_, request, "cancel", &response);
  if (job == nullptr) {
    return response;
  }
  bool was_queued = false;
  JobId pool_id = 0;
  {
    std::lock_guard<std::mutex> lock(job->mu);
    if (!JobStatusIsLive(job->status)) {
      return OkResponse("cancel")
          .String("job", job->id)
          .Bool("cancelled", false)
          .String("status", JobStatusName(job->status))
          .Finish();
    }
    job->cancel_requested = true;
    was_queued = job->status == JobStatus::kQueued;
    pool_id = job->pool_id;
    if (job->session != nullptr) {
      job->session->RequestCancel();
    }
    job->cv.notify_all();  // wake a pause-parked worker
  }
  if (was_queued && pool_->Cancel(pool_id)) {
    // The closure will never run; this thread finalizes.
    Finalize(job,
             NotRunResult(JobStatus::kCancelled, "cancelled before dispatch"));
  }
  return OkResponse("cancel")
      .String("job", job->id)
      .Bool("cancelled", true)
      .Finish();
}

std::string
SolverService::HandleSnapshot(const JsonValue& request)
{
  std::string response;
  ServeJob* job = LookupJob(jobs_, request, "snapshot", &response);
  if (job == nullptr) {
    return response;
  }
  // Out-of-int-range doubles (the cast would be undefined) collapse
  // to -1, which the range check below rejects like any bad layer.
  const double layer_num = request.GetNumber("layer", 0.0);
  const int layer = layer_num >= 0.0 && layer_num < 2147483647.0
                        ? static_cast<int>(layer_num)
                        : -1;

  std::unique_lock<std::mutex> lock(job->mu);
  if (job->status == JobStatus::kQueued) {
    return ErrorResponse("snapshot", ServeErrorCode::kBusy,
                         "job '" + job->id + "' has not started",
                         options_.retry_after_ms);
  }
  if (!JobStatusIsLive(job->status)) {
    return ErrorResponse("snapshot", ServeErrorCode::kInvalid,
                         "job '" + job->id +
                             "' already finished; use \"result\"");
  }
  if (job->session == nullptr) {
    return ErrorResponse("snapshot", ServeErrorCode::kBusy,
                         "job '" + job->id + "' is between attempts",
                         options_.retry_after_ms);
  }

  // Pause handshake: park the worker at the next slice boundary,
  // read the quiescent session, release it.
  ++job->pause_holders;
  job->session->RequestPause();
  job->cv.notify_all();
  job->cv.wait_for(lock, kPauseWait, [job] {
    return job->paused || job->session == nullptr ||
           !JobStatusIsLive(job->status);
  });
  if (job->paused && job->session != nullptr) {
    // The grid the session runs: a scenario job's spec may leave its
    // rows and cols to the file's `grid` statement.
    const NetworkSpec& grid = job->session->Backend().Spec();
    const int layers = grid.NumLayers();
    if (layer < 0 || layer >= layers) {
      response = ErrorResponse("snapshot", ServeErrorCode::kInvalid,
                               "layer out of range (job has " +
                                   std::to_string(layers) + " layers)");
    } else {
      const std::vector<double> state = job->session->StateDoubles(layer);
      std::string values = "[";
      char buf[64];
      for (std::size_t i = 0; i < state.size(); ++i) {
        if (i > 0) {
          values += ',';
        }
        std::snprintf(buf, sizeof(buf), "%.17g", state[i]);
        values += buf;
      }
      values += ']';
      counters_.snapshots.fetch_add(1);
      response = OkResponse("snapshot")
                     .String("job", job->id)
                     .Int("layer", layer)
                     .Int("layers", layers)
                     .Int("rows", static_cast<std::int64_t>(grid.rows))
                     .Int("cols", static_cast<std::int64_t>(grid.cols))
                     .U64Str("steps", job->session->StepsDone())
                     .Raw("values", values)
                     .Finish();
    }
  } else {
    response = ErrorResponse("snapshot", ServeErrorCode::kBusy,
                             "job '" + job->id +
                                 "' did not reach a pause boundary",
                             options_.retry_after_ms);
  }
  --job->pause_holders;
  job->cv.notify_all();
  return response;
}

std::string
SolverService::HandleStats()
{
  // DumpJson pretty-prints; the wire is one line per response, so
  // collapse the layout newlines (raw newlines cannot occur inside
  // JSON strings — they are always escaped there).
  std::string dump = registry_.DumpJson();
  for (char& c : dump) {
    if (c == '\n' || c == '\r') {
      c = ' ';
    }
  }
  return OkResponse("stats").Raw("stats", dump).Finish();
}

void
SolverService::Finalize(ServeJob* job, const JobResult& result)
{
  JobStatus from;
  {
    std::lock_guard<std::mutex> lock(job->mu);
    if (!JobStatusIsLive(job->status)) {
      return;  // first writer won
    }
    from = job->status;
    job->result = result;
    job->attempts = result.attempts;
    job->session = nullptr;
    job->status = result.status;
    job->cv.notify_all();
  }
  jobs_.NoteTransition(from, result.status);

  TenantCounters* tenant = TenantStats(job->tenant);
  if (JobStatusIsSuccess(result.status)) {
    counters_.completed.fetch_add(1);
    tenant->completed.fetch_add(1);
    if (result.attempts > 1) {
      counters_.recovered.fetch_add(1);
    }
  } else if (JobStatusIsFailure(result.status)) {
    counters_.failed.fetch_add(1);
    tenant->failed.fetch_add(1);
  } else if (result.status == JobStatus::kCancelled) {
    counters_.cancelled.fetch_add(1);
  } else if (result.status == JobStatus::kInterrupted) {
    counters_.interrupted.fetch_add(1);
  }
  if (result.attempts > 1) {
    counters_.retries.fetch_add(
        static_cast<std::uint64_t>(result.attempts - 1));
  }
  counters_.steps_executed.fetch_add(result.steps_executed);
  if (job->injector != nullptr) {
    counters_.faults_injected.fetch_add(job->injector->TotalFired());
  }
  admission_.Release(job->tenant);
  if (metrics_ != nullptr) {
    metrics_->SampleNow("job_" + std::string(JobStatusName(result.status)));
  }
}

void
SolverService::RunJob(ServeJob* job)
{
  bool cancelled_before_start = false;
  {
    std::lock_guard<std::mutex> lock(job->mu);
    cancelled_before_start = job->cancel_requested;
  }
  if (cancelled_before_start) {
    Finalize(job,
             NotRunResult(JobStatus::kCancelled, "cancelled before dispatch"));
    return;
  }
  if (draining_.load()) {
    Finalize(job,
             NotRunResult(JobStatus::kInterrupted, "queue flushed at drain"));
    return;
  }

  jobs_.Transition(job, JobStatus::kRunning);
  {
    std::lock_guard<std::mutex> lock(job->mu);
    job->dispatch_seq = dispatch_seq_.fetch_add(1) + 1;
  }

  // Unseeded jobs split their seed by submission index, the way batch
  // splits by manifest index.
  JobRunOptions run;
  run.base_seed = options_.base_seed;
  run.index = job->index;
  run.checkpoint_path = options_.work_dir + "/" + job->id + ".ckpt";
  run.checkpoint_every = options_.checkpoint_every;
  run.max_retries = options_.max_retries;
  run.retry_backoff_ms = options_.retry_backoff_ms;
  run.guard_enabled = options_.guard_enabled;
  run.guard = options_.guard;
  run.faults = job->plan;
  ServeJobControl control(job, &draining_);
  Finalize(job, RunJobAttempts(job->spec, run, &control));
}

void
SolverService::Drain()
{
  std::lock_guard<std::mutex> drain_lock(drain_mu_);
  draining_.store(true);
  admission_.SetDraining();

  // Flush the queue: every job still waiting reports "interrupted"
  // rather than silently vanishing; running sessions are paused so
  // their workers checkpoint and report the same.
  for (ServeJob* job : jobs_.All()) {
    bool queued = false;
    JobId pool_id = 0;
    {
      std::lock_guard<std::mutex> lock(job->mu);
      if (job->status == JobStatus::kQueued) {
        queued = true;
        pool_id = job->pool_id;
      } else if (job->status == JobStatus::kRunning &&
                 job->session != nullptr) {
        job->session->RequestPause();
      }
      job->cv.notify_all();  // wake pause-parked workers and waiters
    }
    if (queued && pool_->Cancel(pool_id)) {
      Finalize(job, NotRunResult(JobStatus::kInterrupted,
                                 "queue flushed at drain"));
    }
  }

  pool_->WaitIdle();
  pool_->Shutdown(ThreadPool::ShutdownMode::kDrain);
  // Unhook the LUT residency listener before stopping the metrics
  // stream: the pool is idle, so no job thread can fire it again, and
  // removal blocks until any in-flight callback finishes.
  if (lut_listener_token_ != 0) {
    LutStore::Global().RemoveEventListener(lut_listener_token_);
    lut_listener_token_ = 0;
  }
  if (metrics_ != nullptr) {
    metrics_->Stop();
  }
}

}  // namespace cenn
