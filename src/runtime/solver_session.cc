#include "runtime/solver_session.h"

#include <bit>
#include <fstream>

#include "arch/simulator.h"
#include "health/health_guard.h"
#include "lut/lut_refit.h"
#include "obs/stat_registry.h"
#include "runtime/sharded_stepper.h"
#include "runtime/worker_team.h"
#include "util/hash.h"
#include "util/logging.h"

namespace cenn {

namespace {

/** Process-wide session id source (stat-prefix uniqueness). */
std::atomic<std::uint64_t> g_next_session_id{1};

/** Reads a whole binary file; false when it cannot be opened. */
bool
ReadFileBytes(const std::string& path, std::vector<std::uint8_t>* bytes)
{
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    return false;
  }
  const std::streamsize size = in.tellg();
  in.seekg(0);
  bytes->resize(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(bytes->data()), size);
  return static_cast<bool>(in);
}

}  // namespace

const char*
SessionStateName(SessionState state)
{
  switch (state) {
    case SessionState::kIdle:
      return "idle";
    case SessionState::kRunning:
      return "running";
    case SessionState::kPaused:
      return "paused";
    case SessionState::kDone:
      return "done";
    case SessionState::kCancelled:
      return "cancelled";
    case SessionState::kFaulted:
      return "faulted";
  }
  return "unknown";
}

void
SolverSession::ValidateConfig()
{
  if (engine_ == nullptr) {
    CENN_FATAL("SolverSession: null engine");
  }
  if (config_.slice_steps == 0) {
    CENN_FATAL("SolverSession: slice_steps must be positive");
  }
  if (config_.metrics_interval_ms < 1) {
    CENN_FATAL("SolverSession: metrics_interval_ms must be >= 1, got ",
               config_.metrics_interval_ms);
  }
  if (config_.checkpoint_every > 0 && config_.checkpoint_path.empty()) {
    CENN_FATAL("SolverSession: checkpoint_every requires checkpoint_path");
  }
  // Only the team-shape fields of the policy are validated here: the
  // engine-selection fields describe an engine the caller already
  // built (possibly not through the factory), so cross-field rules
  // like "float is soa-only" are not re-checked against them.
  if (config_.exec.shards < 1) {
    CENN_FATAL("SolverSession: shards must be >= 1, got ",
               config_.exec.shards);
  }
  TeamPin pin = TeamPin::kNone;
  if (!ParseTeamPin(config_.exec.pin, &pin)) {
    CENN_FATAL("SolverSession: unknown pin mode '", config_.exec.pin, "'");
  }
  if (config_.exec.shards != 1 && !engine_->SupportsBands()) {
    CENN_WARN("SolverSession '", config_.name, "': engine '",
              engine_->Kind(),
              "' does not support band stepping; ignoring shards=",
              config_.exec.shards);
    config_.exec.shards = 1;
  }
}

SolverSession::SolverSession(std::unique_ptr<Engine> engine,
                             SessionConfig config)
    : id_(g_next_session_id.fetch_add(1)),
      config_(std::move(config)),
      engine_(std::move(engine))
{
  ValidateConfig();
  timings_ = std::make_unique<ShardPhaseTimings>(config_.exec.shards);
  engine_->AttachLutTraffic(&lut_traffic_);
  TeamOptions team_options;
  team_options.shards = config_.exec.shards;
  ParseTeamPin(config_.exec.pin, &team_options.pin);
  team_options.timings = timings_.get();
  team_options.trace = config_.trace;
  team_ = std::make_unique<ShardTeam>(engine_.get(), team_options);
}

SolverSession::~SolverSession()
{
  if (metrics_ != nullptr) {
    metrics_->Stop();
  }
}

SolverSession::SolverSession(const NetworkSpec& spec, SolverOptions options,
                             SessionConfig config)
    : SolverSession(MakeFunctionalEngine(spec, std::move(options)),
                    std::move(config))
{
}

SolverSession::SolverSession(const SolverProgram& program,
                             const ArchConfig& arch, SessionConfig config)
    : SolverSession(std::make_unique<ArchSimulator>(program, arch),
                    std::move(config))
{
}

bool
SolverSession::ReachedTarget() const
{
  return config_.target_steps > 0 && StepsDone() >= config_.target_steps;
}

void
SolverSession::RunSlice(std::uint64_t n)
{
  // The team counts saturation events on whichever threads step.
  team_->Run(n);
  steps_executed_ += n;
  steps_since_checkpoint_ += n;
}

void
SolverSession::MetricsSample(const char* reason)
{
  if (metrics_ != nullptr) {
    metrics_->SampleNow(reason);
  }
}

void
SolverSession::MaybeAutoCheckpoint()
{
  if (config_.checkpoint_every == 0 ||
      steps_since_checkpoint_ < config_.checkpoint_every) {
    return;
  }
  if (SaveCheckpoint()) {
    steps_since_checkpoint_ = 0;
  }
}

std::uint64_t
SolverSession::StepN(std::uint64_t n)
{
  const SessionState entry = state_.load();
  if (entry == SessionState::kDone || entry == SessionState::kCancelled ||
      entry == SessionState::kFaulted) {
    return 0;
  }
  if (pause_requested_.load()) {
    ++pauses_honored_;
    state_.store(SessionState::kPaused);
    MetricsSample("pause");
    return 0;
  }
  state_.store(SessionState::kRunning);
  std::uint64_t executed = 0;
  while (executed < n) {
    if (cancel_requested_.load()) {
      state_.store(SessionState::kCancelled);
      MetricsSample("cancel");
      return executed;
    }
    if (pause_requested_.load()) {
      ++pauses_honored_;
      state_.store(SessionState::kPaused);
      MetricsSample("pause");
      return executed;
    }
    if (ReachedTarget()) {
      break;
    }
    std::uint64_t slice = config_.slice_steps;
    if (slice > n - executed) {
      slice = n - executed;
    }
    if (config_.target_steps > 0) {
      const std::uint64_t left = config_.target_steps - StepsDone();
      if (slice > left) {
        slice = left;
      }
    }
    RunSlice(slice);
    executed += slice;
    if (config_.post_slice_hook) {
      config_.post_slice_hook(*engine_);
    }
    // The guard scan runs before MaybeAutoCheckpoint so a corrupt
    // slice (or a hook-injected fault) is never checkpointed.
    if (HealthGuard* guard = engine_->AttachedHealthGuard()) {
      if (!guard->MaybeScan(*engine_)) {
        ++faults_;
        state_.store(SessionState::kFaulted);
        MetricsSample("fault");
        return executed;
      }
      // Healthy scan: give the refitter a chance to widen the LUT
      // range before the state escapes the sampled interval.
      if (config_.lut_refitter != nullptr &&
          config_.lut_refitter->MaybeRefit(*engine_,
                                           guard->Report().max_abs)) {
        guard->NoteLutRefit();
        MetricsSample("lut_refit");
      }
    }
    MaybeAutoCheckpoint();
  }
  const bool done = ReachedTarget();
  state_.store(done ? SessionState::kDone : SessionState::kIdle);
  if (done) {
    MetricsSample("done");
  }
  return executed;
}

std::uint64_t
SolverSession::RunToTarget()
{
  if (config_.target_steps == 0) {
    CENN_FATAL("SolverSession::RunToTarget without target_steps");
  }
  const std::uint64_t done = StepsDone();
  if (done >= config_.target_steps) {
    state_.store(SessionState::kDone);
    return 0;
  }
  return StepN(config_.target_steps - done);
}

void
SolverSession::Resume()
{
  pause_requested_.store(false);
  if (state_.load() == SessionState::kPaused) {
    state_.store(SessionState::kIdle);
  }
}

Checkpoint
SolverSession::Capture() const
{
  return CaptureCheckpoint(*engine_);
}

bool
SolverSession::SaveCheckpoint(const std::string& path)
{
  const std::string& target = path.empty() ? config_.checkpoint_path : path;
  if (target.empty()) {
    CENN_FATAL("SolverSession::SaveCheckpoint: no checkpoint path");
  }
  const std::vector<std::uint8_t> bytes = SerializeCheckpoint(Capture());
  std::ofstream out(target, std::ios::binary);
  if (!out) {
    CENN_WARN("SolverSession '", config_.name,
              "': cannot write checkpoint '", target, "'");
    return false;
  }
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    CENN_WARN("SolverSession '", config_.name,
              "': short write to checkpoint '", target, "'");
    return false;
  }
  ++checkpoints_written_;
  return true;
}

bool
SolverSession::TryRestoreFromFile(const std::string& path)
{
  std::vector<std::uint8_t> bytes;
  if (!ReadFileBytes(path, &bytes)) {
    return false;
  }
  Checkpoint cp;
  std::string error;
  if (!DeserializeCheckpoint(bytes, &cp, &error) ||
      !CheckpointFits(cp, engine_->Spec(), &error)) {
    CENN_WARN("SolverSession '", config_.name, "': ignoring '", path,
              "': ", error);
    return false;
  }
  RestoreCheckpoint(cp, engine_.get());
  if (HealthGuard* guard = engine_->AttachedHealthGuard()) {
    guard->Reset();  // restored state is presumed good; clears kFaulted
  }
  ++restores_;
  steps_since_checkpoint_ = 0;
  state_.store(ReachedTarget() ? SessionState::kDone : SessionState::kIdle);
  return true;
}

std::uint64_t
SolverSession::StateChecksum() const
{
  const Checkpoint cp = Capture();
  // FNV-1a from the start value every pinned checksum was made with.
  std::uint64_t h = FnvMix(1469598103934665603ULL, cp.steps);
  for (const auto& layer : cp.layer_states) {
    for (double v : layer) {
      h = FnvMix(h, std::bit_cast<std::uint64_t>(v));
    }
  }
  return h;
}

void
SolverSession::BindStats(StatRegistry* registry)
{
  CENN_ASSERT(registry != nullptr, "SolverSession::BindStats: null registry");
  StatScope scope =
      registry->WithPrefix("runtime.session" + std::to_string(id_));
  scope.BindDerived("steps", "engine steps (includes restored history)",
                    [this] { return static_cast<double>(StepsDone()); });
  scope.BindDerived("state", "lifecycle (0=idle 1=running 2=paused "
                    "3=done 4=cancelled 5=faulted)", [this] {
                      return static_cast<double>(
                          static_cast<int>(state_.load()));
                    });
  scope.BindCounter("steps_executed", "steps run by this session object",
                    &steps_executed_);
  scope.BindCounter("checkpoints_written", "checkpoint files written",
                    &checkpoints_written_);
  scope.BindCounter("restores", "checkpoint restores performed", &restores_);
  scope.BindCounter("pauses", "pause requests honored", &pauses_honored_);
  scope.BindCounter("faults", "health-guard trips honored", &faults_);
  scope.BindDerived("team.workers", "persistent worker threads", [this] {
    return static_cast<double>(team_->Workers());
  });
  scope.BindDerived("team.dispatches", "slices dispatched to the team",
                    [this] {
                      return static_cast<double>(team_->Dispatches());
                    });
  engine_->BindStats(registry, scope.Prefix());
  if (HealthGuard* guard = engine_->AttachedHealthGuard()) {
    guard->BindStats(registry, scope.Prefix());
  }
  timings_->BindStats(registry, scope.Prefix());
  lut_traffic_.BindStats(registry, scope.Prefix());
  if (!config_.metrics_path.empty() && metrics_ == nullptr) {
    MetricsOptions options;
    options.path = config_.metrics_path;
    options.interval_ms = config_.metrics_interval_ms;
    metrics_ = std::make_unique<MetricsEmitter>(registry, options);
    if (!metrics_->Start()) {
      metrics_.reset();
    }
  }
}

std::vector<double>
SolverSession::StateDoubles(int layer) const
{
  return engine_->Snapshot(layer);
}

}  // namespace cenn
