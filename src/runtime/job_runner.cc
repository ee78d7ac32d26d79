#include "runtime/job_runner.h"

#include <chrono>
#include <exception>
#include <fstream>
#include <iterator>
#include <memory>
#include <thread>

#include "obs/stat_registry.h"
#include "runtime/engine_factory.h"
#include "runtime/model_source.h"
#include "runtime/solver_session.h"
#include "util/logging.h"
#include "util/rng.h"

namespace cenn {

namespace {

/** How one attempt's stepping ended. */
enum class AttemptEnd : std::uint8_t {
  kDone, kBudget, kStopped, kCancelled, kCrash, kGuardTrip
};

/** Steps until the target, `budget` steps, a stop, a cancel or a
 *  failure; a pause parks on `control`, then resumes. */
AttemptEnd
StepAttempt(SolverSession& session, std::uint64_t budget,
            JobControl* control, std::uint64_t* crash_step)
{
  const std::uint64_t stop_at = session.StepsDone() + budget;
  for (;;) {
    if (control != nullptr && control->StopRequested()) {
      return AttemptEnd::kStopped;
    }
    if (session.ReachedTarget()) {
      return AttemptEnd::kDone;
    }
    if (session.StepsDone() >= stop_at) {
      return AttemptEnd::kBudget;
    }
    try {
      session.StepN(stop_at - session.StepsDone());
    } catch (const FaultCrash& crash) {
      *crash_step = crash.step;
      return AttemptEnd::kCrash;
    }
    switch (session.State()) {
      case SessionState::kDone:
        return AttemptEnd::kDone;
      case SessionState::kFaulted:
        return AttemptEnd::kGuardTrip;
      case SessionState::kCancelled:
        return AttemptEnd::kCancelled;
      case SessionState::kPaused:
        if (control != nullptr) {
          control->Park();
        }
        session.Resume();  // stop and cancel are re-checked above
        break;
      default:
        break;  // idle: the budget check above ends the attempt
    }
  }
}

}  // namespace

const char*
JobStatusName(JobStatus status)
{
  static constexpr const char* kNames[] = {
      "ok",     "retried", "recovered", "interrupted", "cached",
      "diverged", "failed", "queued",  "running",     "cancelled"};
  static_assert(std::size(kNames) ==
                static_cast<std::size_t>(JobStatus::kCancelled) + 1);
  return kNames[static_cast<std::size_t>(status)];
}

std::string
JobDisplayModel(const JobSpec& job)
{
  if (!job.model.empty()) {
    return job.model;
  }
  return job.model_file.empty() ? "inline" : "file:" + job.model_file;
}

std::string
JobModelStem(const JobSpec& job)
{
  if (!job.model.empty()) {
    return job.model;
  }
  if (!job.model_file.empty()) {
    std::string stem = job.model_file;
    const std::size_t slash = stem.find_last_of("/\\");
    if (slash != std::string::npos) {
      stem.erase(0, slash + 1);
    }
    const std::size_t dot = stem.rfind('.');
    if (dot != std::string::npos && dot > 0) {
      stem.erase(dot);
    }
    if (!stem.empty()) {
      return stem;
    }
  }
  return "scenario";
}

JobResult
RunJobAttempts(const JobSpec& spec, const JobRunOptions& options,
               JobControl* control)
{
  const auto start = std::chrono::steady_clock::now();
  JobResult result;
  result.name = spec.name;
  result.model = JobDisplayModel(spec);
  result.exec = FormatExecPolicy(spec.exec);
  result.attempts = 0;

  HealthGuard guard(options.guard);
  // Each attempt destroys the old session before its registry, so the
  // dying metrics emitter samples a live registry.
  std::unique_ptr<StatRegistry> registry;
  std::unique_ptr<SolverSession> session;
  std::uint64_t executed_before = 0;  // steps of abandoned attempts
  bool internal_error = false;
  // Resolving, building or stepping may throw (bad_alloc on a huge
  // grid, system_error from a worker-team start, a scenario file gone
  // since validation): the job fails, the process goes on. The session
  // outlives the fence, so it is unpublished before it is destroyed.
  try {
    const std::uint64_t seed =
        spec.has_seed ? spec.seed
                      : Rng(options.base_seed).Split(options.index).NextU64();
    const ResolvedModel resolved = ResolveModelSource(spec, seed);
    const std::uint64_t target =
        spec.steps > 0 ? spec.steps : resolved.default_steps;

    SessionConfig sc;
    sc.name = spec.name;
    sc.exec = spec.exec;
    sc.target_steps = target;
    sc.checkpoint_every = spec.checkpoint_every > 0 ? spec.checkpoint_every
                                                    : options.checkpoint_every;
    sc.checkpoint_path = options.checkpoint_path;
    // Slices align to the checkpoint interval so auto-checkpoints and
    // the fault/guard boundaries that ride on slices land on time.
    if (sc.checkpoint_every > 0 && sc.checkpoint_every < sc.slice_steps) {
      sc.slice_steps = sc.checkpoint_every;
    }
    if (options.faults != nullptr || control != nullptr) {
      sc.post_slice_hook = [faults = options.faults, control](Engine& e) {
        if (faults != nullptr) {
          faults->FireDue(e);
        }
        if (control != nullptr) {
          control->Progress(e.Steps());
        }
      };
    }
    sc.metrics_path = options.metrics_path;
    sc.metrics_interval_ms = options.metrics_interval_ms;

    const int max_attempts = 1 + options.max_retries;
    bool restored_any = false;
    for (int attempt = 1;; ++attempt) {
      if (attempt > 1 && options.retry_backoff_ms > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(
            static_cast<std::int64_t>(options.retry_backoff_ms)
            << (attempt - 2)));
      }
      if (control != nullptr && control->StopRequested()) {
        // No healthy session to checkpoint; the last good one is on disk.
        result.status = JobStatus::kInterrupted;
        result.message = "drained between attempts";
        break;
      }
      // After a crash the old session is dead; after a trip, corrupt.
      guard.Reset();
      if (control != nullptr) {
        control->Publish(nullptr, attempt);
      }
      executed_before += session != nullptr ? session->StepsExecuted() : 0;
      result.attempts = attempt;
      session.reset();
      registry = std::make_unique<StatRegistry>();
      session = std::make_unique<SolverSession>(
          BuildEngine(resolved.program, spec.exec), sc);
      if (options.guard_enabled) {
        session->Backend().AttachHealthGuard(&guard);
      }
      session->BindStats(registry.get());
      // Retries restore the last good checkpoint (none = start over).
      if ((attempt > 1 || options.resume) &&
          session->TryRestoreFromFile(options.checkpoint_path)) {
        restored_any = restored_any || attempt > 1;
      }
      if (control != nullptr) {
        control->Progress(session->StepsDone());
        control->Publish(session.get(), attempt);
      }

      const std::uint64_t done = session->StepsDone();
      std::uint64_t budget = target > done ? target - done : 0;
      if (options.max_steps > 0 && budget > options.max_steps) {
        budget = options.max_steps;
      }
      std::uint64_t crash_step = 0;
      const AttemptEnd end =
          StepAttempt(*session, budget, control, &crash_step);
      result.message.clear();
      if (end == AttemptEnd::kCrash || end == AttemptEnd::kGuardTrip) {
        result.message =
            (end == AttemptEnd::kCrash
                 ? "simulated crash at step " + std::to_string(crash_step)
                 : "health guard tripped — " + guard.Summary()) +
            " (attempt " + std::to_string(attempt) + "/" +
            std::to_string(max_attempts) + ")";
        CENN_WARN("job '", spec.name, "': ", result.message);
        if (attempt < max_attempts) {
          continue;
        }
        result.status = end == AttemptEnd::kCrash ? JobStatus::kFailed
                                                  : JobStatus::kDiverged;
      } else if (end == AttemptEnd::kDone) {
        result.status = attempt == 1 ? JobStatus::kOk
                        : restored_any ? JobStatus::kRecovered
                                       : JobStatus::kRetried;
      } else if (end == AttemptEnd::kCancelled) {
        result.status = JobStatus::kCancelled;
        result.message = "cancelled while running";
      } else {
        if (session->StepsDone() > 0) {
          session->SaveCheckpoint();
        }
        result.status = JobStatus::kInterrupted;
        if (end == AttemptEnd::kStopped) {
          result.message = "checkpointed at drain";
        }
      }
      break;
    }
  } catch (const std::exception& e) {
    internal_error = true;
    result.message = std::string("internal error: ") + e.what();
  } catch (...) {
    internal_error = true;
    result.message = "internal error: unknown exception";
  }
  if (internal_error) {
    CENN_WARN("job '", spec.name, "': ", result.message);
    result.status = JobStatus::kFailed;
  }
  if (control != nullptr) {
    control->Publish(nullptr, result.attempts);
  }

  result.steps_executed = executed_before;
  if (session != nullptr && !internal_error) {  // else not trusted
    result.steps_done = session->StepsDone();
    result.steps_executed += session->StepsExecuted();
    result.checksum = session->StateChecksum();
  }
  result.health = guard.Report();
  // Dumped while the session the registry reads is still alive.
  if (!options.stats_path.empty() && registry != nullptr) {
    std::ofstream stats(options.stats_path);
    stats << registry->DumpText(/*with_desc=*/true);
  }
  result.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  return result;
}

}  // namespace cenn
