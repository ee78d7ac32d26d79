#include "serve/job_registry.h"

#include "util/logging.h"

namespace cenn {

const char*
ServeJobStatusName(ServeJobStatus status)
{
  switch (status) {
    case ServeJobStatus::kQueued:
      return "queued";
    case ServeJobStatus::kRunning:
      return "running";
    case ServeJobStatus::kOk:
      return "ok";
    case ServeJobStatus::kRetried:
      return "retried";
    case ServeJobStatus::kRecovered:
      return "recovered";
    case ServeJobStatus::kInterrupted:
      return "interrupted";
    case ServeJobStatus::kCancelled:
      return "cancelled";
    case ServeJobStatus::kDiverged:
      return "diverged";
    case ServeJobStatus::kFailed:
      return "failed";
  }
  return "unknown";
}

bool
ServeJobStatusIsLive(ServeJobStatus status)
{
  return status == ServeJobStatus::kQueued ||
         status == ServeJobStatus::kRunning;
}

ServeJob*
JobRegistry::Create(const std::string& tenant, JobSpec spec)
{
  std::lock_guard<std::mutex> lock(mu_);
  auto job = std::make_unique<ServeJob>();
  job->id = std::string("j").append(std::to_string(next_id_));
  job->index = next_id_;
  ++next_id_;
  job->tenant = tenant;
  if (spec.name.empty()) {
    spec.name = job->id + "_" + spec.model;
  }
  job->spec = std::move(spec);
  ServeJob* raw = job.get();
  jobs_.push_back(std::move(job));
  by_id_[raw->id] = raw;
  queued_.fetch_add(1);
  return raw;
}

ServeJob*
JobRegistry::Find(const std::string& id)
{
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = by_id_.find(id);
  return it == by_id_.end() ? nullptr : it->second;
}

void
JobRegistry::Retract(const std::string& id)
{
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = by_id_.find(id);
  CENN_ASSERT(it != by_id_.end(), "JobRegistry::Retract: unknown id ", id);
  ServeJob* job = it->second;
  by_id_.erase(it);
  std::lock_guard<std::mutex> job_lock(job->mu);  // registry before job
  CENN_ASSERT(job->status == ServeJobStatus::kQueued,
              "JobRegistry::Retract: job ", id, " already dispatched");
  job->status = ServeJobStatus::kCancelled;
  job->message = "retracted: pool submit failed";
  job->cv.notify_all();
  NoteTransition(ServeJobStatus::kQueued, ServeJobStatus::kCancelled);
}

std::vector<ServeJob*>
JobRegistry::All()
{
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ServeJob*> out;
  out.reserve(jobs_.size());
  for (const auto& job : jobs_) {
    out.push_back(job.get());
  }
  return out;
}

std::uint64_t
JobRegistry::TotalCreated() const
{
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_ - 1;
}

bool
JobRegistry::Transition(ServeJob* job, ServeJobStatus status)
{
  std::lock_guard<std::mutex> lock(job->mu);
  const ServeJobStatus from = job->status;
  if (!ServeJobStatusIsLive(from) || from == status) {
    return false;  // terminal states are final; self-moves are no-ops
  }
  job->status = status;
  job->cv.notify_all();
  NoteTransition(from, status);
  return true;
}

void
JobRegistry::NoteTransition(ServeJobStatus from, ServeJobStatus to)
{
  if (from == ServeJobStatus::kQueued) {
    queued_.fetch_sub(1);
  } else if (from == ServeJobStatus::kRunning) {
    running_.fetch_sub(1);
  }
  if (to == ServeJobStatus::kRunning) {
    running_.fetch_add(1);
  }
}

}  // namespace cenn
