#include "serve/job_registry.h"

#include "util/logging.h"

namespace cenn {

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
    spec.name = job->id + "_" + JobModelStem(spec);
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
  CENN_ASSERT(job->status == JobStatus::kQueued,
              "JobRegistry::Retract: job ", id, " already dispatched");
  job->status = JobStatus::kCancelled;
  job->result.message = "retracted: pool submit failed";
  job->cv.notify_all();
  NoteTransition(JobStatus::kQueued, JobStatus::kCancelled);
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
JobRegistry::Transition(ServeJob* job, JobStatus status)
{
  std::lock_guard<std::mutex> lock(job->mu);
  const JobStatus from = job->status;
  if (!JobStatusIsLive(from) || from == status) {
    return false;  // terminal states are final; self-moves are no-ops
  }
  job->status = status;
  job->cv.notify_all();
  NoteTransition(from, status);
  return true;
}

void
JobRegistry::NoteTransition(JobStatus from, JobStatus to)
{
  if (from == JobStatus::kQueued) {
    queued_.fetch_sub(1);
  } else if (from == JobStatus::kRunning) {
    running_.fetch_sub(1);
  }
  if (to == JobStatus::kRunning) {
    running_.fetch_add(1);
  }
}

}  // namespace cenn
