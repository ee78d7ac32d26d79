#include "runtime/batch_manifest.h"

#include <cctype>
#include <fstream>
#include <set>
#include <sstream>

#include "runtime/job_runner.h"
#include "util/logging.h"

namespace cenn {

namespace {

/** Trims ASCII whitespace from both ends. */
std::string
Trim(const std::string& s)
{
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) {
    ++b;
  }
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) {
    --e;
  }
  return s.substr(b, e - b);
}

/** Fresh builder seeded with the caller's defaults (may be null). */
JobSpecBuilder
MakeBuilder(const JobSpec* defaults)
{
  return defaults != nullptr ? JobSpecBuilder(*defaults) : JobSpecBuilder{};
}

/** Closes the in-flight job: validates, names and appends it. */
void
FinishJob(JobSpecBuilder* builder, bool job_open, int line_no,
          std::vector<JobSpec>* jobs, std::vector<JobSpecError>* errors,
          const JobSpec* defaults)
{
  if (!job_open) {
    return;
  }
  ValidateJobSpec(builder->Spec(), errors, line_no);
  JobSpec job = builder->Spec();
  if (job.name.empty()) {
    job.name = "job" + std::to_string(jobs->size()) + "_" + JobModelStem(job);
  }
  jobs->push_back(std::move(job));
  *builder = MakeBuilder(defaults);
}

}  // namespace

std::vector<JobSpec>
ParseManifestCollect(const std::string& text,
                     std::vector<JobSpecError>* errors,
                     const JobSpec* defaults, const std::string& file)
{
  const std::size_t first_error = errors->size();
  std::vector<JobSpec> jobs;
  JobSpecBuilder builder = MakeBuilder(defaults);
  bool job_open = false;

  std::istringstream in(text);
  std::string raw;
  int line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    const std::size_t hash = raw.find('#');
    if (hash != std::string::npos) {
      raw.erase(hash);
    }
    const std::string line = Trim(raw);
    if (line.empty()) {
      FinishJob(&builder, job_open, line_no, &jobs, errors, defaults);
      job_open = false;
      continue;
    }
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      errors->push_back(
          {line_no, "", "expected key=value, got '" + line + "'"});
      continue;
    }
    const std::string key = Trim(line.substr(0, eq));
    const std::string value = Trim(line.substr(eq + 1));
    job_open = true;
    builder.Apply(key, value, line_no);
    // Builder errors accumulate inside it; drained when the job ends.
    if (!builder.Errors().empty()) {
      errors->insert(errors->end(), builder.Errors().begin(),
                     builder.Errors().end());
      // Reset the builder's error list but keep the spec so later
      // keys of the same job still validate (more diagnostics per
      // pass, not fewer).
      JobSpecBuilder next;
      next.MutableSpec() = builder.Spec();
      builder = std::move(next);
    }
  }
  FinishJob(&builder, job_open, line_no, &jobs, errors, defaults);

  if (jobs.empty()) {
    errors->push_back({0, "", "no jobs found"});
  }
  std::set<std::string> names;
  for (const JobSpec& j : jobs) {
    if (!names.insert(j.name).second) {
      errors->push_back({0, "name", "duplicate job name '" + j.name + "'"});
    }
  }
  if (!file.empty()) {
    // Stamp the origin file on every error this parse produced so the
    // caller's diagnostic reads "<file>:<line>: key ...".
    for (std::size_t i = first_error; i < errors->size(); ++i) {
      (*errors)[i].file = file;
    }
  }
  return jobs;
}

std::vector<BatchJobSpec>
ParseManifest(const std::string& text, const JobSpec* defaults,
              const std::string& file)
{
  std::vector<JobSpecError> errors;
  std::vector<JobSpec> jobs =
      ParseManifestCollect(text, &errors, defaults, file);
  if (!errors.empty()) {
    std::ostringstream out;
    out << "manifest: " << errors.size()
        << (errors.size() == 1 ? " error:\n" : " errors:\n");
    for (const JobSpecError& e : errors) {
      out << "  " << FormatJobSpecError(e) << "\n";
    }
    CENN_FATAL(out.str());
  }
  return jobs;
}

std::vector<BatchJobSpec>
LoadManifestFile(const std::string& path, const JobSpec* defaults)
{
  std::ifstream in(path);
  if (!in) {
    CENN_FATAL("cannot open manifest '", path, "'");
  }
  std::ostringstream text;
  text << in.rdbuf();
  return ParseManifest(text.str(), defaults, path);
}

}  // namespace cenn
