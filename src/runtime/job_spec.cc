#include "runtime/job_spec.h"

#include <algorithm>
#include <limits>
#include <sstream>

#include "lang/compiler.h"
#include "models/benchmark_model.h"

namespace cenn {

bool
ParseDecimalU64(const std::string& value, std::uint64_t* out)
{
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  if (value.empty()) {
    return false;
  }
  std::uint64_t parsed = 0;
  for (char c : value) {
    if (c < '0' || c > '9') {
      return false;
    }
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (parsed > (kMax - digit) / 10) {
      return false;  // would wrap uint64
    }
    parsed = parsed * 10 + digit;
  }
  *out = parsed;
  return true;
}

std::string
FormatJobSpecError(const JobSpecError& error)
{
  std::ostringstream out;
  if (!error.file.empty()) {
    out << error.file << ":";
    if (error.line > 0) {
      out << error.line;
    }
    out << ": ";
  } else if (error.line > 0) {
    out << "line " << error.line << ": ";
  }
  if (!error.key.empty()) {
    out << "key '" << error.key << "': ";
  }
  out << error.message;
  return out.str();
}

std::string
FormatJobSpecErrors(const std::vector<JobSpecError>& errors)
{
  std::string out;
  for (const JobSpecError& e : errors) {
    if (!out.empty()) {
      out += "; ";
    }
    out += FormatJobSpecError(e);
  }
  return out;
}

bool
JobSpecBuilder::Apply(const std::string& key, const std::string& value,
                      int line)
{
  auto fail = [this, &key, line](std::string message) {
    errors_.push_back({line, key, std::move(message)});
    return false;
  };
  auto apply_u64 = [&](std::uint64_t* out) {
    std::uint64_t parsed = 0;
    if (!ParseDecimalU64(value, &parsed)) {
      return fail("'" + value + "' is not a non-negative integer");
    }
    *out = parsed;
    return true;
  };

  if (key == "model") {
    if (!spec_.model.empty()) {
      return fail("duplicate 'model' in one job (separate jobs with a "
                  "blank line)");
    }
    if (value.empty()) {
      return fail("empty model name");
    }
    spec_.model = value;
    return true;
  }
  if (key == "model_file") {
    if (!spec_.model_file.empty()) {
      return fail("duplicate 'model_file' in one job");
    }
    if (value.empty()) {
      return fail("empty scenario file path");
    }
    spec_.model_file = value;
    return true;
  }
  if (key == "model_source") {
    if (!spec_.model_source.empty()) {
      return fail("duplicate 'model_source' in one job");
    }
    if (value.empty()) {
      return fail("empty scenario source");
    }
    spec_.model_source = value;
    return true;
  }
  if (key == "name") {
    spec_.name = value;
    return true;
  }
  if (key == "rows") {
    std::uint64_t v = 0;
    if (!apply_u64(&v)) {
      return false;
    }
    spec_.rows = static_cast<std::size_t>(v);
    spec_.has_rows = true;
    return true;
  }
  if (key == "cols") {
    std::uint64_t v = 0;
    if (!apply_u64(&v)) {
      return false;
    }
    spec_.cols = static_cast<std::size_t>(v);
    spec_.has_cols = true;
    return true;
  }
  if (key == "steps") {
    return apply_u64(&spec_.steps);
  }
  if (key == "exec") {
    // Merge semantics: only the fields the value names are overridden,
    // so a frontend-level default policy survives per-job refinement.
    std::string error;
    if (!ParseExecPolicy(value, &spec_.exec, &error)) {
      return fail(error);
    }
    return true;
  }
  if (key == "priority") {
    // Priorities may be negative; parse a leading '-' by hand.
    const bool neg = !value.empty() && value[0] == '-';
    std::uint64_t mag = 0;
    if (!ParseDecimalU64(neg ? value.substr(1) : value, &mag)) {
      errors_.push_back({line, key, "'" + value + "' is not an integer"});
      return false;
    }
    if (mag > static_cast<std::uint64_t>(std::numeric_limits<int>::max())) {
      return fail("priority out of range");
    }
    spec_.priority = neg ? -static_cast<int>(mag) : static_cast<int>(mag);
    return true;
  }
  if (key == "seed") {
    if (!apply_u64(&spec_.seed)) {
      return false;
    }
    spec_.has_seed = true;
    return true;
  }
  if (key == "checkpoint_every") {
    return apply_u64(&spec_.checkpoint_every);
  }
  return fail("unknown key");
}

namespace {

/**
 * Compile-checks a scenario reference on a tiny grid. Structure-only:
 * grammar, equations, generator bindings and luts are grid-independent,
 * so an 8x8 trial run surfaces every rejection a later real-size
 * compile would produce, without allocating real-size fields at
 * submit/parse time.
 */
void
CheckScenarioSpec(const JobSpec& spec, std::vector<JobSpecError>* errors,
                  int line)
{
  const bool from_file = !spec.model_file.empty();
  const std::string key = from_file ? "model_file" : "model_source";
  std::string source;
  std::string origin;
  if (from_file) {
    std::string io_error;
    if (!lang::ReadScenarioFile(spec.model_file, &source, &io_error)) {
      errors->push_back({line, key, io_error});
      return;
    }
    origin = spec.model_file;
  } else {
    source = spec.model_source;
    origin = "<inline>";
  }
  lang::ScenarioConfig cfg;
  cfg.rows = 8;
  cfg.cols = 8;
  const lang::CompileResult result = lang::CompileSource(source, cfg);
  if (!result.ok()) {
    std::string joined = lang::FormatDiags(origin, result.diags);
    for (char& c : joined) {
      if (c == '\n') {
        c = ';';
      }
    }
    errors->push_back({line, key, "scenario does not compile: " + joined});
    return;
  }
  if (spec.steps == 0 && result.scenario.default_steps == 0) {
    errors->push_back({line, "steps",
                       "job has no 'steps=' and the scenario declares no "
                       "'steps' statement"});
  }
}

}  // namespace

bool
ValidateJobSpec(const JobSpec& spec, std::vector<JobSpecError>* errors,
                int line)
{
  const std::size_t before = errors->size();
  const int sources = (spec.model.empty() ? 0 : 1) +
                      (spec.model_file.empty() ? 0 : 1) +
                      (spec.model_source.empty() ? 0 : 1);
  if (sources == 0) {
    errors->push_back({line, "model",
                       "job has no 'model=', 'model_file=' or "
                       "'model_source=' line"});
  } else if (sources > 1) {
    errors->push_back({line, "model",
                       "job must name exactly one of 'model=', "
                       "'model_file=', 'model_source='"});
  } else if (!spec.model.empty()) {
    const auto& names = AllModelNames();
    if (std::find(names.begin(), names.end(), spec.model) == names.end()) {
      std::string known;
      for (const std::string& n : names) {
        if (!known.empty()) {
          known += "|";
        }
        known += n;
      }
      errors->push_back(
          {line, "model", "unknown model '" + spec.model + "' (" + known +
                          ")"});
    }
  } else {
    CheckScenarioSpec(spec, errors, line);
  }
  if (spec.rows < 1 || spec.cols < 1) {
    errors->push_back({line, spec.rows < 1 ? "rows" : "cols",
                       "grid dimensions must be >= 1"});
  }
  // Cross-field execution checks BuildEngine / the worker team would
  // otherwise hit fatally on the worker thread.
  std::string exec_error;
  if (!ValidateExecPolicy(spec.exec, &exec_error)) {
    errors->push_back({line, "exec", exec_error});
  }
  return errors->size() == before;
}

}  // namespace cenn
