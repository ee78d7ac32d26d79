#ifndef CENN_RUNTIME_JOB_SPEC_H_
#define CENN_RUNTIME_JOB_SPEC_H_

/**
 * @file
 * JobSpec — one declarative solver scenario, and the shared parse /
 * validate machinery behind every frontend that accepts one.
 *
 * The grammar is the batch-manifest key set (docs/runtime.md):
 * `model=`, `name=`, `rows=`, `cols=`, `steps=`, `exec=`,
 * `priority=`, `seed=`, `checkpoint_every=`; `exec=` is the one key
 * for how the job executes. It used to live inside
 * batch_manifest.cc with fatal, first-error-wins diagnostics; now the
 * manifest parser (cenn_batch) and the serve submit path (cenn_serve)
 * both build specs through JobSpecBuilder, which *collects* every
 * error with its line and key instead of dying on the first — a batch
 * user gets all their typos at once, and a server must never exit on
 * a client's bad request.
 *
 * Split of responsibilities:
 *  - JobSpecBuilder::Apply checks one key at a time (known key, value
 *    shape, enumerated choices);
 *  - ValidateJobSpec checks the finished spec (model exists, sane
 *    geometry, engine/precision combinations BuildEngine would
 *    reject fatally).
 * A spec that passes both is safe to hand to MakeModel + BuildEngine
 * on a worker thread without tripping CENN_FATAL.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "util/exec_policy.h"

namespace cenn {

/** One declarative solver scenario (manifest job / serve submit). */
struct JobSpec {
  /** Unique job name; defaults to "job<index>_<model>". */
  std::string name;

  /** Benchmark model id (see AllModelNames()). Exactly one of
   *  `model`, `model_file`, `model_source` must be set. */
  std::string model;

  /** Path to a scenario DSL file (src/lang) to compile and run. */
  std::string model_file;

  /** Inline scenario DSL text (`;` separates statements, so a whole
   *  scenario fits on one manifest line). */
  std::string model_source;

  std::size_t rows = 64;
  std::size_t cols = 64;

  /** Whether rows=/cols= were given explicitly — scenario jobs fall
   *  back to the file's `grid` statement when they were not. */
  bool has_rows = false;
  bool has_cols = false;

  /** Steps to run; 0 = the model's DefaultSteps(). */
  std::uint64_t steps = 0;

  /**
   * How the job executes: engine, precision, memory, shards,
   * pinning. Set via `exec=...` (util/exec_policy.h grammar),
   * which merges into the frontend's default policy.
   */
  ExecPolicy exec;

  /** Queue priority (higher dispatches first). */
  int priority = 0;

  /** Initial-condition seed; when absent the runner derives one. */
  std::uint64_t seed = 0;
  bool has_seed = false;

  /** Per-job auto-checkpoint interval (0 = runner default). */
  std::uint64_t checkpoint_every = 0;
};

/** Parses plain decimal digits into `*out`; false (and `*out`
 *  untouched) on any other character or on uint64 overflow. */
bool ParseDecimalU64(const std::string& value, std::uint64_t* out);

/** One problem found while parsing or validating a spec. */
struct JobSpecError {
  /** Manifest line number; 0 when there is no line (wire submits). */
  int line = 0;

  /** The key the problem is about; empty for spec-level problems. */
  std::string key;

  std::string message;

  /** Manifest file the line refers to; empty when parsed from text
   *  with no file context (wire submits, string manifests). */
  std::string file;

  JobSpecError() = default;
  JobSpecError(int line_in, std::string key_in, std::string message_in,
               std::string file_in = {})
      : line(line_in),
        key(std::move(key_in)),
        message(std::move(message_in)),
        file(std::move(file_in))
  {
  }
};

/** "manifest.txt:3: key 'rows': ..." with file context, else
 *  "line 3: key 'rows': ..." (or "key 'rows': ..." when line == 0). */
std::string FormatJobSpecError(const JobSpecError& error);

/** All errors joined with "; " — one aggregate diagnostic line. */
std::string FormatJobSpecErrors(const std::vector<JobSpecError>& errors);

/**
 * Incremental spec assembly with collected (not fatal) diagnostics.
 * Feed key/value pairs in any order; every problem is recorded with
 * the offending key (and line, when the caller has one) and the
 * builder keeps going so one pass reports everything.
 */
class JobSpecBuilder
{
  public:
    JobSpecBuilder() = default;

    /**
     * Starts from `base` instead of a default-constructed spec — the
     * hook for frontend-level defaults (cenn_batch's `--exec` seeds
     * every job's policy; per-job keys still override).
     */
    explicit JobSpecBuilder(const JobSpec& base) : spec_(base) {}

    /**
     * Applies one key=value. Returns true when the pair was applied
     * cleanly; false records a JobSpecError (unknown key, malformed
     * number, out-of-range value, unknown enum choice). `line` is
     * carried into the error verbatim (0 = no line context).
     */
    bool Apply(const std::string& key, const std::string& value,
               int line = 0);

    /** The spec assembled so far. */
    const JobSpec& Spec() const { return spec_; }
    JobSpec& MutableSpec() { return spec_; }

    /** Errors collected by Apply (in call order). */
    const std::vector<JobSpecError>& Errors() const { return errors_; }
    bool Ok() const { return errors_.empty(); }

  private:
    JobSpec spec_;
    std::vector<JobSpecError> errors_;
};

/**
 * Whole-spec validation: the model must exist (AllModelNames), rows /
 * cols must be >= 1, and the exec policy must pass ValidateExecPolicy
 * (shards >= 1, float soa-only). Appends to `errors` with `line`
 * context and returns true when nothing was added — a spec passing
 * Apply + ValidateJobSpec never trips CENN_FATAL in MakeModel /
 * BuildEngine.
 */
bool ValidateJobSpec(const JobSpec& spec, std::vector<JobSpecError>* errors,
                     int line = 0);

}  // namespace cenn

#endif  // CENN_RUNTIME_JOB_SPEC_H_
