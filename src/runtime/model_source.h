#ifndef CENN_RUNTIME_MODEL_SOURCE_H_
#define CENN_RUNTIME_MODEL_SOURCE_H_

/**
 * @file
 * The one place the runtime turns a JobSpec's model reference — a
 * hand-coded benchmark (`model=`), a scenario file (`model_file=`) or
 * inline scenario text (`model_source=`) — into a SolverProgram. The
 * batch runner and the serve worker both resolve through here, so a
 * DSL scenario behaves identically to a C++ model on every execution
 * path downstream of this call.
 *
 * Resolution throws std::runtime_error instead of CENN_FATAL: the
 * job-attempt loop (runtime/job_runner.h) fences it, so the job fails
 * and the process goes on, in batch and serve alike. A spec that
 * passed ValidateJobSpec only throws here for environmental reasons
 * (the scenario file changed or disappeared between submit and run).
 */

#include <cstdint>
#include <string>
#include <utility>

#include "program/solver_program.h"
#include "runtime/job_spec.h"

namespace cenn {

/** A job's model reference, resolved and lowered. */
struct ResolvedModel {
  SolverProgram program;

  /** Steps to run when the spec doesn't say (model DefaultSteps() or
   *  the scenario's `steps` statement; 0 = neither provided one). */
  std::uint64_t default_steps = 0;

  /** Display label for reports: the model id or the scenario name. */
  std::string label;
};

/**
 * Builds the program for `spec` at initial-condition seed `seed`.
 * For scenarios, each of rows/cols given explicitly (spec.has_rows /
 * has_cols) overrides its side of the file's `grid`.
 * Throws std::runtime_error with a formatted diagnostic on failure.
 */
ResolvedModel ResolveModelSource(const JobSpec& spec, std::uint64_t seed);

/**
 * The rows and cols ResolveModelSource builds `spec` at, without
 * building it: per side, an explicit rows= or cols=, else the
 * scenario's `grid` statement, else the compiler's default.
 */
std::pair<std::size_t, std::size_t> JobGrid(const JobSpec& spec);

}  // namespace cenn

#endif  // CENN_RUNTIME_MODEL_SOURCE_H_
