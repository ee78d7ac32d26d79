#ifndef CENN_RUNTIME_ENGINE_FACTORY_H_
#define CENN_RUNTIME_ENGINE_FACTORY_H_

/**
 * @file
 * One place that turns an ExecPolicy (util/exec_policy.h) into a
 * cenn::Engine.
 *
 * Every frontend (cenn_run, cenn_batch, the batch manifest, serve)
 * hands over a SolverProgram plus the policy's backend-selection
 * fields and receives a ready engine behind the uniform interface;
 * the team-shape fields (shards, pin) are ShardTeam's and
 * SolverSession's to consume.
 *
 * Engine names:
 *   functional  reference MultilayerCenn (double or fixed precision)
 *   soa         vectorized SoA kernels (double, fixed or float)
 *   arch        cycle-level accelerator simulator (fixed only; the
 *               one engine with a memory system)
 * An empty precision means fixed, the accelerator's native format.
 */

#include <memory>

#include "core/engine.h"
#include "program/solver_program.h"
#include "util/exec_policy.h"

namespace cenn {

class LutRefitter;  // src/lut/lut_refit.h

/**
 * Builds the engine `policy` selects over `program`. Fixed-precision
 * functional and SoA engines evaluate nonlinear weights through the
 * program's LUT bank (hardware-faithful); double and float use ideal
 * math. The arch engine sizes its config via RecommendedArchConfig.
 * Fatal on a policy that fails ValidateExecPolicy, so validate
 * frontend input first.
 */
std::unique_ptr<Engine> BuildEngine(const SolverProgram& program,
                                    const ExecPolicy& policy);

/**
 * Builds the adaptive LUT range refitter that pairs with BuildEngine's
 * result, or nullptr when the policy has no rebindable LUT path
 * (double/float precision, or the arch engine whose cache hierarchy is
 * tied to its bank). Hand the result to SessionConfig::lut_refitter so
 * the session widens the sampled range when states escape it.
 */
std::shared_ptr<LutRefitter> MakeLutRefitter(const SolverProgram& program,
                                             const ExecPolicy& policy);

}  // namespace cenn

#endif  // CENN_RUNTIME_ENGINE_FACTORY_H_
