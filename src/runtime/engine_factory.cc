#include "runtime/engine_factory.h"

#include <utility>

#include "arch/simulator.h"
#include "core/solver.h"
#include "kernels/soa_engine.h"
#include "lut/lut_bank.h"
#include "lut/lut_evaluator.h"
#include "lut/lut_refit.h"
#include "lut/lut_store.h"
#include "util/logging.h"

namespace cenn {

namespace {

/**
 * The fixed-precision LUT evaluator over the program's bank. Tables
 * come from the process-wide LutStore, so concurrent sessions running
 * the same model share one immutable build per distinct function.
 */
std::shared_ptr<FunctionEvaluator<Fixed32>>
MakeLutFixedEvaluator(const SolverProgram& program)
{
  auto bank = LutStore::Global().Acquire(program.spec, program.lut_config);
  return std::make_shared<LutEvaluatorFixed>(bank);
}

/** The policy's precision with the engine default filled in; fatal
 *  unless the policy passes ValidateExecPolicy. */
std::string
ValidPrecision(const ExecPolicy& policy)
{
  std::string error;
  if (!ValidateExecPolicy(policy, &error)) {
    CENN_FATAL("exec policy: ", error);
  }
  return policy.precision.empty() ? "fixed" : policy.precision;
}

}  // namespace

std::unique_ptr<Engine>
BuildEngine(const SolverProgram& program, const ExecPolicy& policy)
{
  const std::string precision = ValidPrecision(policy);

  if (policy.engine == "arch") {
    ArchConfig arch;
    if (policy.memory == "hmc-int") {
      arch.memory = MemoryParams::HmcInt();
    } else if (policy.memory == "hmc-ext") {
      arch.memory = MemoryParams::HmcExt();
    }
    arch.pe_clock_hz = arch.memory.pe_clock_hint_hz;
    arch = RecommendedArchConfig(program, arch);
    return std::make_unique<ArchSimulator>(program, arch);
  }

  if (precision == "float") {
    return MakeSoaEngineFloat(program.spec);
  }

  SolverOptions options;
  if (precision == "double") {
    options.precision = Precision::kDouble;
  } else {
    options.precision = Precision::kFixed32;
    options.fixed_evaluator = MakeLutFixedEvaluator(program);
  }
  if (policy.engine == "soa") {
    return MakeSoaEngine(program.spec, std::move(options));
  }
  return MakeFunctionalEngine(program.spec, std::move(options));
}

std::shared_ptr<LutRefitter>
MakeLutRefitter(const SolverProgram& program, const ExecPolicy& policy)
{
  // Only fixed-precision functional/soa engines evaluate through a
  // rebindable LUT bank; the arch simulator's hierarchy indices are
  // tied to its bank and double/float run ideal math.
  if (ValidPrecision(policy) != "fixed" || policy.engine == "arch") {
    return nullptr;
  }
  return std::make_shared<LutRefitter>(&LutStore::Global(), program.spec,
                                       program.lut_config);
}

}  // namespace cenn
