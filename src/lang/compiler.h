#ifndef CENN_LANG_COMPILER_H_
#define CENN_LANG_COMPILER_H_

/**
 * @file
 * Scenario DSL compiler: lowers a parsed ModelDef to the same
 * EquationSystem + LutConfig a hand-coded benchmark model builds, so
 * the downstream Mapper / engines cannot tell text from C++.
 *
 * The compiler is two-stage on purpose: a ModelDef is grid-agnostic;
 * Compile() instantiates it for a concrete {rows, cols, seed} exactly
 * like ModelConfig instantiates a hand-coded model, so runtime overrides
 * (manifest rows=, serve specs, --rows flags) compose identically.
 *
 * Like the parser it is total: any input yields either a scenario or a
 * list of positioned diagnostics, never a crash — EquationSystem
 * invariants are pre-checked here so the fatal Validate() backstop
 * cannot fire on accepted input.
 */

#include <string>
#include <string_view>
#include <vector>

#include "lang/ast.h"
#include "lang/parser.h"
#include "lut/lut_bank.h"
#include "mapping/equation.h"
#include "program/solver_program.h"

namespace cenn::lang {

/** Rows and cols of a scenario with no `grid` statement. */
constexpr std::size_t kDefaultGridSide = 64;

/** Instantiation parameters; a side left 0 comes from the file's
 *  `grid` (else kDefaultGridSide), the other side stays as given. */
struct ScenarioConfig {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::uint64_t seed = 42;
};

/** A compiled scenario: everything a BenchmarkModel provides. */
struct CompiledScenario {
  std::string name = "scenario";
  EquationSystem system;
  LutConfig luts;
  /** From the `steps` statement; 0 = unspecified. */
  std::uint64_t default_steps = 0;
};

/** Compilation outcome: scenario is meaningful iff diags is empty. */
struct CompileResult {
  CompiledScenario scenario;
  std::vector<Diag> diags;

  bool ok() const { return diags.empty(); }
};

/** Lowers a parsed tree; collects diagnostics instead of failing. */
CompileResult Compile(const ModelDef& def, const ScenarioConfig& config);

/** Parse + Compile in one call; diagnostics from both stages merged. */
CompileResult CompileSource(std::string_view source,
                            const ScenarioConfig& config);

/** Reads a scenario file; false + `error` on I/O failure. */
bool ReadScenarioFile(const std::string& path, std::string* source,
                      std::string* error);

/** CompileSource over a file; I/O failures become a diagnostic. */
CompileResult CompileFile(const std::string& path,
                          const ScenarioConfig& config);

/** CompileFile that CENN_FATALs with formatted diagnostics on error. */
CompiledScenario CompileFileOrDie(const std::string& path,
                                  const ScenarioConfig& config);

/** Joins FormatDiag over `diags`, one per line. */
std::string FormatDiags(std::string_view file,
                        const std::vector<Diag>& diags);

/** Builds the SolverProgram exactly like MakeProgram does for models. */
SolverProgram MakeScenarioProgram(const CompiledScenario& scenario);

}  // namespace cenn::lang

#endif  // CENN_LANG_COMPILER_H_
