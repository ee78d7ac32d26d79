#include "runtime/model_source.h"

#include <stdexcept>

#include "lang/compiler.h"
#include "lang/parser.h"
#include "models/benchmark_model.h"

namespace cenn {

ResolvedModel
ResolveModelSource(const JobSpec& spec, std::uint64_t seed)
{
  ResolvedModel out;
  if (!spec.model.empty()) {
    ModelConfig mc;
    mc.rows = spec.rows;
    mc.cols = spec.cols;
    mc.seed = seed;
    const auto model = MakeModel(spec.model, mc);
    out.program = MakeProgram(*model);
    out.default_steps = static_cast<std::uint64_t>(model->DefaultSteps());
    out.label = model->Name();
    return out;
  }

  std::string source;
  std::string origin;
  if (!spec.model_file.empty()) {
    std::string error;
    if (!lang::ReadScenarioFile(spec.model_file, &source, &error)) {
      throw std::runtime_error(error);
    }
    origin = spec.model_file;
  } else if (!spec.model_source.empty()) {
    source = spec.model_source;
    origin = "<inline>";
  } else {
    throw std::runtime_error("job names no model");
  }

  lang::ScenarioConfig cfg;
  cfg.rows = spec.has_rows ? spec.rows : 0;
  cfg.cols = spec.has_cols ? spec.cols : 0;
  cfg.seed = seed;
  lang::CompileResult result = lang::CompileSource(source, cfg);
  if (!result.ok()) {
    std::string joined = lang::FormatDiags(origin, result.diags);
    for (char& c : joined) {
      if (c == '\n') {
        c = ';';
      }
    }
    throw std::runtime_error("scenario does not compile: " + joined);
  }
  out.program = lang::MakeScenarioProgram(result.scenario);
  out.default_steps = result.scenario.default_steps;
  out.label = result.scenario.name;
  return out;
}

std::pair<std::size_t, std::size_t>
JobGrid(const JobSpec& spec)
{
  if (!spec.model.empty()) {
    return {spec.rows, spec.cols};
  }
  // lang::ScenarioConfig's rule, with ResolveModelSource's config: a
  // side the spec gives is taken as given, a missing side comes from
  // the scenario's `grid` statement, else the compiler's default.
  const std::size_t rows = spec.has_rows ? spec.rows : 0;
  const std::size_t cols = spec.has_cols ? spec.cols : 0;
  if (rows != 0 && cols != 0) {
    return {rows, cols};
  }
  std::string source = spec.model_source;
  std::string error;  // an unreadable file fails ValidateJobSpec
  if (!spec.model_file.empty()) {
    lang::ReadScenarioFile(spec.model_file, &source, &error);
  }
  std::size_t grid_rows = lang::kDefaultGridSide;
  std::size_t grid_cols = lang::kDefaultGridSide;
  for (const lang::Statement& s : lang::Parse(source).def.statements) {
    if (s.kind == lang::Statement::Kind::kGrid) {
      grid_rows = static_cast<std::size_t>(s.a);
      grid_cols = static_cast<std::size_t>(s.b);
      break;
    }
  }
  return {rows != 0 ? rows : grid_rows, cols != 0 ? cols : grid_cols};
}

}  // namespace cenn
