#include "lang/spec_dump.h"

#include <bit>
#include <sstream>

#include "core/grid.h"
#include "lang/printer.h"
#include "mapping/mapper.h"
#include "util/hash.h"

namespace cenn::lang {
namespace {

/** FNV-1a over the raw bit patterns of a double field. */
std::uint64_t
FieldHash(const std::vector<double>& field)
{
  std::uint64_t hash = kFnvOffsetBasis;
  for (const double x : field) {
    hash = FnvMix(hash, std::bit_cast<std::uint64_t>(x));
  }
  return hash;
}

const char*
BoundaryName(BoundaryKind kind)
{
  switch (kind) {
    case BoundaryKind::kZeroFlux:
      return "zero_flux";
    case BoundaryKind::kDirichlet:
      return "dirichlet";
    case BoundaryKind::kPeriodic:
      return "periodic";
  }
  return "?";
}

void
PrintFactors(std::ostringstream* out, const std::vector<WeightFactor>& factors)
{
  for (const WeightFactor& f : factors) {
    *out << " * " << (f.fn ? f.fn->Name() : std::string("<null>")) << "(x"
         << f.ctrl_layer << (f.at_source ? "@src" : "") << ")";
  }
}

void
PrintField(std::ostringstream* out, const char* label,
           const std::vector<double>& field)
{
  if (field.empty()) {
    return;
  }
  *out << "  " << label << " fnv1a " << std::hex << FieldHash(field)
       << std::dec << "\n";
}

void
PrintLut(std::ostringstream* out, const std::string& name,
         const LutSpec& spec)
{
  *out << "lut " << name << " min " << FormatNumber(spec.min_p) << " max "
       << FormatNumber(spec.max_p) << " bits " << spec.frac_index_bits
       << "\n";
}

}  // namespace

std::string
DumpSpec(const NetworkSpec& spec, const LutConfig& luts,
         std::uint64_t default_steps)
{
  std::ostringstream out;
  out << "scenario " << spec.name << "\n";
  out << "grid " << spec.rows << "x" << spec.cols << " boundary "
      << BoundaryName(spec.boundary.kind);
  if (spec.boundary.kind == BoundaryKind::kDirichlet) {
    out << " value " << FormatNumber(spec.boundary.value);
  }
  out << " dt " << FormatNumber(spec.dt) << " integrator "
      << IntegratorName(spec.integrator) << "\n";
  if (default_steps != 0) {
    out << "steps " << default_steps << "\n";
  }
  PrintLut(&out, "default", luts.default_spec);
  for (const auto& [name, lut] : luts.per_function) {
    PrintLut(&out, name, lut);
  }
  out << "layers " << spec.NumLayers() << " templates_needing_update "
      << spec.CountTemplatesNeedingUpdate() << " nonlinear_weights "
      << spec.CountNonlinearWeights() << "\n";
  for (int i = 0; i < spec.NumLayers(); ++i) {
    const LayerSpec& layer = spec.layers[static_cast<std::size_t>(i)];
    out << "layer " << i << " " << layer.name << " z "
        << FormatNumber(layer.z) << " self_decay "
        << (layer.has_self_decay ? 1 : 0) << "\n";
    for (const Coupling& coupling : layer.couplings) {
      const int side = coupling.kernel.Side();
      out << "  coupling " << CouplingKindName(coupling.kind) << " src "
          << coupling.src_layer << " side " << side << "\n";
      const int radius = coupling.kernel.Radius();
      for (int dr = -radius; dr <= radius; ++dr) {
        for (int dc = -radius; dc <= radius; ++dc) {
          const TemplateWeight& w = coupling.kernel.At(dr, dc);
          if (w.constant == 0.0 && !w.NeedsUpdate()) {
            continue;
          }
          out << "    w " << dr << " " << dc << " "
              << FormatNumber(w.constant);
          PrintFactors(&out, w.factors);
          out << "\n";
        }
      }
    }
    for (const OffsetTerm& term : layer.offset_terms) {
      out << "  offset " << FormatNumber(term.constant);
      PrintFactors(&out, term.factors);
      out << "\n";
    }
    PrintField(&out, "initial", layer.initial_state);
    PrintField(&out, "input", layer.input);
  }
  for (const ResetRule& rule : spec.resets) {
    out << "reset trigger " << rule.trigger_layer << " threshold "
        << FormatNumber(rule.threshold) << "\n";
    for (const ResetAction& action : rule.actions) {
      out << "  " << (action.is_set ? "set" : "add") << " " << action.layer
          << " " << FormatNumber(action.value) << "\n";
    }
  }
  return out.str();
}

std::string
DumpScenario(const CompiledScenario& scenario)
{
  return DumpSpec(Mapper::Map(scenario.system), scenario.luts,
                  scenario.default_steps);
}

}  // namespace cenn::lang
