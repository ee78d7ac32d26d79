#include "lang/compiler.h"

#include <cmath>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <utility>

#include "lang/fieldgen.h"
#include "lang/functions.h"
#include "mapping/mapper.h"
#include "util/logging.h"

namespace cenn::lang {
namespace {

constexpr std::size_t kMaxVars = 64;
constexpr std::size_t kMaxCells = std::size_t{1} << 26;
constexpr std::size_t kMaxProducts = 64;
constexpr std::size_t kMaxAtoms = 8;
constexpr int kMaxMergedPower = 9;
constexpr int kMaxEvalDepth = 64;
constexpr double kMaxLutSamples = 1048576.0;

/** One multiplicative building block of a normalized product. */
struct Atom {
  enum class Kind : std::uint8_t { kVar, kOp, kFn };
  Kind kind = Kind::kVar;
  int var = -1;
  int power = 1;  ///< kVar: exponent; kFn: polynomial power of the fn
  SpatialOp op = SpatialOp::kIdentity;
  Pos pos;
};

/** coeff * prod(atoms); a normalized additive term candidate. */
struct Product {
  double coeff = 1.0;
  std::vector<Atom> atoms;
  Pos pos;
};

using Poly = std::vector<Product>;

std::optional<SpatialOp>
SpatialOpByName(const std::string& name)
{
  if (name == "laplacian") {
    return SpatialOp::kLaplacian;
  }
  if (name == "laplacian9") {
    return SpatialOp::kLaplacian9;
  }
  if (name == "laplacian4th") {
    return SpatialOp::kLaplacian4th;
  }
  if (name == "dx" || name == "grad_x") {
    return SpatialOp::kDx;
  }
  if (name == "dy" || name == "grad_y") {
    return SpatialOp::kDy;
  }
  if (name == "input") {
    return SpatialOp::kInput;
  }
  return std::nullopt;
}

class Compiler
{
  public:
    Compiler(const ModelDef& def, const ScenarioConfig& config)
        : def_(def), config_(config)
    {
    }

    CompileResult
    Run()
    {
        CollectDeclarations();
        ResolveGeometry();
        ResolveEquations();
        ResolveFields();
        ResolveLuts();
        if (!result_.diags.empty()) {
          return std::move(result_);
        }
        BuildSystem();
        return std::move(result_);
    }

  private:
    void
    Error(Pos pos, std::string message)
    {
        result_.diags.push_back({pos, std::move(message)});
    }

    int
    VarIndex(const std::string& name) const
    {
        for (std::size_t i = 0; i < vars_.size(); ++i) {
          if (vars_[i]->name == name) {
            return static_cast<int>(i);
          }
        }
        return -1;
    }

    const double*
    ParamValue(const std::string& name) const
    {
        const auto it = params_.find(name);
        return it == params_.end() ? nullptr : &it->second;
    }

    // ----- pass 1: declarations ---------------------------------------

    void
    CollectDeclarations()
    {
        for (const Statement& s : def_.statements) {
          switch (s.kind) {
            case Statement::Kind::kScenario:
              UniqueStmt(&scenario_, s, "scenario");
              break;
            case Statement::Kind::kGrid:
              UniqueStmt(&grid_, s, "grid");
              break;
            case Statement::Kind::kSpacing:
              UniqueStmt(&spacing_, s, "h");
              break;
            case Statement::Kind::kDt:
              UniqueStmt(&dt_, s, "dt");
              break;
            case Statement::Kind::kSteps:
              UniqueStmt(&steps_, s, "steps");
              break;
            case Statement::Kind::kBoundary:
              UniqueStmt(&boundary_, s, "boundary");
              break;
            case Statement::Kind::kParam: {
              if (params_.count(s.name) != 0 || VarIndex(s.name) >= 0) {
                Error(s.pos, "redefinition of '" + s.name + "'");
                break;
              }
              const auto value = EvalConst(s.value, 0);
              if (value.has_value()) {
                params_.emplace(s.name, *value);
              }
              break;
            }
            case Statement::Kind::kVar:
              if (params_.count(s.name) != 0 || VarIndex(s.name) >= 0) {
                Error(s.pos, "redefinition of '" + s.name + "'");
                break;
              }
              if (vars_.size() >= kMaxVars) {
                Error(s.pos, "too many variables");
                break;
              }
              vars_.push_back(&s);
              break;
            default:
              break;
          }
        }
        if (vars_.empty()) {
          Error(Pos{1, 1}, "scenario declares no variables");
        }
    }

    void
    UniqueStmt(const Statement** slot, const Statement& s, const char* what)
    {
        if (*slot != nullptr) {
          Error(s.pos, std::string("duplicate '") + what + "' statement");
          return;
        }
        *slot = &s;
    }

    // ----- pass 2: geometry / time ------------------------------------

    void
    ResolveGeometry()
    {
        // A side the config gives is taken as given; a side it leaves 0
        // comes from the `grid` statement, else the default.
        rows_ = config_.rows;
        cols_ = config_.cols;
        if (rows_ == 0) {
          rows_ = grid_ != nullptr ? static_cast<std::size_t>(grid_->a)
                                   : kDefaultGridSide;
        }
        if (cols_ == 0) {
          cols_ = grid_ != nullptr ? static_cast<std::size_t>(grid_->b)
                                   : kDefaultGridSide;
        }
        const Pos grid_pos = grid_ != nullptr ? grid_->pos : Pos{1, 1};
        if (rows_ == 0 || cols_ == 0) {
          Error(grid_pos, "grid must be at least 1x1");
          rows_ = cols_ = 1;
        }
        if (rows_ * cols_ > kMaxCells) {
          Error(grid_pos, "grid too large");
          rows_ = cols_ = 1;
        }
        if (spacing_ != nullptr) {
          const auto v = EvalConst(spacing_->value, 0);
          if (v.has_value()) {
            if (*v > 0.0) {
              h_ = *v;
            } else {
              Error(spacing_->pos, "h must be positive");
            }
          }
        }
        if (dt_ == nullptr) {
          Error(Pos{1, 1}, "missing 'dt' statement");
        } else {
          const auto v = EvalConst(dt_->value, 0);
          if (v.has_value()) {
            if (*v > 0.0) {
              dt_value_ = *v;
            } else {
              Error(dt_->pos, "dt must be positive");
            }
          }
        }
        if (boundary_ != nullptr) {
          const std::string& kind = boundary_->name;
          if (kind == "zero_flux") {
            bc_.kind = BoundaryKind::kZeroFlux;
          } else if (kind == "periodic") {
            bc_.kind = BoundaryKind::kPeriodic;
          } else if (kind == "dirichlet") {
            bc_.kind = BoundaryKind::kDirichlet;
            if (boundary_->has_value) {
              const auto v = EvalConst(boundary_->value, 0);
              if (v.has_value()) {
                bc_.value = *v;
              }
            }
          } else {
            Error(boundary_->pos, "unknown boundary kind '" + kind +
                                      "' (want zero_flux|periodic|dirichlet)");
          }
          if (boundary_->has_value && kind != "dirichlet") {
            Error(boundary_->pos,
                  "boundary value only applies to dirichlet");
          }
        }
    }

    // ----- equations --------------------------------------------------

    void
    ResolveEquations()
    {
        equations_.assign(vars_.size(), nullptr);
        terms_.assign(vars_.size(), {});
        for (const Statement& s : def_.statements) {
          if (s.kind != Statement::Kind::kEquation) {
            continue;
          }
          const int v = VarIndex(s.name);
          if (v < 0) {
            Error(s.pos, "equation for undeclared variable '" + s.name + "'");
            continue;
          }
          if (equations_[static_cast<std::size_t>(v)] != nullptr) {
            Error(s.pos, "duplicate equation for '" + s.name + "'");
            continue;
          }
          equations_[static_cast<std::size_t>(v)] = &s;
          const auto poly = BuildPoly(s.value, 0);
          if (!poly.has_value()) {
            continue;
          }
          std::vector<Term> terms;
          for (const Product& p : *poly) {
            auto term = ProductToTerm(p);
            if (!term.has_value()) {
              terms.clear();
              break;
            }
            terms.push_back(std::move(*term));
          }
          terms_[static_cast<std::size_t>(v)] = std::move(terms);
        }
        for (std::size_t v = 0; v < vars_.size(); ++v) {
          if (equations_[v] == nullptr) {
            Error(vars_[v]->pos,
                  "variable '" + vars_[v]->name + "' has no equation");
          }
        }
    }

    // ----- init / input -----------------------------------------------

    void
    ResolveFields()
    {
        initialized_.assign(vars_.size(), false);
        input_set_.assign(vars_.size(), false);
        for (const Statement& s : def_.statements) {
          if (s.kind != Statement::Kind::kInit &&
              s.kind != Statement::Kind::kInput) {
            continue;
          }
          const bool is_input = s.kind == Statement::Kind::kInput;
          PendingGen gen;
          gen.stmt = &s;
          gen.is_input = is_input;
          bool targets_ok = true;
          for (const std::string& name : s.names) {
            const int v = VarIndex(name);
            if (v < 0) {
              Error(s.pos, (is_input ? std::string("input")
                                     : std::string("init")) +
                               " target '" + name +
                               "' is not a declared variable");
              targets_ok = false;
              continue;
            }
            auto& seen = is_input ? input_set_ : initialized_;
            if (seen[static_cast<std::size_t>(v)]) {
              Error(s.pos, "duplicate " +
                               (is_input ? std::string("input")
                                         : std::string("init")) +
                               " for '" + name + "'");
              targets_ok = false;
              continue;
            }
            seen[static_cast<std::size_t>(v)] = true;
            gen.targets.push_back(v);
          }
          gen.info = FindGenerator(s.gen.name);
          if (gen.info == nullptr) {
            Error(s.gen.pos, "unknown generator '" + s.gen.name + "'");
            continue;
          }
          if (!ResolveGenArgs(s.gen, *gen.info, &gen.args)) {
            continue;
          }
          if (targets_ok &&
              gen.info->fields != static_cast<int>(gen.targets.size())) {
            Error(s.pos, "generator '" + s.gen.name + "' produces " +
                             std::to_string(gen.info->fields) +
                             " field(s) but " +
                             std::to_string(gen.targets.size()) +
                             " target(s) given");
            continue;
          }
          if (rows_ < gen.info->min_rows || cols_ < gen.info->min_cols) {
            Error(s.pos, "generator '" + s.gen.name + "' needs at least a " +
                             std::to_string(gen.info->min_rows) + "x" +
                             std::to_string(gen.info->min_cols) + " grid");
            continue;
          }
          if (targets_ok) {
            gens_.push_back(std::move(gen));
          }
        }
    }

    bool
    ResolveGenArgs(const GenCall& call, const GeneratorInfo& info,
                   std::vector<double>* out)
    {
        out->assign(info.params.size(), 0.0);
        std::vector<bool> given(info.params.size(), false);
        bool ok = true;
        for (const GenArg& arg : call.args) {
          int index = -1;
          for (std::size_t i = 0; i < info.params.size(); ++i) {
            if (arg.name == info.params[i].name) {
              index = static_cast<int>(i);
              break;
            }
          }
          if (index < 0) {
            Error(arg.pos, "generator '" + call.name +
                               "' has no argument '" + arg.name + "'");
            ok = false;
            continue;
          }
          if (given[static_cast<std::size_t>(index)]) {
            Error(arg.pos, "duplicate argument '" + arg.name + "'");
            ok = false;
            continue;
          }
          given[static_cast<std::size_t>(index)] = true;
          const auto value = EvalConst(arg.value, 0);
          if (!value.has_value()) {
            ok = false;
            continue;
          }
          const GenParam& p = info.params[static_cast<std::size_t>(index)];
          if (p.integer &&
              (*value < 0.0 || *value > static_cast<double>(p.max_int) ||
               *value != std::floor(*value))) {
            Error(arg.pos, "argument '" + arg.name +
                               "' must be an integer in [0, " +
                               std::to_string(p.max_int) + "]");
            ok = false;
            continue;
          }
          (*out)[static_cast<std::size_t>(index)] = *value;
        }
        for (std::size_t i = 0; i < info.params.size(); ++i) {
          if (info.params[i].required && !given[i]) {
            Error(call.pos, "generator '" + call.name +
                                "' requires argument '" +
                                info.params[i].name + "'");
            ok = false;
          } else if (!given[i]) {
            (*out)[i] = info.params[i].def;
          }
        }
        return ok;
    }

    // ----- luts --------------------------------------------------------

    void
    ResolveLuts()
    {
        for (const Statement& s : def_.statements) {
          if (s.kind != Statement::Kind::kLut) {
            continue;
          }
          if (!lut_seen_.insert(s.name).second) {
            Error(s.pos, "duplicate lut statement for '" + s.name + "'");
            continue;
          }
          const auto lo = EvalConst(s.lut_min, 0);
          const auto hi = EvalConst(s.lut_max, 0);
          if (!lo.has_value() || !hi.has_value()) {
            continue;
          }
          if (!(*lo < *hi)) {
            Error(s.pos, "lut range must satisfy min < max");
            continue;
          }
          LutSpec spec;
          spec.min_p = *lo;
          spec.max_p = *hi;
          spec.frac_index_bits = static_cast<int>(s.a);
          if ((*hi - *lo) * std::exp2(spec.frac_index_bits) >
              kMaxLutSamples) {
            Error(s.pos, "lut table too large");
            continue;
          }
          if (s.name == "default") {
            luts_.default_spec = spec;
          } else {
            luts_.per_function[s.name] = spec;
          }
        }
    }

    // ----- constant folding -------------------------------------------

    std::optional<double>
    EvalConst(const Expr& e, int depth)
    {
        if (depth > kMaxEvalDepth) {
          Error(e.pos, "expression nested too deeply");
          return std::nullopt;
        }
        switch (e.kind) {
          case Expr::Kind::kNumber:
            return e.number;
          case Expr::Kind::kRef: {
            if (const double* p = ParamValue(e.name)) {
              return *p;
            }
            if (VarIndex(e.name) >= 0) {
              Error(e.pos, "variable '" + e.name +
                               "' is not allowed in a constant expression");
            } else {
              Error(e.pos, "unknown name '" + e.name + "'");
            }
            return std::nullopt;
          }
          case Expr::Kind::kUnary: {
            if (e.children.empty()) {
              return std::nullopt;
            }
            const auto v = EvalConst(e.children[0], depth + 1);
            if (!v.has_value()) {
              return std::nullopt;
            }
            return -*v;
          }
          case Expr::Kind::kBinary: {
            if (e.children.size() != 2) {
              return std::nullopt;
            }
            const auto l = EvalConst(e.children[0], depth + 1);
            const auto r = EvalConst(e.children[1], depth + 1);
            if (!l.has_value() || !r.has_value()) {
              return std::nullopt;
            }
            double value = 0.0;
            switch (e.op) {
              case '+':
                value = *l + *r;
                break;
              case '-':
                value = *l - *r;
                break;
              case '*':
                value = *l * *r;
                break;
              case '/':
                if (*r == 0.0) {
                  Error(e.pos, "division by zero");
                  return std::nullopt;
                }
                value = *l / *r;
                break;
              default:
                return std::nullopt;
            }
            if (!std::isfinite(value)) {
              Error(e.pos, "non-finite constant");
              return std::nullopt;
            }
            return value;
          }
          case Expr::Kind::kPower: {
            if (e.children.empty() || e.exponent < 0) {
              return std::nullopt;
            }
            const auto base = EvalConst(e.children[0], depth + 1);
            if (!base.has_value()) {
              return std::nullopt;
            }
            // Left-associative repeated multiplication so that e.g.
            // speed^2 folds to the bits of speed*speed.
            double value = 1.0;
            if (e.exponent >= 1) {
              value = *base;
              for (int k = 2; k <= e.exponent; ++k) {
                value *= *base;
              }
            }
            if (!std::isfinite(value)) {
              Error(e.pos, "non-finite constant");
              return std::nullopt;
            }
            return value;
          }
          case Expr::Kind::kCall:
            Error(e.pos,
                  "function calls are not allowed in constant expressions");
            return std::nullopt;
        }
        return std::nullopt;
    }

    // ----- polynomial normalization -----------------------------------

    /**
     * Folds a fully-constant subexpression without emitting
     * diagnostics; nullopt means "not constant" (or genuinely broken,
     * which the polynomial path will then diagnose). Folding whole
     * parenthesized groups like (feed + kill) into one double BEFORE
     * distributing over variables keeps coefficients bit-identical to
     * the C++ models, which compute them as single expressions.
     */
    std::optional<double>
    TryEvalConst(const Expr& e)
    {
        std::vector<Diag> saved;
        saved.swap(result_.diags);
        std::optional<double> value = EvalConst(e, 0);
        saved.swap(result_.diags);
        return value;
    }

    bool
    MergeAtom(Product* product, Atom atom)
    {
        if (atom.kind == Atom::Kind::kVar) {
          for (Atom& existing : product->atoms) {
            if (existing.kind == Atom::Kind::kVar &&
                existing.var == atom.var) {
              existing.power += atom.power;
              if (existing.power > kMaxMergedPower) {
                Error(atom.pos, "variable power too large");
                return false;
              }
              return true;
            }
          }
        }
        if (atom.kind == Atom::Kind::kOp) {
          for (const Atom& existing : product->atoms) {
            if (existing.kind == Atom::Kind::kOp) {
              Error(atom.pos,
                    "a term may use at most one spatial operator");
              return false;
            }
          }
        }
        if (product->atoms.size() >= kMaxAtoms) {
          Error(atom.pos, "term has too many factors");
          return false;
        }
        product->atoms.push_back(std::move(atom));
        return true;
    }

    std::optional<Poly>
    BuildPoly(const Expr& e, int depth)
    {
        if (depth > kMaxEvalDepth) {
          Error(e.pos, "expression nested too deeply");
          return std::nullopt;
        }
        switch (e.kind) {
          case Expr::Kind::kNumber: {
            Product p;
            p.coeff = e.number;
            p.pos = e.pos;
            return Poly{std::move(p)};
          }
          case Expr::Kind::kRef: {
            if (const double* value = ParamValue(e.name)) {
              Product p;
              p.coeff = *value;
              p.pos = e.pos;
              return Poly{std::move(p)};
            }
            const int v = VarIndex(e.name);
            if (v < 0) {
              Error(e.pos, "unknown name '" + e.name + "'");
              return std::nullopt;
            }
            Product p;
            p.pos = e.pos;
            p.atoms.push_back({Atom::Kind::kVar, v, 1,
                               SpatialOp::kIdentity, e.pos});
            return Poly{std::move(p)};
          }
          case Expr::Kind::kUnary: {
            if (e.children.empty()) {
              return std::nullopt;
            }
            auto poly = BuildPoly(e.children[0], depth + 1);
            if (!poly.has_value()) {
              return std::nullopt;
            }
            for (Product& p : *poly) {
              p.coeff = -p.coeff;
            }
            return poly;
          }
          case Expr::Kind::kBinary: {
            const auto folded = TryEvalConst(e);
            if (folded.has_value()) {
              Product p;
              p.coeff = *folded;
              p.pos = e.pos;
              return Poly{std::move(p)};
            }
            return BuildBinary(e, depth);
          }
          case Expr::Kind::kPower: {
            if (e.children.empty()) {
              return std::nullopt;
            }
            const Expr& base = e.children[0];
            if (base.kind == Expr::Kind::kRef && VarIndex(base.name) >= 0) {
              if (e.exponent == 0) {
                Product p;
                p.pos = e.pos;
                return Poly{std::move(p)};
              }
              Product p;
              p.pos = e.pos;
              p.atoms.push_back({Atom::Kind::kVar, VarIndex(base.name),
                                 e.exponent, SpatialOp::kIdentity, e.pos});
              return Poly{std::move(p)};
            }
            const auto value = EvalConst(e, depth + 1);
            if (!value.has_value()) {
              return std::nullopt;
            }
            Product p;
            p.coeff = *value;
            p.pos = e.pos;
            return Poly{std::move(p)};
          }
          case Expr::Kind::kCall: {
            if (e.children.empty()) {
              return std::nullopt;
            }
            const Expr& arg = e.children[0];
            const int v =
                arg.kind == Expr::Kind::kRef ? VarIndex(arg.name) : -1;
            const auto op = SpatialOpByName(e.name);
            const int fn_power = PowerForFunctionName(e.name);
            if (!op.has_value() && fn_power < 0) {
              Error(e.pos,
                    "unknown function or operator '" + e.name +
                        "' (operators: laplacian, laplacian9, laplacian4th, "
                        "dx, dy, input; functions: identity, square, cube, "
                        "quartic)");
              return std::nullopt;
            }
            if (v < 0) {
              Error(arg.pos, "argument of '" + e.name +
                                 "' must be a declared variable");
              return std::nullopt;
            }
            Product p;
            p.pos = e.pos;
            if (op.has_value()) {
              p.atoms.push_back({Atom::Kind::kOp, v, 1, *op, e.pos});
            } else {
              p.atoms.push_back({Atom::Kind::kFn, v, fn_power,
                                 SpatialOp::kIdentity, e.pos});
            }
            return Poly{std::move(p)};
          }
        }
        return std::nullopt;
    }

    std::optional<Poly>
    BuildBinary(const Expr& e, int depth)
    {
        if (e.children.size() != 2) {
          return std::nullopt;
        }
        auto lhs = BuildPoly(e.children[0], depth + 1);
        auto rhs = BuildPoly(e.children[1], depth + 1);
        if (!lhs.has_value() || !rhs.has_value()) {
          return std::nullopt;
        }
        switch (e.op) {
          case '+':
          case '-': {
            Poly out = std::move(*lhs);
            for (Product& p : *rhs) {
              if (e.op == '-') {
                p.coeff = -p.coeff;
              }
              out.push_back(std::move(p));
            }
            if (out.size() > kMaxProducts) {
              Error(e.pos, "expression expands to too many terms");
              return std::nullopt;
            }
            return out;
          }
          case '*': {
            if (lhs->size() * rhs->size() > kMaxProducts) {
              Error(e.pos, "expression expands to too many terms");
              return std::nullopt;
            }
            Poly out;
            for (const Product& lp : *lhs) {
              for (const Product& rp : *rhs) {
                Product p;
                p.pos = e.pos;
                p.coeff = lp.coeff * rp.coeff;
                if (!std::isfinite(p.coeff)) {
                  Error(e.pos, "non-finite coefficient");
                  return std::nullopt;
                }
                p.atoms = lp.atoms;
                bool ok = true;
                for (const Atom& atom : rp.atoms) {
                  if (!MergeAtom(&p, atom)) {
                    ok = false;
                    break;
                  }
                }
                if (!ok) {
                  return std::nullopt;
                }
                out.push_back(std::move(p));
              }
            }
            return out;
          }
          case '/': {
            if (rhs->size() != 1 || !rhs->front().atoms.empty()) {
              Error(e.pos, "can only divide by a constant");
              return std::nullopt;
            }
            const double divisor = rhs->front().coeff;
            if (divisor == 0.0) {
              Error(e.pos, "division by zero");
              return std::nullopt;
            }
            Poly out = std::move(*lhs);
            for (Product& p : out) {
              p.coeff /= divisor;
              if (!std::isfinite(p.coeff)) {
                Error(e.pos, "non-finite coefficient");
                return std::nullopt;
              }
            }
            return out;
          }
          default:
            return std::nullopt;
        }
    }

    /**
     * Normalizes one product into a Term, choosing the linear carrier
     * the way the hand-coded models do:
     *  - a spatial operator, when present, is always the carrier;
     *  - else the unique power-1 variable (u^2*v -> square(u) * v);
     *  - else the first variable, with its residual power as a factor
     *    (u^3 -> square(u) * u).
     */
    std::optional<Term>
    ProductToTerm(const Product& product)
    {
        const Atom* op_atom = nullptr;
        const Atom* first_var = nullptr;
        const Atom* unique_power1 = nullptr;
        int power1_count = 0;
        for (const Atom& a : product.atoms) {
          if (a.kind == Atom::Kind::kOp) {
            op_atom = &a;
          } else if (a.kind == Atom::Kind::kVar) {
            if (first_var == nullptr) {
              first_var = &a;
            }
            if (a.power == 1) {
              ++power1_count;
              unique_power1 = &a;
            }
          }
        }
        Term term;
        term.coeff = product.coeff;
        term.op = SpatialOp::kIdentity;
        term.var = -1;
        term.factors.clear();
        const Atom* carrier = nullptr;
        if (op_atom != nullptr) {
          term.op = op_atom->op;
          term.var = op_atom->var;
        } else if (first_var != nullptr) {
          carrier = power1_count == 1 ? unique_power1 : first_var;
          term.var = carrier->var;
        }
        for (const Atom& a : product.atoms) {
          if (a.kind == Atom::Kind::kOp) {
            continue;
          }
          int power = a.power;
          if (&a == carrier) {
            --power;
            if (power == 0) {
              continue;
            }
          }
          if (power < 1 || power > 4) {
            Error(a.pos,
                  "variable power too large for a nonlinear factor "
                  "(max x^4, or x^5 on the carrier variable)");
            return std::nullopt;
          }
          term.factors.push_back({a.var, PowerFn(power)});
        }
        return term;
    }

    // ----- assembly ----------------------------------------------------

    void
    BuildSystem()
    {
        CompiledScenario& sc = result_.scenario;
        sc.name = scenario_ != nullptr ? scenario_->name : "scenario";
        sc.default_steps = steps_ != nullptr ? steps_->a : 0;
        sc.luts = luts_;

        EquationSystem& system = sc.system;
        system.name = sc.name;
        system.rows = rows_;
        system.cols = cols_;
        system.h = h_;
        system.dt = dt_value_;
        system.boundary = bc_;
        for (std::size_t v = 0; v < vars_.size(); ++v) {
          EquationDef eq;
          eq.var_name = vars_[v]->name;
          eq.time_order = equations_[v]->time_order;
          eq.terms = std::move(terms_[v]);
          system.equations.push_back(std::move(eq));
        }
        for (const PendingGen& gen : gens_) {
          auto fields = RunGenerator(*gen.info, gen.args, rows_, cols_,
                                     config_.seed);
          for (std::size_t k = 0; k < gen.targets.size(); ++k) {
            auto& eq =
                system.equations[static_cast<std::size_t>(gen.targets[k])];
            if (gen.is_input) {
              eq.input = std::move(fields[k]);
            } else {
              eq.initial = std::move(fields[k]);
            }
          }
        }
        // Backstop: the checks above guarantee this cannot fire.
        system.Validate();
    }

    struct PendingGen {
      const Statement* stmt = nullptr;
      const GeneratorInfo* info = nullptr;
      std::vector<double> args;
      std::vector<int> targets;
      bool is_input = false;
    };

    const ModelDef& def_;
    const ScenarioConfig& config_;
    CompileResult result_;

    const Statement* scenario_ = nullptr;
    const Statement* grid_ = nullptr;
    const Statement* spacing_ = nullptr;
    const Statement* dt_ = nullptr;
    const Statement* steps_ = nullptr;
    const Statement* boundary_ = nullptr;

    std::map<std::string, double> params_;
    std::vector<const Statement*> vars_;
    std::vector<const Statement*> equations_;
    std::vector<std::vector<Term>> terms_;
    std::vector<bool> initialized_;
    std::vector<bool> input_set_;
    std::vector<PendingGen> gens_;
    LutConfig luts_;
    std::set<std::string> lut_seen_;

    std::size_t rows_ = 64;
    std::size_t cols_ = 64;
    double h_ = 1.0;
    double dt_value_ = 1e-3;
    Boundary bc_;
};

}  // namespace

CompileResult
Compile(const ModelDef& def, const ScenarioConfig& config)
{
  return Compiler(def, config).Run();
}

CompileResult
CompileSource(std::string_view source, const ScenarioConfig& config)
{
  ParseResult parsed = Parse(source);
  if (!parsed.ok()) {
    CompileResult result;
    result.diags = std::move(parsed.diags);
    return result;
  }
  return Compile(parsed.def, config);
}

bool
ReadScenarioFile(const std::string& path, std::string* source,
                 std::string* error)
{
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *error = "cannot open '" + path + "'";
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) {
    *error = "cannot read '" + path + "'";
    return false;
  }
  *source = buffer.str();
  return true;
}

CompileResult
CompileFile(const std::string& path, const ScenarioConfig& config)
{
  std::string source;
  std::string error;
  if (!ReadScenarioFile(path, &source, &error)) {
    CompileResult result;
    result.diags.push_back({Pos{1, 1}, error});
    return result;
  }
  return CompileSource(source, config);
}

CompiledScenario
CompileFileOrDie(const std::string& path, const ScenarioConfig& config)
{
  CompileResult result = CompileFile(path, config);
  if (!result.ok()) {
    CENN_FATAL("scenario '", path, "' does not compile:\n",
               FormatDiags(path, result.diags));
  }
  return std::move(result.scenario);
}

std::string
FormatDiags(std::string_view file, const std::vector<Diag>& diags)
{
  std::string out;
  for (const Diag& d : diags) {
    if (!out.empty()) {
      out.push_back('\n');
    }
    out += FormatDiag(file, d);
  }
  return out;
}

SolverProgram
MakeScenarioProgram(const CompiledScenario& scenario)
{
  SolverProgram program;
  program.spec = Mapper::Map(scenario.system);
  program.lut_config = scenario.luts;
  program.description = "scenario '" + scenario.name + "'";
  return program;
}

}  // namespace cenn::lang
