#ifndef CENN_CORE_EVALUATOR_H_
#define CENN_CORE_EVALUATOR_H_

/**
 * @file
 * Strategy interface for evaluating nonlinear template functions.
 *
 * The functional CeNN engine asks an evaluator for l(x) whenever a
 * template weight carries the WUI bit. Implementations:
 *  - DirectEvaluator: ideal math in double precision (reference).
 *  - LutEvaluator (src/lut): the paper's LUT + Taylor-series path,
 *    reproducing the accelerator's approximation error.
 */

#include <functional>
#include <memory>
#include <vector>

#include "core/nonlinear.h"
#include "core/num_traits.h"

namespace cenn {

class LutBank;     // src/lut — only ever carried as an opaque handle

/** A function evaluator specialized ("bound") to one l(.). */
template <typename T>
using BoundFunction = std::function<T(T)>;

/**
 * Structure-of-arrays view of a LUT's Taylor entries: one contiguous
 * double lane per coefficient, index i at sample point
 * min_p + i * spacing. Built once at table-build time (src/lut), so
 * the simd kernels gather 4 hot 8-byte lanes per lookup instead of
 * striding 72-byte TaylorTuples; the expansion point p is not stored —
 * it is recomputed per lane as min_p + (double)i * spacing, bit-equal
 * to the builder's expression.
 */
struct PackedTaylorView {
  const double* l_p = nullptr;  ///< exact l(p) per entry
  const double* a1 = nullptr;   ///< delta-form coefficient lanes
  const double* a2 = nullptr;
  const double* a3 = nullptr;
};

/**
 * Everything the vectorized kernels need to evaluate a LUT-backed
 * factor, decoupled from the table's concrete class: the AoS entry
 * array (exact scalar replicas, diagnostics), the packed SoA lanes
 * (simd gathers) and the sampling geometry (index computation).
 */
struct LutView {
  /** AoS Taylor tuples; index i is the entry at min_p + i*spacing. */
  const TaylorTuple* entries = nullptr;

  /** Packed coefficient lanes over the same index space. */
  PackedTaylorView packed;

  /** Sampling geometry (mirrors the table's LutSpec). */
  double min_p = 0.0;
  double spacing = 1.0;
  int num_entries = 0;

  bool Valid() const { return entries != nullptr; }
};

/**
 * What a bound function computes, described declaratively so the
 * explicitly vectorized kernels (kernels/soa_simd_impl.h) can inline
 * the same arithmetic across lanes instead of calling the bound
 * std::function per cell. At most one of poly/lut_view is set; when
 * neither is the kernels fall back to per-lane closure calls —
 * correct for any evaluator, just slower.
 */
struct FactorVecInfo {
  /** Horner coefficients, ascending: the bound fn is the polynomial
      evaluated in double then converted with NumTraits. */
  const std::vector<double>* poly = nullptr;

  /** The bound fn is the LUT delta-form cubic over this table
      (double engines only); see LutView. */
  LutView lut_view;
};

/** Evaluates l(x) for CeNN scalars of type T. */
template <typename T>
class FunctionEvaluator
{
  public:
    virtual ~FunctionEvaluator() = default;

    /** Returns l(x) in the engine's arithmetic. */
    virtual T Evaluate(const NonlinearFunction& fn, T x) = 0;

    /**
     * Returns a closure bit-identical to Evaluate(fn, .) with any
     * per-call setup (table lookups, dispatch) hoisted out — the hot
     * kernels bind each template factor once per program instead of
     * re-resolving it per cell. `fn` (and this evaluator) must
     * outlive the closure.
     */
    virtual BoundFunction<T>
    Bind(const NonlinearFunction& fn)
    {
        return [this, f = &fn](T x) { return this->Evaluate(*f, x); };
    }

    /**
     * Vectorization metadata for what Bind(fn) computes (see
     * FactorVecInfo). The default — nothing — keeps unknown
     * evaluators on the exact per-lane fallback.
     */
    virtual FactorVecInfo
    Describe(const NonlinearFunction& fn)
    {
        (void)fn;
        return {};
    }

    /**
     * Swaps the LUT bank this evaluator reads, if it reads one.
     * Returns false (the default) for evaluators without LUT state;
     * LUT-backed evaluators adopt `bank` and return true. Engines
     * call this through Engine::RebindLutBank at slice boundaries
     * (adaptive range refit) and recompile any closures bound against
     * the old bank; closures already bound keep the old bank alive
     * through their captured handle, so a swap never dangles.
     */
    virtual bool
    RebindLutBank(const std::shared_ptr<const LutBank>& bank)
    {
        (void)bank;
        return false;
    }
};

/** Ideal evaluator: computes l in double and converts to T. */
template <typename T>
class DirectEvaluator final : public FunctionEvaluator<T>
{
  public:
    T
    Evaluate(const NonlinearFunction& fn, T x) override
    {
        return NumTraits<T>::FromDouble(fn.Value(NumTraits<T>::ToDouble(x)));
    }

    /**
     * Known polynomials are bound as an inline Horner loop over the
     * stored coefficients — the identical arithmetic the generic
     * std::function body performs, minus the two virtual hops.
     */
    BoundFunction<T>
    Bind(const NonlinearFunction& fn) override
    {
        if (const std::vector<double>* coeffs = fn.PolyCoeffs()) {
          return [c = *coeffs](T x) {
            const double xd = NumTraits<T>::ToDouble(x);
            double acc = 0.0;
            for (std::size_t k = c.size(); k-- > 0;) {
              acc = acc * xd + c[k];
            }
            return NumTraits<T>::FromDouble(acc);
          };
        }
        return FunctionEvaluator<T>::Bind(fn);
    }

    /** Known polynomials expose their Horner coefficients. */
    FactorVecInfo
    Describe(const NonlinearFunction& fn) override
    {
        FactorVecInfo info;
        info.poly = fn.PolyCoeffs();
        return info;
    }
};

}  // namespace cenn

#endif  // CENN_CORE_EVALUATOR_H_
