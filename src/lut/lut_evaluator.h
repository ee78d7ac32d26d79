#ifndef CENN_LUT_LUT_EVALUATOR_H_
#define CENN_LUT_LUT_EVALUATOR_H_

/**
 * @file
 * FunctionEvaluator implementations that route nonlinear template
 * evaluation through the off-chip LUT + Taylor path, reproducing the
 * accelerator's approximation error in the functional engine.
 *
 * Combined with the two arithmetic engines this gives the four corners
 * of the Section 6.1 error breakdown:
 *   double + DirectEvaluator  -> reference ("GPU float")
 *   double + LutEvaluator     -> LUT error only
 *   fixed  + DirectEvaluator  -> fixed-point error only
 *   fixed  + LutEvaluator     -> the full accelerator datapath
 */

#include <memory>

#include "core/evaluator.h"
#include "lut/lut_bank.h"

namespace cenn {

/** LUT-backed evaluator on the fixed-point (hardware) datapath. */
class LutEvaluatorFixed final : public FunctionEvaluator<Fixed32>
{
  public:
    explicit LutEvaluatorFixed(std::shared_ptr<const LutBank> bank)
        : bank_(std::move(bank))
    {
    }

    Fixed32
    Evaluate(const NonlinearFunction& fn, Fixed32 x) override
    {
        return bank_->Get(fn).EvaluateFixed(x);
    }

    /** Hoists the per-function table lookup out of the hot loop. */
    BoundFunction<Fixed32>
    Bind(const NonlinearFunction& fn) override
    {
        return [bank = bank_, lut = &bank_->Get(fn)](Fixed32 x) {
          return lut->EvaluateFixed(x);
        };
    }

    /** Adopts a refit bank; closures bound earlier keep the old one. */
    bool
    RebindLutBank(const std::shared_ptr<const LutBank>& bank) override
    {
        if (bank == nullptr) {
          return false;
        }
        bank_ = bank;
        return true;
    }

    /** The bank this evaluator currently reads. */
    const std::shared_ptr<const LutBank>& Bank() const { return bank_; }

  private:
    std::shared_ptr<const LutBank> bank_;
};

/** LUT-backed evaluator in double arithmetic (isolates LUT error). */
class LutEvaluatorDouble final : public FunctionEvaluator<double>
{
  public:
    explicit LutEvaluatorDouble(std::shared_ptr<const LutBank> bank)
        : bank_(std::move(bank))
    {
    }

    double
    Evaluate(const NonlinearFunction& fn, double x) override
    {
        return bank_->Get(fn).EvaluateDouble(x);
    }

    /** Hoists the per-function table lookup out of the hot loop. */
    BoundFunction<double>
    Bind(const NonlinearFunction& fn) override
    {
        return [bank = bank_, lut = &bank_->Get(fn)](double x) {
          return lut->EvaluateDouble(x);
        };
    }

    /** The simd kernels gather the same table this evaluator binds. */
    FactorVecInfo
    Describe(const NonlinearFunction& fn) override
    {
        FactorVecInfo info;
        info.lut_view = bank_->Get(fn).View();
        return info;
    }

    /** Adopts a refit bank; closures bound earlier keep the old one. */
    bool
    RebindLutBank(const std::shared_ptr<const LutBank>& bank) override
    {
        if (bank == nullptr) {
          return false;
        }
        bank_ = bank;
        return true;
    }

    /** The bank this evaluator currently reads. */
    const std::shared_ptr<const LutBank>& Bank() const { return bank_; }

  private:
    std::shared_ptr<const LutBank> bank_;
};

}  // namespace cenn

#endif  // CENN_LUT_LUT_EVALUATOR_H_
