#ifndef CENN_LUT_OFF_CHIP_LUT_H_
#define CENN_LUT_OFF_CHIP_LUT_H_

/**
 * @file
 * The off-chip (main-memory) look-up table of Fig. 5: for each sample
 * point p it stores the exact value l(p) and the rearranged Taylor
 * coefficients {c0, c1, c2, c3 - l(p)} of eq. (10), so a PE's Template
 * Update Module can either use l(p) directly (exact hit) or evaluate
 * alpha = c0 + c1*x + c2*x^2 for states between samples.
 *
 * The paper samples at integer points (the upper 16 bits of the Q16.16
 * state are the index). LutSpec generalizes the sample spacing to any
 * power of two (2^-frac_index_bits); frac_index_bits = 0 reproduces the
 * paper exactly and is the default.
 */

#include <cstdint>
#include <vector>

#include "core/evaluator.h"
#include "core/nonlinear.h"
#include "fixed/fixed32.h"

namespace cenn {

/** Sampling geometry of an off-chip LUT. */
struct LutSpec {
  /** Smallest sample point (inclusive). */
  double min_p = -8.0;

  /** Largest sample point (inclusive). */
  double max_p = 8.0;

  /**
   * log2 of the inverse sample spacing; spacing = 2^-frac_index_bits.
   * 0 = integer sample points (the paper's format).
   */
  int frac_index_bits = 0;

  /** Distance between adjacent sample points. */
  double Spacing() const;

  /** Number of sample points covering [min_p, max_p]. */
  int NumPoints() const;

  /** Fatal on inverted range or out-of-range frac bits. */
  void Validate() const;
};

/**
 * A fully materialized off-chip LUT for one nonlinear function.
 *
 * Entries are indexed 0..NumEntries()-1 from min_p upward; index i
 * corresponds to sample point p = min_p + i * spacing. DRAM block
 * fetches return kBlockFetchSize consecutive entries aligned to the
 * block size (Section 4.1: a miss on p = 3.0 fetches p = 0.0..7.0).
 */
class OffChipLut
{
  public:
    /** Entries fetched per DRAM access on an L2 miss. */
    static constexpr int kBlockFetchSize = 8;

    /** Samples `fn` over the spec's range; O(NumPoints) Taylor builds. */
    OffChipLut(NonlinearFnPtr fn, LutSpec spec);

    const LutSpec& Spec() const { return spec_; }
    const NonlinearFunction& Fn() const { return *fn_; }
    int NumEntries() const { return static_cast<int>(entries_.size()); }

    /** Index of the sample at or below x, clamped into range. */
    int IndexOf(double x) const;

    /**
     * Index for a fixed-point state, extracted from the raw Q16.16
     * bits exactly as the hardware does: an arithmetic right shift by
     * (16 - frac_index_bits) yields floor(x / spacing), minus the
     * grid origin min_p / spacing, clamped into range. Equal to
     * IndexOf(x.ToDouble()) for every raw value (both computations
     * are exact); when min_p does not sit on the sample grid the
     * shift origin is undefined and the double path is used directly.
     */
    int IndexOf(Fixed32 x) const;

    /** Entry by index (bounds-checked). */
    const TaylorTuple& Entry(int index) const;

    /**
     * The contiguous entry array, for exact scalar replicas and
     * diagnostics (index i is the entry at min_p + i * spacing).
     */
    const TaylorTuple* EntriesData() const { return entries_.data(); }

    /**
     * The kernel-facing view of this table: AoS entries, the packed
     * SoA coefficient lanes and the sampling geometry. Pointers stay
     * valid for the table's lifetime (entries are immutable).
     */
    LutView View() const;

    /** Packed SoA coefficient lanes (subset of View()). */
    const PackedTaylorView& Packed() const { return packed_; }

    /**
     * Packed Q16.16 lanes and raw-bit geometry (subset of View());
     * unset when a sample point is not a Q16.16 word (see
     * PackedFixedView).
     */
    const PackedFixedView& PackedFixed() const { return packed_fixed_; }

    /**
     * Resident bytes of this table: AoS entries, quantized entries
     * and both packed lane sets (the LutStore's resident_bytes
     * accounting).
     */
    std::uint64_t FootprintBytes() const;

    /** Entry whose sample point is at or below x. */
    const TaylorTuple& LookupTuple(double x) const
    {
        return Entry(IndexOf(x));
    }

    /** Base index of the aligned DRAM fetch block containing `index`. */
    int
    BlockBase(int index) const
    {
        return index & ~(kBlockFetchSize - 1);
    }

    /**
     * True when x lands exactly on a sample point, i.e. the fractional
     * bits below the index granularity are all zero — the hardware's
     * "use l(p) directly" test on the lower 16 state bits.
     */
    bool IsExactSample(Fixed32 x) const;

    /**
     * LUT-approximated l(x) computed in double precision. Isolates the
     * Taylor/LUT approximation error from fixed-point rounding
     * (Section 6.1's error breakdown).
     */
    double EvaluateDouble(double x) const;

    /**
     * LUT-approximated l(x) on the hardware datapath: coefficients
     * quantized to Q16.16 and the cubic evaluated with Fixed32 MACs.
     *
     * Evaluation uses the *delta form* l(p) + d(a1 + d(a2 + d a3)) with
     * d = x - p: since |d| < spacing, coefficient quantization error is
     * never amplified. The paper's literal expanded form (eq. 10,
     * alpha = c0 + c1 x + c2 x^2) multiplies quantized coefficients by
     * powers of the raw state and loses all accuracy for states far
     * from zero (e.g. membrane potentials around -65); see
     * EvaluateFixedExpanded for that ablation path.
     */
    Fixed32 EvaluateFixed(Fixed32 x) const;

    /**
     * The paper's literal eq. (10) datapath: alpha and c3 quantized in
     * the expanded-in-x form. Kept for the numerical-conditioning
     * ablation; do not use for production solving.
     */
    Fixed32 EvaluateFixedExpanded(Fixed32 x) const;

  private:
    /** Fills the packed Q16.16 lanes when every p is a Q16.16 word. */
    void BuildPackedFixed();

    /** Q16.16-quantized copy of one entry, as stored in memory. */
    struct FixedTuple {
      Fixed32 l_p;
      Fixed32 p;
      // Delta-form coefficients a1, a2, a3 (Taylor with factorials).
      Fixed32 a1;
      Fixed32 a2;
      Fixed32 a3;
      // Expanded-form coefficients of eq. (10), for the ablation.
      Fixed32 c0;
      Fixed32 c1;
      Fixed32 c2;
      Fixed32 c3;
    };

    NonlinearFnPtr fn_;
    LutSpec spec_;
    std::vector<TaylorTuple> entries_;
    std::vector<FixedTuple> fixed_entries_;

    /** @name Packed SoA lanes (one double per entry, 4 lanes). */
    ///@{
    std::vector<double> packed_l_p_;
    std::vector<double> packed_a1_;
    std::vector<double> packed_a2_;
    std::vector<double> packed_a3_;
    PackedTaylorView packed_;
    ///@}

    /** @name Packed Q16.16 lanes (raw fixed_entries_ fields). */
    ///@{
    std::vector<std::int32_t> packed_fixed_l_p_;
    std::vector<std::int32_t> packed_fixed_a1_;
    std::vector<std::int32_t> packed_fixed_a2_;
    std::vector<std::int32_t> packed_fixed_a3_;
    PackedFixedView packed_fixed_;
    ///@}

    /** min_p / spacing when min_p sits on the sample grid. */
    std::int64_t min_p_units_ = 0;
    /** False => IndexOf(Fixed32) falls back to the double path. */
    bool grid_aligned_ = false;
};

}  // namespace cenn

#endif  // CENN_LUT_OFF_CHIP_LUT_H_
