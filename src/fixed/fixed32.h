#ifndef CENN_FIXED_FIXED32_H_
#define CENN_FIXED_FIXED32_H_

/**
 * @file
 * Q16.16 saturating fixed-point arithmetic.
 *
 * The paper's DE solver computes with a 32-bit fixed-point state whose
 * upper 16 bits are the (signed) integer part and lower 16 bits the
 * fraction (Section 4.1). The upper half doubles as the LUT look-up
 * index for real-time template updates. Fixed32 reproduces that format
 * exactly: value = raw / 2^16, raw is a signed 32-bit integer, and all
 * arithmetic saturates instead of wrapping (a hardware multiplier with
 * clamping, not UB-prone int overflow).
 */

#include <compare>
#include <cstdint>
#include <string>
#include <type_traits>

namespace cenn {

/** Signed Q16.16 fixed-point number with saturating arithmetic. */
class Fixed32
{
  public:
    /** Number of fractional bits in the representation. */
    static constexpr int kFracBits = 16;

    /** Scale factor 2^16. */
    static constexpr std::int64_t kOne = std::int64_t{1} << kFracBits;

    /** Smallest representable increment (2^-16 ~ 1.53e-5). */
    static double Epsilon() { return 1.0 / static_cast<double>(kOne); }

    /** Zero-initialized. */
    constexpr Fixed32() = default;

    /** Builds from a raw Q16.16 bit pattern. */
    static constexpr Fixed32
    FromRaw(std::int32_t raw)
    {
      Fixed32 f;
      f.raw_ = raw;
      return f;
    }

    /**
     * Installs `counter` as the calling thread's saturation-event
     * sink and returns the previous sink (nullptr = counting off,
     * the default). While installed, every saturating clamp — add,
     * sub, mul, div, negation and the integer/double conversions —
     * increments the pointee. The sink is thread-local: install one
     * per worker thread (health/health_guard.h's ScopedSatCounter
     * does this and drains into a HealthGuard). With no sink
     * installed the only cost is a thread-local load on the rare
     * clamping path; non-saturating arithmetic is untouched.
     */
    static std::uint64_t*
    ExchangeSaturationCounter(std::uint64_t* counter)
    {
      std::uint64_t* previous = t_sat_events;
      t_sat_events = counter;
      return previous;
    }

    /** Clamps a 64-bit intermediate into the 32-bit raw range. */
    static constexpr std::int32_t
    SaturateRaw(std::int64_t v)
    {
      if (v > INT32_MAX) {
        CountSaturation();
        return INT32_MAX;
      }
      if (v < INT32_MIN) {
        CountSaturation();
        return INT32_MIN;
      }
      return static_cast<std::int32_t>(v);
    }

    /** Converts from double with round-to-nearest and saturation. */
    static Fixed32 FromDouble(double v);

    /** Converts from a small integer with saturation. */
    static Fixed32 FromInt(std::int32_t v);

    /** Maximum representable value (32767.99998...). */
    static constexpr Fixed32
    Max()
    {
      return FromRaw(INT32_MAX);
    }

    /** Minimum representable value (-32768). */
    static constexpr Fixed32
    Min()
    {
      return FromRaw(INT32_MIN);
    }

    /** Raw Q16.16 bit pattern. */
    constexpr std::int32_t raw() const { return raw_; }

    /** Value as a double. */
    constexpr double
    ToDouble() const
    {
        return static_cast<double>(raw_) / static_cast<double>(kOne);
    }

    /**
     * Upper 16 bits of the state word, as used for LUT index matching
     * (the paper XNORs these against the L1 LUT tags).
     */
    std::uint16_t UpperBits() const
    {
        return static_cast<std::uint16_t>(
            (static_cast<std::uint32_t>(raw_) >> 16) & 0xffffu);
    }

    /** Lower 16 bits (fractional part); non-zero means "approximate". */
    std::uint16_t LowerBits() const
    {
        return static_cast<std::uint16_t>(static_cast<std::uint32_t>(raw_) &
                                          0xffffu);
    }

    /** Floor of the value as an integer (arithmetic shift). */
    std::int32_t FloorInt() const { return raw_ >> kFracBits; }

    // The arithmetic operators are the Q16.16 datapath of every
    // Fixed32 kernel, so they are forced inline: GCC's per-file
    // inlining budget otherwise decides, and a smaller source file can
    // leave them as per-cell calls.

    /** Saturating addition. */
    [[gnu::always_inline]] constexpr Fixed32
    operator+(Fixed32 o) const
    {
      return FromRaw(SaturateRaw(static_cast<std::int64_t>(raw_) + o.raw_));
    }

    /** Saturating subtraction. */
    [[gnu::always_inline]] constexpr Fixed32
    operator-(Fixed32 o) const
    {
      return FromRaw(SaturateRaw(static_cast<std::int64_t>(raw_) - o.raw_));
    }

    /** Saturating Q16.16 multiplication with round-to-nearest. */
    [[gnu::always_inline]] constexpr Fixed32
    operator*(Fixed32 o) const
    {
      // 32x32 -> 64-bit product; shift back by 16 with round-to-nearest
      // (add half an LSB before the arithmetic shift).
      std::int64_t p = static_cast<std::int64_t>(raw_) * o.raw_;
      p += (p >= 0) ? (kOne >> 1) : -(kOne >> 1);
      return FromRaw(SaturateRaw(p / kOne));
    }

    /** Saturating division; fatal on division by zero. */
    Fixed32 operator/(Fixed32 o) const;

    /** Saturating negation (-Min() saturates to Max()). */
    [[gnu::always_inline]] constexpr Fixed32
    operator-() const
    {
      return FromRaw(SaturateRaw(-static_cast<std::int64_t>(raw_)));
    }

    Fixed32& operator+=(Fixed32 o) { return *this = *this + o; }
    Fixed32& operator-=(Fixed32 o) { return *this = *this - o; }
    Fixed32& operator*=(Fixed32 o) { return *this = *this * o; }
    Fixed32& operator/=(Fixed32 o) { return *this = *this / o; }

    constexpr auto operator<=>(const Fixed32&) const = default;

    /** Decimal rendering, e.g. "1.5" (for debugging and tests). */
    std::string ToString() const;

  private:
    /**
     * Reports one clamp to the thread's sink, if any. Constexpr so
     * the saturating ops stay usable in constant expressions (where
     * the runtime-only sink is skipped).
     */
    static constexpr void
    CountSaturation()
    {
      if (!std::is_constant_evaluated() && t_sat_events != nullptr) {
        ++*t_sat_events;
      }
    }

    static inline thread_local std::uint64_t* t_sat_events = nullptr;

    std::int32_t raw_ = 0;
};

/** Absolute value, saturating at Max() for Min(). */
Fixed32 Abs(Fixed32 v);

/** Clamps v into [lo, hi]. */
Fixed32 Clamp(Fixed32 v, Fixed32 lo, Fixed32 hi);

/**
 * The standard CeNN output nonlinearity f(x) = 0.5(|x+1| - |x-1|)
 * (eq. 2 of the paper): identity in [-1, 1], clipped outside.
 */
Fixed32 StandardOutput(Fixed32 x);

/** Fixed32 literal-ish helper: MakeFixed(1.5). */
inline Fixed32
MakeFixed(double v)
{
  return Fixed32::FromDouble(v);
}

}  // namespace cenn

#endif  // CENN_FIXED_FIXED32_H_
