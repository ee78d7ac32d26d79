#ifndef CENN_LUT_LUT_TRAFFIC_H_
#define CENN_LUT_LUT_TRAFFIC_H_

/**
 * @file
 * Off-chip LUT access accounting for the functional/SoA engines.
 *
 * The cycle-level simulator already models LUT hit/miss behaviour
 * through the tag caches (lut_cache.h); the functional and SoA
 * engines evaluate the off-chip LUT directly and historically
 * reported nothing. This header gives them the same observable:
 * every OffChipLut evaluation counts one *access*, and evaluations
 * that land exactly on a stored sample point (x == p — the paper's
 * free l_p read, no TUM arithmetic) count one *exact hit*.
 *
 * The accounting follows the Fixed32 saturation-counter idiom: a
 * plain thread-local tally is installed with ScopedLutTally (so the
 * hot path is one TLS null check plus plain increments, no atomics)
 * and drained into an engine-attached LutTrafficSink when the scope
 * ends. The SIMD gathered-LUT kernels bulk-add the same per-lane
 * counts (see soa_simd_impl.h), which keeps `lut.*` counters
 * bit-identical between the SoA kernels and the functional engine.
 * With no tally installed the evaluators skip all accounting.
 */

#include <atomic>
#include <cstdint>
#include <string>

namespace cenn {

class StatRegistry;

/** One thread's LUT evaluation counts (plain, single-writer). */
struct LutTally {
  std::uint64_t accesses = 0;    ///< off-chip LUT evaluations
  std::uint64_t exact_hits = 0;  ///< x landed exactly on a sample
};

namespace lut_traffic {

/** The calling thread's active tally; null = accounting off. */
inline thread_local LutTally* t_tally = nullptr;

/** Counts `n` evaluations, `hits` of them exact. Hot-path inline. */
inline void
CountAccesses(std::uint64_t n, std::uint64_t hits)
{
  if (t_tally != nullptr) {
    t_tally->accesses += n;
    t_tally->exact_hits += hits;
  }
}

}  // namespace lut_traffic

/**
 * Aggregation target for LutTally drains: per-engine (or per-job)
 * totals bumped atomically by worker threads as their scopes end,
 * readable live by the stats/metrics machinery.
 */
class LutTrafficSink
{
  public:
    void Add(const LutTally& tally)
    {
        if (tally.accesses == 0 && tally.exact_hits == 0) {
          return;
        }
        accesses_.fetch_add(tally.accesses, std::memory_order_relaxed);
        exact_hits_.fetch_add(tally.exact_hits, std::memory_order_relaxed);
    }

    std::uint64_t Accesses() const
    {
        return accesses_.load(std::memory_order_relaxed);
    }

    std::uint64_t ExactHits() const
    {
        return exact_hits_.load(std::memory_order_relaxed);
    }

    /** exact_hits / accesses; 0 when never accessed. */
    double HitRate() const;

    void Reset();

    /**
     * Binds `<prefix>lut.interp.accesses/exact_hits/hit_rate/
     * taylor_evals`. The sink must outlive the registry's dumps.
     */
    void BindStats(StatRegistry* registry, const std::string& prefix) const;

  private:
    std::atomic<std::uint64_t> accesses_{0};
    std::atomic<std::uint64_t> exact_hits_{0};
};

/**
 * Installs a thread-local tally draining into `sink` for the scope's
 * lifetime; restores any previously installed tally on exit. A null
 * sink makes the scope (and all accounting inside it) a no-op, so
 * callers can pass `engine->AttachedLutTraffic()` unconditionally.
 */
class ScopedLutTally
{
  public:
    explicit ScopedLutTally(LutTrafficSink* sink)
        : sink_(sink), previous_(lut_traffic::t_tally)
    {
        if (sink_ != nullptr) {
          lut_traffic::t_tally = &tally_;
        }
    }

    ~ScopedLutTally()
    {
        if (sink_ != nullptr) {
          lut_traffic::t_tally = previous_;
          sink_->Add(tally_);
        }
    }

    ScopedLutTally(const ScopedLutTally&) = delete;
    ScopedLutTally& operator=(const ScopedLutTally&) = delete;

  private:
    LutTrafficSink* sink_;
    LutTally tally_;
    LutTally* previous_;
};

}  // namespace cenn

#endif  // CENN_LUT_LUT_TRAFFIC_H_
