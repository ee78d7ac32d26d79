#ifndef CENN_RUNTIME_SHARDED_STEPPER_H_
#define CENN_RUNTIME_SHARDED_STEPPER_H_

/**
 * @file
 * Band partitioning and phase timing for intra-grid sharded
 * execution: one Engine stepped by K worker threads over disjoint row
 * bands (runtime/worker_team.h's ShardTeam), bit-identical to
 * single-threaded stepping for any K (the determinism contract in
 * docs/runtime.md).
 *
 * Each Euler step runs as two data-parallel phases with a halo-
 * exchange barrier between them (refresh outputs, then compute the
 * next state) plus a serial publish performed by the barrier's
 * completion step. Phases only read stable front buffers and write
 * disjoint rows, and per-cell arithmetic is exactly Step()'s, so the
 * partition never changes results — only wall-clock time.
 */

#include <cstdint>
#include <cstddef>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace cenn {

class Histogram;
class StatRegistry;

/**
 * Splits `rows` grid rows into at most `shards` contiguous bands,
 * [begin, end) pairs covering [0, rows) without gaps or overlap. The
 * first `rows % shards` bands get one extra row; empty bands are not
 * returned, so fewer than `shards` bands come back when shards > rows.
 * Fatal when shards < 1.
 */
std::vector<std::pair<std::size_t, std::size_t>> PartitionRows(
    std::size_t rows, int shards);

/**
 * Per-shard, per-phase wall-time accumulator for sharded stepping.
 *
 * Construct with the maximum shard count, bind once into a registry
 * (`<prefix>shard<K>.{refresh,step,wait}_ns`, `.steps`, matching
 * `*_us` histograms, plus `<prefix>publish.{ns,count}` and
 * `publish.us`), then pass to a ShardTeam via TeamOptions::timings —
 * timings accumulate across Run() calls. Serial fallbacks
 * account everything to shard 0. The wait phase is time spent inside
 * the halo/compute barriers (on the publishing worker it includes the
 * publish itself, which is also separately counted).
 *
 * Thread safety: Merge/AddPublish serialize on an internal mutex;
 * bound counters and registry-owned histograms are read at dump time
 * without it (the usual bound-stat tearing caveat, see
 * obs/stat_registry.h).
 */
class ShardPhaseTimings
{
  public:
    /** One shard's accumulated phase times. */
    struct Shard {
      std::uint64_t refresh_ns = 0;  ///< RefreshOutputs phase
      std::uint64_t step_ns = 0;     ///< StepBands phase
      std::uint64_t wait_ns = 0;     ///< halo + publish barrier waits
      std::uint64_t steps = 0;       ///< steps this shard took part in
    };

    explicit ShardPhaseTimings(int max_shards);
    ShardPhaseTimings(const ShardPhaseTimings&) = delete;
    ShardPhaseTimings& operator=(const ShardPhaseTimings&) = delete;

    /**
     * Registers the subtree under `prefix` (empty or '.'-terminated).
     * Call at most once per registry; the timings object must outlive
     * the registry's dumps.
     */
    void BindStats(StatRegistry* registry, const std::string& prefix);

    /**
     * Folds one worker's run into shard `shard` (ignored when out of
     * range). Histogram arguments may be null; geometries must match
     * MakePhaseHistogram().
     */
    void Merge(std::size_t shard, const Shard& delta,
               const Histogram* refresh_us, const Histogram* step_us,
               const Histogram* wait_us);

    /** Accounts one serial publish of `ns` nanoseconds. */
    void AddPublish(std::uint64_t ns);

    /** The shard capacity given at construction. */
    int MaxShards() const { return static_cast<int>(shards_.size()); }

    /** Accumulated times for shard `i` (i < MaxShards()). */
    Shard ShardAt(std::size_t i) const;

    /** Total serial-publish time / publish count so far. */
    std::uint64_t PublishNs() const;
    std::uint64_t PublishCount() const;

    /**
     * A phase-time histogram with the canonical geometry (0–1000 us,
     * 10 us bins; larger grids land in the overflow bucket but the
     * exact moments — mean/min/max — are always kept). Workers
     * accumulate locally into copies of this and Merge() folds them
     * into the registry-owned ones.
     */
    static Histogram MakePhaseHistogram();

  private:
    /** Registry-owned histogram handles for one shard (null = unbound). */
    struct HistSet {
      Histogram* refresh_us = nullptr;
      Histogram* step_us = nullptr;
      Histogram* wait_us = nullptr;
    };

    mutable std::mutex mu_;
    std::vector<Shard> shards_;    ///< sized once; bound-stat stable
    std::vector<HistSet> hists_;
    std::uint64_t publish_ns_ = 0;
    std::uint64_t publish_count_ = 0;
    Histogram* publish_us_ = nullptr;
};

}  // namespace cenn

#endif  // CENN_RUNTIME_SHARDED_STEPPER_H_
