#include "runtime/sharded_stepper.h"

#include <mutex>

#include "obs/stat_registry.h"
#include "util/logging.h"
#include "util/stats.h"

namespace cenn {

namespace {

/** Canonical phase-histogram geometry (see MakePhaseHistogram). */
constexpr double kPhaseUsLo = 0.0;
constexpr double kPhaseUsHi = 1000.0;
constexpr int kPhaseUsBins = 100;

}  // namespace

ShardPhaseTimings::ShardPhaseTimings(int max_shards)
{
  if (max_shards < 1) {
    CENN_FATAL("ShardPhaseTimings: max_shards must be >= 1, got ",
               max_shards);
  }
  shards_.resize(static_cast<std::size_t>(max_shards));
  hists_.resize(static_cast<std::size_t>(max_shards));
}

Histogram
ShardPhaseTimings::MakePhaseHistogram()
{
  return Histogram(kPhaseUsLo, kPhaseUsHi, kPhaseUsBins);
}

void
ShardPhaseTimings::BindStats(StatRegistry* registry,
                             const std::string& prefix)
{
  CENN_ASSERT(registry != nullptr,
              "ShardPhaseTimings::BindStats: null registry");
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    StatScope scope =
        registry->WithPrefix(prefix + "shard" + std::to_string(k));
    Shard& s = shards_[k];
    scope.BindCounter("refresh_ns", "output-refresh phase wall time",
                      &s.refresh_ns);
    scope.BindCounter("step_ns", "next-state compute phase wall time",
                      &s.step_ns);
    scope.BindCounter("wait_ns", "halo/publish barrier wait wall time",
                      &s.wait_ns);
    scope.BindCounter("steps", "steps this shard participated in",
                      &s.steps);
    hists_[k].refresh_us = scope.AddHistogram(
        "refresh_us", "per-step refresh phase time", kPhaseUsLo, kPhaseUsHi,
        kPhaseUsBins);
    hists_[k].step_us = scope.AddHistogram(
        "step_us", "per-step compute phase time", kPhaseUsLo, kPhaseUsHi,
        kPhaseUsBins);
    hists_[k].wait_us = scope.AddHistogram(
        "wait_us", "per-step barrier wait time", kPhaseUsLo, kPhaseUsHi,
        kPhaseUsBins);
  }
  StatScope scope = registry->WithPrefix(prefix + "publish");
  scope.BindCounter("ns", "serial publish wall time", &publish_ns_);
  scope.BindCounter("count", "serial publishes performed",
                    &publish_count_);
  publish_us_ = scope.AddHistogram("us", "per-step publish time",
                                   kPhaseUsLo, kPhaseUsHi, kPhaseUsBins);
}

void
ShardPhaseTimings::Merge(std::size_t shard, const Shard& delta,
                         const Histogram* refresh_us,
                         const Histogram* step_us, const Histogram* wait_us)
{
  if (shard >= shards_.size()) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  Shard& s = shards_[shard];
  s.refresh_ns += delta.refresh_ns;
  s.step_ns += delta.step_ns;
  s.wait_ns += delta.wait_ns;
  s.steps += delta.steps;
  HistSet& h = hists_[shard];
  if (refresh_us != nullptr && h.refresh_us != nullptr) {
    h.refresh_us->Merge(*refresh_us);
  }
  if (step_us != nullptr && h.step_us != nullptr) {
    h.step_us->Merge(*step_us);
  }
  if (wait_us != nullptr && h.wait_us != nullptr) {
    h.wait_us->Merge(*wait_us);
  }
}

void
ShardPhaseTimings::AddPublish(std::uint64_t ns)
{
  std::lock_guard<std::mutex> lock(mu_);
  publish_ns_ += ns;
  ++publish_count_;
  if (publish_us_ != nullptr) {
    publish_us_->Add(static_cast<double>(ns) * 1e-3);
  }
}

ShardPhaseTimings::Shard
ShardPhaseTimings::ShardAt(std::size_t i) const
{
  std::lock_guard<std::mutex> lock(mu_);
  return shards_.at(i);
}

std::uint64_t
ShardPhaseTimings::PublishNs() const
{
  std::lock_guard<std::mutex> lock(mu_);
  return publish_ns_;
}

std::uint64_t
ShardPhaseTimings::PublishCount() const
{
  std::lock_guard<std::mutex> lock(mu_);
  return publish_count_;
}

std::vector<std::pair<std::size_t, std::size_t>>
PartitionRows(std::size_t rows, int shards)
{
  if (shards < 1) {
    CENN_FATAL("PartitionRows: shards must be >= 1, got ", shards);
  }
  const auto k = static_cast<std::size_t>(shards);
  std::vector<std::pair<std::size_t, std::size_t>> bands;
  bands.reserve(k < rows ? k : rows);
  const std::size_t base = k == 0 ? 0 : rows / k;
  const std::size_t extra = rows % k;
  std::size_t begin = 0;
  for (std::size_t b = 0; b < k && begin < rows; ++b) {
    const std::size_t size = base + (b < extra ? 1 : 0);
    if (size == 0) {
      continue;
    }
    bands.emplace_back(begin, begin + size);
    begin += size;
  }
  return bands;
}

}  // namespace cenn
