// Fixed-memory latency histogram with a percentile that refuses to guess.
//
// Samples are nanoseconds. Buckets are log-linear: below 2^kSubBits every
// value has its own bucket, above it each power of two is split into
// 2^kSubBits equal buckets, so a reported value is within 2^-kSubBits
// (0.2%) of the sample it stands for. Buckets are relaxed atomics, so one
// histogram can take samples from several threads (the daemon's worker
// threads record into the Backend decorator's histograms concurrently).
//
// percentile() returns nullopt unless at least kMinBeyond samples lie
// beyond the requested rank: a p90 needs 100 samples, a p99 needs 1000.
// That is the benchmark's rule for every tail it reports.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace loadbench {

class Histogram {
 public:
  static constexpr int kSubBits = 9;
  static constexpr std::uint64_t kMinBeyond = 10;

  Histogram() : buckets_(kBuckets) {}

  void add(std::uint64_t ns) {
    buckets_[index_of(ns)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Adds a signed difference, clamping negatives (clock skew between two
  /// spans measured on different threads) to zero.
  void add_signed(std::int64_t ns) {
    add(ns < 0 ? 0 : static_cast<std::uint64_t>(ns));
  }

  void merge(const Histogram& other) {
    for (std::size_t b = 0; b < kBuckets; ++b) {
      const std::uint64_t c = other.buckets_[b].load(std::memory_order_relaxed);
      if (c != 0) buckets_[b].fetch_add(c, std::memory_order_relaxed);
    }
    count_.fetch_add(other.count(), std::memory_order_relaxed);
  }

  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }

  /// The nearest rank ceil(q * n) (at least 1), computed in integers
  /// from q rounded to parts per million, so 0.9 * 100 is exactly 90.
  static std::uint64_t rank_of(double q, std::uint64_t n) {
    const auto ppm = static_cast<std::uint64_t>(std::llround(q * 1e6));
    const std::uint64_t rank = (ppm * n + 999'999) / 1'000'000;
    return rank == 0 ? 1 : rank;
  }

  /// The fewest samples for which percentile(q) reports: 20 for a p50,
  /// 100 for a p90, 1000 for a p99.
  static std::uint64_t min_samples(double q) {
    std::uint64_t n = kMinBeyond;
    while (n - rank_of(q, n) < kMinBeyond) ++n;
    return n;
  }

  /// The nearest-rank q-quantile (0 < q < 1) in nanoseconds, or nullopt
  /// when fewer than kMinBeyond samples lie above rank_of(q, n).
  std::optional<double> percentile(double q) const {
    const std::uint64_t n = count();
    if (n == 0 || q <= 0.0 || q >= 1.0) return std::nullopt;
    const std::uint64_t rank = rank_of(q, n);
    if (n < rank || n - rank < kMinBeyond) return std::nullopt;
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      seen += buckets_[b].load(std::memory_order_relaxed);
      if (seen >= rank) return midpoint_of(b);
    }
    return std::nullopt;  // unreachable while count_ matches the buckets
  }

 private:
  static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
  // Octaves up to 2^50 ns (~13 days) — anything longer clamps.
  static constexpr int kMaxBit = 50;
  static constexpr std::size_t kBuckets =
      static_cast<std::size_t>(kMaxBit - kSubBits + 1) * kSub;

  static std::size_t index_of(std::uint64_t v) {
    if (v < kSub) return static_cast<std::size_t>(v);
    int msb = 63 - std::countl_zero(v);
    if (msb > kMaxBit - 1) {
      msb = kMaxBit - 1;
      v = (std::uint64_t{1} << kMaxBit) - 1;
    }
    const int shift = msb - kSubBits;
    const std::uint64_t sub = (v >> shift) - kSub;
    return static_cast<std::size_t>(shift + 1) * kSub +
           static_cast<std::size_t>(sub);
  }

  static double midpoint_of(std::size_t b) {
    if (b < kSub) return static_cast<double>(b);
    const std::size_t shift = b / kSub - 1;
    const std::uint64_t sub = b % kSub + kSub;
    const double lower = static_cast<double>(sub << shift);
    const double width = static_cast<double>(std::uint64_t{1} << shift);
    return lower + width / 2.0;
  }

  std::vector<std::atomic<std::uint64_t>> buckets_;
  std::atomic<std::uint64_t> count_{0};
};

/// The median, over consecutive groups of `samples` (in arrival order), of
/// each group's q-percentile, with as many groups, up to `max_groups`, as
/// leave each group Histogram::min_samples(q) samples. A stall that slows
/// one stretch of a run moves one group, not the figure. nullopt when the
/// samples are too few for even one group.
inline std::optional<double> grouped_percentile(
    std::span<const std::uint64_t> samples, double q, std::size_t max_groups) {
  const std::size_t n = samples.size();
  const auto need = static_cast<std::size_t>(Histogram::min_samples(q));
  const std::size_t groups = std::clamp<std::size_t>(n / need, 1, max_groups);
  std::vector<double> values;
  for (std::size_t g = 0; g < groups; ++g) {
    Histogram h;
    for (std::size_t i = g * n / groups; i < (g + 1) * n / groups; ++i)
      h.add(samples[i]);
    const std::optional<double> v = h.percentile(q);
    if (!v) return std::nullopt;
    values.push_back(*v);
  }
  std::sort(values.begin(), values.end());
  const std::size_t m = values.size() / 2;
  return values.size() % 2 == 1 ? values[m] : (values[m - 1] + values[m]) / 2;
}

/// The median of `values[k]` over the `keep` parts with the least
/// `noise[k]` (ties keep part order), skipping parts with no value among
/// them. Interference that hits some parts of a run is left out; a change
/// that moves every part moves the figure in full. nullopt when none of
/// the chosen parts has a value.
inline std::optional<double> quiet_median(
    std::span<const std::optional<double>> values,
    std::span<const double> noise, std::size_t keep) {
  std::vector<std::size_t> order(values.size());
  for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return noise[a] < noise[b];
                   });
  std::vector<double> chosen;
  for (std::size_t k = 0; k < std::min(keep, order.size()); ++k)
    if (values[order[k]]) chosen.push_back(*values[order[k]]);
  if (chosen.empty()) return std::nullopt;
  std::sort(chosen.begin(), chosen.end());
  const std::size_t m = chosen.size() / 2;
  return chosen.size() % 2 == 1 ? chosen[m] : (chosen[m - 1] + chosen[m]) / 2;
}

}  // namespace loadbench
