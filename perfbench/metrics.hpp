// metrics.hpp — exact-sample latency series and the percentile rule.
//
// Every latency the benchmark reports is a nearest-rank percentile over
// exact samples (no histogram buckets, so a run-to-run change is never a
// bucket edge flipping). A tail percentile is *resolved* only when at
// least ten samples lie beyond it; the report prints the sample count
// next to every percentile so an unresolved p99 is visible as such.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace perfbench {

/// One percentile read off a series.
struct Quantile {
  double value = 0;       ///< sample value at the nearest rank (0 if empty)
  std::uint64_t n = 0;    ///< samples in the series
  std::uint64_t beyond = 0;  ///< samples strictly after the rank
  bool resolved() const noexcept { return beyond >= 10; }
};

/// Nearest-rank percentile of `v` (reorders `v`): the value at 1-based
/// rank ceil(q * n), clamped to [1, n].
template <class T>
Quantile nearest_rank(std::vector<T>& v, double q) {
  Quantile out;
  out.n = v.size();
  if (v.empty()) return out;
  const double exact = std::ceil(q * static_cast<double>(v.size()));
  std::size_t rank = exact < 1 ? 1 : static_cast<std::size_t>(exact);
  rank = std::min(rank, v.size());
  auto nth = v.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(v.begin(), nth, v.end());
  out.value = static_cast<double>(*nth);
  out.beyond = v.size() - rank;
  return out;
}

/// Per-operation latencies in nanoseconds (saturating at ~4.3 s).
class Series {
 public:
  void add(std::uint64_t ns) {
    constexpr std::uint64_t kMax = std::numeric_limits<std::uint32_t>::max();
    samples_.push_back(static_cast<std::uint32_t>(std::min(ns, kMax)));
  }
  void merge(const Series& o) {
    samples_.insert(samples_.end(), o.samples_.begin(), o.samples_.end());
  }
  std::size_t size() const noexcept { return samples_.size(); }
  Quantile quantile(double q) { return nearest_rank(samples_, q); }

 private:
  std::vector<std::uint32_t> samples_;
};

/// Median of a few repeated measurements (set-up, recovery, windows).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  return nearest_rank(v, 0.5).value;
}

/// A percentile taken in each part of a run (a time window) and
/// summarised by its median across the parts, so a burst of interference
/// confined to a few parts does not move it.
struct PartsQuantile {
  double value = 0;        ///< median over non-empty parts
  std::uint64_t n = 0;     ///< samples over all parts
  std::size_t parts = 0;   ///< non-empty parts
  std::size_t unresolved = 0;  ///< parts with fewer than 10 beyond
};

inline PartsQuantile parts_quantile(std::vector<Series>& parts, double q) {
  PartsQuantile out;
  std::vector<double> values;
  for (Series& s : parts) {
    if (s.size() == 0) continue;
    const Quantile x = s.quantile(q);
    values.push_back(x.value);
    out.n += x.n;
    if (!x.resolved()) ++out.unresolved;
  }
  out.parts = values.size();
  out.value = median(std::move(values));
  return out;
}

}  // namespace perfbench
