#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

uint64_t SplitMix::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double SplitMix::Uniform() {
  return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
}

int64_t SplitMix::Below(int64_t n) {
  return static_cast<int64_t>(Next() % static_cast<uint64_t>(n));
}

uint64_t StreamSeed(uint64_t seed, uint64_t salt) {
  SplitMix outer(seed);
  SplitMix inner(outer.Next() ^ (salt * 0xd1b54a32d192ed03ULL));
  return inner.Next();
}

std::vector<int64_t> PoissonArrivals(uint64_t seed, double rate_per_s,
                                     int64_t duration_us) {
  std::vector<int64_t> due;
  if (rate_per_s <= 0.0) return due;
  SplitMix rng(seed);
  const double mean_gap_us = 1e6 / rate_per_s;
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - rng.Uniform()) * mean_gap_us;
    if (t >= static_cast<double>(duration_us)) break;
    due.push_back(static_cast<int64_t>(t));
  }
  return due;
}

double Percentile(std::vector<double> values, double percentile) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  int64_t rank = static_cast<int64_t>(std::ceil(percentile / 100.0 * n - 1e-9));
  rank = std::clamp<int64_t>(rank, 1, static_cast<int64_t>(values.size()));
  return values[static_cast<size_t>(rank - 1)];
}

Tail TailPercentile(const std::vector<double>& values, double wanted) {
  Tail tail;
  tail.samples = static_cast<int64_t>(values.size());
  const double n = static_cast<double>(values.size());
  // Nearest rank r leaves n - r samples beyond it; r <= n - kMinBeyond holds
  // for every percentile up to 100 * (n - kMinBeyond) / n.
  double allowed = n > 0 ? 100.0 * (n - kMinBeyond) / n : 0.0;
  tail.percentile = std::max(50.0, std::min(wanted, allowed));
  tail.value = Percentile(values, tail.percentile);
  return tail;
}

double Median(std::vector<double> values) { return Percentile(values, 50.0); }

}  // namespace perfbench
