// Pure helpers of the benchmark: seeded arrival schedules and tail
// percentiles. No I/O, so the unit tests pin them exactly.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <vector>

namespace perfbench {

/// Deterministic 64-bit generator (splitmix64). The benchmark's inputs come
/// only from this, so one seed gives the same inputs on every host and
/// standard library.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, 1) with 53 random bits.
  double Uniform();
  /// Uniform integer in [0, n); n must be positive.
  int64_t Below(int64_t n);

 private:
  uint64_t state_;
};

/// An independent stream seed for one use (`salt`) of a run's seed. Seeds
/// are hashed first, so the streams of seeds n and n+1 are unrelated.
uint64_t StreamSeed(uint64_t seed, uint64_t salt);

/// Open-loop Poisson arrival times in microseconds from the phase start,
/// strictly inside [0, duration_us).
std::vector<int64_t> PoissonArrivals(uint64_t seed, double rate_per_s,
                                     int64_t duration_us);

/// A tail percentile chosen so that at least kMinBeyond samples lie beyond
/// it: the requested percentile when the sample count allows it, else the
/// highest one that does (never below the median).
struct Tail {
  double percentile = 0.0;  // the percentile actually reported, in (0, 100)
  double value = 0.0;
  int64_t samples = 0;
};

constexpr int64_t kMinBeyond = 10;

/// Nearest-rank percentile of `values` (copied and sorted); 0 when empty.
double Percentile(std::vector<double> values, double percentile);

/// The highest percentile <= `wanted` with at least kMinBeyond samples
/// beyond it, and its value.
Tail TailPercentile(const std::vector<double>& values, double wanted);

double Median(std::vector<double> values);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
