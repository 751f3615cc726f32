#ifndef DSPS_COMMON_RNG_H_
#define DSPS_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace dsps::common {

/// Deterministic pseudo-random number generator (xoshiro256**, seeded via
/// SplitMix64). All randomness in the library flows through this type so
/// that every experiment is exactly reproducible from its seed.
class Rng {
 public:
  /// Seeds the generator. Equal seeds produce identical sequences.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Uniform 64-bit value.
  uint64_t Next();

  /// Uniform integer in [0, n). Requires n > 0.
  uint64_t NextUint64(uint64_t n);

  /// Uniform integer in [lo, hi]. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Standard normal via Box-Muller.
  double Gaussian();

  /// Normal with the given mean and standard deviation.
  double Gaussian(double mean, double stddev);

  /// Exponential with the given rate (mean 1/rate). Requires rate > 0.
  double Exponential(double rate);

  /// Zipf-distributed rank in [0, n) with exponent `s` (s=0 is uniform):
  /// one draw of ZipfSampler(n, s). Callers that draw repeatedly from one
  /// distribution should hold a ZipfSampler instead.
  uint64_t Zipf(uint64_t n, double s);

  /// True with probability p (clamped to [0, 1]).
  bool Bernoulli(double p);

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      size_t j = static_cast<size_t>(NextUint64(i));
      std::swap((*v)[i - 1], (*v)[j]);
    }
  }

  /// Derives an independent generator for a labeled sub-component.
  Rng Fork(uint64_t label);

 private:
  uint64_t state_[4];
};

/// Zipf-distributed ranks in [0, n) with exponent `s` (s = 0 is uniform),
/// by O(1) rejection-inversion sampling (Hormann & Derflinger 1996, in the
/// Apache Commons RejectionInversionZipfSampler formulation, which keeps
/// the acceptance rate bounded for every exponent). The constants that
/// depend only on n and s (five pow calls when s != 1) are computed once
/// at construction, so a draw pays only for its own attempts.
class ZipfSampler {
 public:
  /// Requires n > 0.
  ZipfSampler(uint64_t n, double s);

  /// One rank drawn with `rng`. Consumes no randomness when n == 1.
  uint64_t Sample(Rng* rng) const;

 private:
  /// The integral of h(x) = x^-s, its inverse, and h itself, over the
  /// ranks 1..n.
  double HIntegral(double x) const;
  double HIntegralInverse(double u) const;
  double H(double x) const;

  uint64_t n_;
  double s_;
  double h_x1_ = 0.0;
  double h_n_ = 0.0;
  double accept_s_ = 0.0;
};

}  // namespace dsps::common

#endif  // DSPS_COMMON_RNG_H_
