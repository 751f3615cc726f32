#include "common/rng.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace dsps::common {

namespace {

uint64_t SplitMix64(uint64_t* x) {
  uint64_t z = (*x += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t s = seed;
  for (auto& word : state_) word = SplitMix64(&s);
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

uint64_t Rng::NextUint64(uint64_t n) {
  DSPS_CHECK(n > 0);
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = (0 - n) % n;
  for (;;) {
    uint64_t r = Next();
    if (r >= threshold) return r % n;
  }
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  DSPS_CHECK(lo <= hi);
  uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<int64_t>(Next());  // full 64-bit range
  return lo + static_cast<int64_t>(NextUint64(span));
}

double Rng::NextDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

double Rng::Gaussian() {
  // Box-Muller; discards the second variate for simplicity.
  double u1 = NextDouble();
  double u2 = NextDouble();
  while (u1 <= 1e-300) u1 = NextDouble();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

double Rng::Gaussian(double mean, double stddev) {
  return mean + stddev * Gaussian();
}

double Rng::Exponential(double rate) {
  DSPS_CHECK(rate > 0);
  double u = NextDouble();
  while (u <= 1e-300) u = NextDouble();
  return -std::log(u) / rate;
}

uint64_t Rng::Zipf(uint64_t n, double s) {
  return ZipfSampler(n, s).Sample(this);
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

Rng Rng::Fork(uint64_t label) {
  uint64_t mix = Next() ^ (label * 0xD1B54A32D192ED03ULL);
  return Rng(mix);
}

ZipfSampler::ZipfSampler(uint64_t n, double s) : n_(n), s_(s) {
  DSPS_CHECK(n > 0);
  if (n == 1 || s <= 0.0) return;  // Sample needs no constants then
  // Ranks are 1..n; Sample shifts the result to 0-based.
  h_x1_ = HIntegral(1.5) - 1.0;
  h_n_ = HIntegral(static_cast<double>(n) + 0.5);
  accept_s_ = 2.0 - HIntegralInverse(HIntegral(2.5) - H(2.0));
}

double ZipfSampler::HIntegral(double x) const {
  if (s_ == 1.0) return std::log(x);
  return (std::pow(x, 1.0 - s_) - 1.0) / (1.0 - s_);
}

double ZipfSampler::HIntegralInverse(double u) const {
  if (s_ == 1.0) return std::exp(u);
  double t = std::max(0.0, u * (1.0 - s_) + 1.0);
  return std::pow(t, 1.0 / (1.0 - s_));
}

double ZipfSampler::H(double x) const { return std::pow(x, -s_); }

uint64_t ZipfSampler::Sample(Rng* rng) const {
  if (n_ == 1) return 0;
  if (s_ <= 0.0) return rng->NextUint64(n_);
  const double nd = static_cast<double>(n_);
  for (;;) {
    double u = h_n_ + rng->NextDouble() * (h_x1_ - h_n_);
    double x = HIntegralInverse(u);
    double kd = std::floor(x + 0.5);
    if (kd < 1.0) kd = 1.0;
    if (kd > nd) kd = nd;
    if (kd - x <= accept_s_ || u >= HIntegral(kd + 0.5) - H(kd)) {
      return static_cast<uint64_t>(kd) - 1;
    }
  }
}

}  // namespace dsps::common
