// Deterministic random number generation for the simulator.
//
// Every stochastic model (OS noise arrival times, daemon burst lengths,
// SMI jitter) draws from an Rng seeded from the experiment configuration,
// so simulation runs are exactly reproducible. xoshiro256** is used for
// speed and quality; distributions are implemented directly so results
// do not depend on the standard library's unspecified algorithms.
#pragma once

#include <cmath>
#include <numbers>

#include "common/assert.hpp"
#include "common/types.hpp"

namespace xemem {

/// xoshiro256** by Blackman & Vigna (public domain reference algorithm).
class Rng {
 public:
  explicit Rng(u64 seed = 0x9e3779b97f4a7c15ull) { reseed(seed); }

  /// Re-initialize the state from @p seed via splitmix64 so that nearby
  /// seeds produce uncorrelated streams.
  void reseed(u64 seed) {
    u64 x = seed;
    for (auto& s : state_) {
      x += 0x9e3779b97f4a7c15ull;
      u64 z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
      s = z ^ (z >> 31);
    }
  }

  /// Derive an independent child stream (used to give each enclave/core its
  /// own noise stream while keeping the whole experiment one-seed
  /// reproducible).
  Rng fork() { return Rng(next()); }

  u64 next() {
    auto rotl = [](u64 x, int k) { return (x << k) | (x >> (64 - k)); };
    const u64 result = rotl(state_[1] * 5, 7) * 9;
    const u64 t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n). Rejection-free modulo bias is negligible for
  /// the small ranges used here, but we use Lemire's method anyway.
  u64 uniform_u64(u64 n) {
    XEMEM_ASSERT(n > 0);
    // Lemire's nearly-divisionless bounded generation.
    unsigned __int128 m = static_cast<unsigned __int128>(next()) * n;
    return static_cast<u64>(m >> 64);
  }

  /// Exponential with mean @p mean (inter-arrival times of noise events).
  double exponential(double mean) {
    double u = uniform();
    if (u <= 0.0) u = 0x1.0p-53;
    return -mean * std::log(u);
  }

  /// Standard normal via Box–Muller, without caching the second value.
  /// Lognormal noise durations make this a hot path: since noise stopped
  /// costing engine events (hw::Core), noise draws outnumber executed
  /// events. The algorithm stays as it is all the same, because any change
  /// to it moves every seeded result.
  double normal(double mu = 0.0, double sigma = 1.0) {
    double u1 = uniform();
    if (u1 <= 0.0) u1 = 0x1.0p-53;
    double u2 = uniform();
    double z = std::sqrt(-2.0 * std::log(u1)) *
               std::cos(2.0 * std::numbers::pi * u2);
    return mu + sigma * z;
  }

  /// Log-normal: heavy-ish right tail used for Linux daemon burst durations;
  /// parameterized by the mean/sigma of the underlying normal.
  double lognormal(double mu, double sigma) { return std::exp(normal(mu, sigma)); }

 private:
  u64 state_[4]{};
};

}  // namespace xemem
