// rng.h — deterministic random number generation and the samplers used by
// the synthetic workload generator.
//
// Reproducibility is a hard requirement: the same seed must generate the
// same trace on every platform and standard library. We therefore implement
// the generator (xoshiro256++) and every distribution sampler ourselves
// rather than relying on <random>'s unspecified distribution algorithms.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace cl {

/// xoshiro256++ pseudo-random generator, seeded via SplitMix64.
///
/// Satisfies std::uniform_random_bit_generator, so it can also drive
/// standard algorithms (e.g. std::shuffle) when cross-platform bit-exact
/// output is not required.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four 64-bit lanes from `seed` via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  /// Next 64 random bits.
  result_type operator()();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Precondition: n > 0.
  std::uint64_t uniform_index(std::uint64_t n);

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p);

  /// Exponential variate with rate lambda (> 0).
  double exponential(double lambda);

  /// Poisson variate with mean `mean` (>= 0). Uses inversion for small
  /// means and the PTRS transformed-rejection method for large means.
  std::uint64_t poisson(double mean);

  /// Standard normal variate (Box–Muller, no cached spare: deterministic
  /// consumption of exactly two uniforms per call).
  double normal();

  /// Normal variate with the given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Log-normal variate parameterised by the underlying normal's mu/sigma.
  double lognormal(double mu, double sigma);

  /// Derives an independent child generator; used to give each simulated
  /// entity its own stream so insertion order does not perturb results.
  Rng split();

 private:
  std::array<std::uint64_t, 4> s_{};
};

/// Samples an index from an arbitrary non-negative weight vector.
///
/// Inversion through the normalised CDF: a draw u ~ U[0, 1) maps to the
/// first index whose cumulative probability is >= u. A guide table
/// (Chen & Asau) narrows that search: with m = size() buckets, guide_[k]
/// counts the CDF entries whose bucket min(m−1, ⌊cdf·m⌋) is below k.
/// Because the bucket function is monotone, every u in bucket k has its
/// answer in [guide_[k], guide_[k+1]], so the search over that slice
/// returns exactly the full std::lower_bound's index — the draw sequence
/// does not depend on the table.
class DiscreteSampler {
 public:
  /// Precondition: weights non-empty, all finite and >= 0, with a finite
  /// sum > 0, and fewer than 2^32 of them.
  explicit DiscreteSampler(const std::vector<double>& weights);

  /// Draws an index with one rng.uniform().
  std::size_t operator()(Rng& rng) const { return quantile(rng.uniform()); }

  /// The index the draw u maps to: the first k with cdf(k) >= u.
  /// Precondition: 0 <= u < 1.
  [[nodiscard]] std::size_t quantile(double u) const;

  [[nodiscard]] double probability(std::size_t k) const;

  [[nodiscard]] std::size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;  // inclusive prefix sums, cdf_.back() == 1
  std::vector<std::uint32_t> guide_;  // size() + 1 cut points
};

/// Discrete sampler over indices 0..n-1 following a (truncated) Zipf
/// distribution with exponent `s`: P(k) ∝ 1/(k+1)^s.
///
/// Used to model content catalogue popularity — the paper's catalogue is a
/// classic few-head/long-tail distribution (Fig. 3 left).
class ZipfSampler {
 public:
  /// Precondition: n >= 1, s >= 0 (s == 0 degenerates to uniform).
  ZipfSampler(std::size_t n, double s);

  /// Draws an index in [0, n).
  std::size_t operator()(Rng& rng) const { return sampler_(rng); }

  /// Probability mass of index k.
  [[nodiscard]] double pmf(std::size_t k) const {
    return sampler_.probability(k);
  }

  [[nodiscard]] std::size_t size() const { return sampler_.size(); }

 private:
  DiscreteSampler sampler_;
};

}  // namespace cl
