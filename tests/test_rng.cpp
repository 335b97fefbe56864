// Tests for util/rng.h — determinism and distribution sanity.
#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "util/error.h"
#include "util/stats.h"

namespace cl {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanIsHalf) {
  Rng rng(11);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(rng.uniform());
  EXPECT_NEAR(s.mean(), 0.5, 0.01);
  EXPECT_NEAR(s.variance(), 1.0 / 12.0, 0.01);
}

TEST(Rng, UniformRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-2.0, 5.0);
    EXPECT_GE(u, -2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformRangeRejectsInverted) {
  Rng rng(3);
  EXPECT_THROW(rng.uniform(2.0, 1.0), InvalidArgument);
}

TEST(Rng, UniformIndexBounds) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.uniform_index(7), 7u);
  }
}

TEST(Rng, UniformIndexIsUniform) {
  Rng rng(17);
  std::array<int, 5> counts{};
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.uniform_index(5)];
  for (int c : counts) EXPECT_NEAR(c, n / 5.0, n * 0.01);
}

TEST(Rng, UniformIndexRejectsZero) {
  Rng rng(5);
  EXPECT_THROW(rng.uniform_index(0), InvalidArgument);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(23);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(29);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, ExponentialMean) {
  Rng rng(31);
  RunningStats s;
  for (int i = 0; i < 200000; ++i) s.add(rng.exponential(2.0));
  EXPECT_NEAR(s.mean(), 0.5, 0.01);
}

TEST(Rng, ExponentialRejectsNonPositiveRate) {
  Rng rng(31);
  EXPECT_THROW(rng.exponential(0.0), InvalidArgument);
  EXPECT_THROW(rng.exponential(-1.0), InvalidArgument);
}

TEST(Rng, PoissonSmallMean) {
  Rng rng(37);
  RunningStats s;
  for (int i = 0; i < 200000; ++i) {
    s.add(static_cast<double>(rng.poisson(3.0)));
  }
  EXPECT_NEAR(s.mean(), 3.0, 0.05);
  EXPECT_NEAR(s.variance(), 3.0, 0.1);
}

TEST(Rng, PoissonLargeMeanUsesPtrs) {
  Rng rng(41);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) {
    s.add(static_cast<double>(rng.poisson(120.0)));
  }
  EXPECT_NEAR(s.mean(), 120.0, 0.5);
  EXPECT_NEAR(s.variance(), 120.0, 3.0);
}

TEST(Rng, PoissonZeroMean) {
  Rng rng(43);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.poisson(0.0), 0u);
}

TEST(Rng, NormalMoments) {
  Rng rng(47);
  RunningStats s;
  for (int i = 0; i < 200000; ++i) s.add(rng.normal(5.0, 2.0));
  EXPECT_NEAR(s.mean(), 5.0, 0.03);
  EXPECT_NEAR(s.stddev(), 2.0, 0.03);
}

TEST(Rng, LognormalMean) {
  Rng rng(53);
  // E[lognormal(mu, sigma)] = exp(mu + sigma^2/2).
  const double mu = 0.2, sigma = 0.5;
  RunningStats s;
  for (int i = 0; i < 300000; ++i) s.add(rng.lognormal(mu, sigma));
  EXPECT_NEAR(s.mean(), std::exp(mu + sigma * sigma / 2), 0.02);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(61);
  Rng child = a.split();
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == child()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(ZipfSampler, PmfSumsToOne) {
  const ZipfSampler zipf(100, 1.0);
  double sum = 0;
  for (std::size_t k = 0; k < zipf.size(); ++k) sum += zipf.pmf(k);
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(ZipfSampler, PmfIsDecreasing) {
  const ZipfSampler zipf(50, 0.9);
  for (std::size_t k = 1; k < zipf.size(); ++k) {
    EXPECT_GE(zipf.pmf(k - 1), zipf.pmf(k));
  }
}

TEST(ZipfSampler, HeadToTailRatioMatchesExponent) {
  const ZipfSampler zipf(1000, 1.0);
  EXPECT_NEAR(zipf.pmf(0) / zipf.pmf(9), 10.0, 1e-9);
}

TEST(ZipfSampler, ZeroExponentIsUniform) {
  const ZipfSampler zipf(10, 0.0);
  for (std::size_t k = 0; k < 10; ++k) EXPECT_NEAR(zipf.pmf(k), 0.1, 1e-12);
}

TEST(ZipfSampler, EmpiricalFrequencyMatchesPmf) {
  const ZipfSampler zipf(20, 1.2);
  Rng rng(67);
  std::vector<int> counts(20, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[zipf(rng)];
  for (std::size_t k = 0; k < 5; ++k) {
    EXPECT_NEAR(static_cast<double>(counts[k]) / n, zipf.pmf(k), 0.01);
  }
}

TEST(DiscreteSampler, RespectsWeights) {
  const DiscreteSampler sampler({1.0, 3.0, 6.0});
  EXPECT_NEAR(sampler.probability(0), 0.1, 1e-12);
  EXPECT_NEAR(sampler.probability(1), 0.3, 1e-12);
  EXPECT_NEAR(sampler.probability(2), 0.6, 1e-12);
}

TEST(DiscreteSampler, ZeroWeightNeverSampled) {
  const DiscreteSampler sampler({1.0, 0.0, 1.0});
  Rng rng(71);
  for (int i = 0; i < 10000; ++i) EXPECT_NE(sampler(rng), 1u);
}

TEST(DiscreteSampler, RejectsInvalidWeights) {
  EXPECT_THROW(DiscreteSampler({}), InvalidArgument);
  EXPECT_THROW(DiscreteSampler({0.0, 0.0}), InvalidArgument);
  EXPECT_THROW(DiscreteSampler({1.0, -1.0}), InvalidArgument);
}

TEST(DiscreteSampler, RejectsNonFiniteWeights) {
  const double inf = std::numeric_limits<double>::infinity();
  // An infinite weight made probability(1) NaN and every draw return 1.
  EXPECT_THROW(DiscreteSampler({1.0, inf, 1.0}), InvalidArgument);
  EXPECT_THROW(DiscreteSampler({1.0, std::nan("")}), InvalidArgument);
  EXPECT_THROW(DiscreteSampler({-inf, 1.0}), InvalidArgument);
  // Finite weights whose sum overflows.
  EXPECT_THROW(DiscreteSampler({1e308, 1e308, 1.0}), InvalidArgument);
  EXPECT_NO_THROW(DiscreteSampler({1e307, 1e307, 1.0}));
}

TEST(DiscreteSampler, QuantileRejectsDrawsOutsideUnitInterval) {
  const DiscreteSampler sampler({1.0, 2.0});
  EXPECT_THROW((void)sampler.quantile(-1e-300), InvalidArgument);
  EXPECT_THROW((void)sampler.quantile(1.0), InvalidArgument);
  EXPECT_THROW((void)sampler.quantile(std::nan("")), InvalidArgument);
  EXPECT_EQ(sampler.quantile(-0.0), 0u);
}

/// The CDF as the sampler builds it, searched in full with lower_bound.
std::size_t full_search(const std::vector<double>& weights, double u) {
  std::vector<double> cdf(weights.size());
  double sum = 0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    sum += weights[i];
    cdf[i] = sum;
  }
  for (auto& v : cdf) v /= sum;
  cdf.back() = 1.0;
  return static_cast<std::size_t>(
      std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
}

TEST(DiscreteSampler, GuideTableMatchesFullSearchAtBoundaries) {
  std::vector<std::vector<double>> cases = {
      {1.0},                                   // one entry
      {0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0},     // zero-weight plateaus
      {1e6, 1.0, 1.0, 1.0, 1e-6, 1.0, 1e-12},  // skewed
      {1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0},
      {0.1, 0.2, 0.7},
  };
  std::vector<double> zipf;
  for (int k = 1; k <= 1000; ++k) zipf.push_back(1.0 / std::pow(k, 1.3));
  cases.push_back(zipf);
  Rng rng(97);
  std::vector<double> random_weights;
  for (int k = 0; k < 777; ++k) {
    random_weights.push_back(rng.bernoulli(0.2) ? 0.0 : rng.uniform());
  }
  cases.push_back(random_weights);

  for (const auto& weights : cases) {
    const DiscreteSampler sampler(weights);
    const std::size_t m = weights.size();
    std::vector<double> us = {0.0, std::nextafter(1.0, 0.0),
                              std::numeric_limits<double>::denorm_min()};
    for (std::size_t k = 0; k <= m; ++k) {
      const double cut = static_cast<double>(k) / static_cast<double>(m);
      us.push_back(std::nextafter(cut, 0.0));
      if (cut < 1.0) {
        us.push_back(cut);
        us.push_back(std::nextafter(cut, 1.0));
      }
    }
    double sum = 0;
    for (const double w : weights) sum += w;
    double prefix = 0;
    for (const double w : weights) {
      // Every CDF value and its neighbours.
      prefix += w;
      const double c = prefix / sum;
      for (const double u : {std::nextafter(c, 0.0), c,
                             std::nextafter(c, 1.0)}) {
        if (u >= 0.0 && u < 1.0) us.push_back(u);
      }
    }
    for (int i = 0; i < 2000; ++i) us.push_back(rng.uniform());
    for (const double u : us) {
      ASSERT_EQ(sampler.quantile(u), full_search(weights, u))
          << "m=" << m << " u=" << u;
    }
  }
}

TEST(DiscreteSampler, DrawIsTheQuantileOfOneUniform) {
  const DiscreteSampler sampler({3.0, 0.0, 1.0, 5.0});
  Rng a(5), b(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(sampler(a), sampler.quantile(b.uniform()));
  }
}

}  // namespace
}  // namespace cl
