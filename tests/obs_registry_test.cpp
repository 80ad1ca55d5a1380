// Unit tests for the typed metric instruments: counter/gauge basics,
// log-bucket boundary math, percentile estimation, lane-striped folding and
// registry identity.

#include <gtest/gtest.h>

#include <cmath>

#include "obs/lane.hpp"
#include "obs/registry.hpp"

namespace peertrack::obs {
namespace {

TEST(Counter, AddsAndReads) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.Value(), 42u);
}

TEST(Gauge, HoldsLastValue) {
  Gauge g;
  EXPECT_DOUBLE_EQ(g.Value(), 0.0);
  g.Set(3.5);
  g.Set(-1.25);
  EXPECT_DOUBLE_EQ(g.Value(), -1.25);
}

TEST(Histogram, EmptyIsAllZero) {
  Histogram h;
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_DOUBLE_EQ(h.Sum(), 0.0);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.Min(), 0.0);
  EXPECT_DOUBLE_EQ(h.Max(), 0.0);
  EXPECT_DOUBLE_EQ(h.Percentile(50.0), 0.0);
}

TEST(Histogram, BucketZeroIsUnderflow) {
  Histogram h;  // min_bound = 0.01
  EXPECT_EQ(h.BucketIndexFor(0.0), 0u);
  EXPECT_EQ(h.BucketIndexFor(0.0099), 0u);
  // A value exactly on the lower edge of bucket 1 lands in bucket 1.
  EXPECT_EQ(h.BucketIndexFor(0.01), 1u);
  EXPECT_DOUBLE_EQ(h.BucketLow(0), 0.0);
  EXPECT_DOUBLE_EQ(h.BucketHigh(0), h.options().min_bound);
}

TEST(Histogram, BucketBoundsAreContiguousAndGeometric) {
  Histogram h;
  const double growth =
      std::exp2(1.0 / static_cast<double>(h.options().buckets_per_octave));
  for (std::size_t b = 1; b + 1 < h.BucketCount(); ++b) {
    // Each bucket starts where the previous one ends...
    EXPECT_DOUBLE_EQ(h.BucketLow(b), h.BucketHigh(b - 1)) << "bucket " << b;
    // ...and spans one growth factor.
    EXPECT_NEAR(h.BucketHigh(b) / h.BucketLow(b), growth, 1e-12) << "bucket " << b;
  }
  EXPECT_TRUE(std::isinf(h.BucketHigh(h.BucketCount() - 1)));
}

TEST(Histogram, BucketMidpointsRoundTrip) {
  Histogram h;
  for (std::size_t b = 1; b + 1 < h.BucketCount(); ++b) {
    const double mid = 0.5 * (h.BucketLow(b) + h.BucketHigh(b));
    EXPECT_EQ(h.BucketIndexFor(mid), b) << "midpoint of bucket " << b;
  }
}

TEST(Histogram, OverflowClampsToLastBucket) {
  Histogram h;
  EXPECT_EQ(h.BucketIndexFor(1e30), h.BucketCount() - 1);
  h.Add(1e30);
  EXPECT_EQ(h.BucketValue(h.BucketCount() - 1), 1u);
  EXPECT_DOUBLE_EQ(h.Max(), 1e30);
  // The overflow bucket caps interpolation at the observed max.
  EXPECT_DOUBLE_EQ(h.Percentile(99.0), 1e30);
}

TEST(Histogram, NegativeSamplesClampToZero) {
  Histogram h;
  h.Add(-5.0);
  EXPECT_EQ(h.Count(), 1u);
  EXPECT_DOUBLE_EQ(h.Min(), 0.0);
  EXPECT_DOUBLE_EQ(h.Sum(), 0.0);
  EXPECT_EQ(h.BucketValue(0), 1u);
}

TEST(Histogram, ExactStatsAreExact) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.Add(static_cast<double>(i));
  EXPECT_EQ(h.Count(), 100u);
  EXPECT_DOUBLE_EQ(h.Sum(), 5050.0);
  EXPECT_DOUBLE_EQ(h.Mean(), 50.5);
  EXPECT_DOUBLE_EQ(h.Min(), 1.0);
  EXPECT_DOUBLE_EQ(h.Max(), 100.0);
}

TEST(Histogram, PercentilesWithinBucketError) {
  // 4 buckets/octave gives growth 2^(1/4) ~ 1.19, so any percentile
  // estimate is within ~19% of the true order statistic.
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.Add(static_cast<double>(i));
  EXPECT_NEAR(h.P50(), 500.0, 500.0 * 0.19);
  EXPECT_NEAR(h.P95(), 950.0, 950.0 * 0.19);
  EXPECT_NEAR(h.P99(), 990.0, 990.0 * 0.19);
  // Percentiles are monotone in p and clamped to [Min, Max].
  EXPECT_LE(h.P50(), h.P95());
  EXPECT_LE(h.P95(), h.P99());
  EXPECT_GE(h.Percentile(0.0), h.Min());
  EXPECT_DOUBLE_EQ(h.Percentile(100.0), 1000.0);
}

TEST(Histogram, SingleSamplePercentilesCollapse) {
  Histogram h;
  h.Add(7.0);
  EXPECT_DOUBLE_EQ(h.P50(), 7.0);
  EXPECT_DOUBLE_EQ(h.P99(), 7.0);
}

TEST(Histogram, ResetClearsEverything) {
  Histogram h;
  h.Add(1.0);
  h.Add(2.0);
  h.Reset();
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_DOUBLE_EQ(h.Percentile(50.0), 0.0);
  for (std::size_t b = 0; b < h.BucketCount(); ++b) {
    EXPECT_EQ(h.BucketValue(b), 0u);
  }
}

TEST(Histogram, CustomOptionsRespected) {
  HistogramOptions options;
  options.min_bound = 1.0;
  options.buckets_per_octave = 1;
  options.max_buckets = 8;
  Histogram h(options);
  EXPECT_EQ(h.BucketCount(), 8u);
  EXPECT_EQ(h.BucketIndexFor(0.5), 0u);
  EXPECT_EQ(h.BucketIndexFor(1.0), 1u);   // [1, 2)
  EXPECT_EQ(h.BucketIndexFor(3.0), 2u);   // [2, 4)
  EXPECT_EQ(h.BucketIndexFor(1000.0), 7u);
}

// Quarter-integer samples keep every partial sum exact, so the order in
// which lanes fold cannot change Sum().
double StripeSample(int i) { return 0.25 * (1 + (i * 37) % 1000); }

void ExpectSameHistogram(const Histogram& striped, const Histogram& plain) {
  EXPECT_EQ(striped.Count(), plain.Count());
  EXPECT_DOUBLE_EQ(striped.Sum(), plain.Sum());
  EXPECT_DOUBLE_EQ(striped.Min(), plain.Min());
  EXPECT_DOUBLE_EQ(striped.Max(), plain.Max());
  EXPECT_DOUBLE_EQ(striped.P50(), plain.P50());
  EXPECT_DOUBLE_EQ(striped.P99(), plain.P99());
  for (std::size_t b = 0; b < plain.BucketCount(); ++b) {
    EXPECT_EQ(striped.BucketValue(b), plain.BucketValue(b)) << "bucket " << b;
  }
}

TEST(Histogram, StripedLanesFoldLikeOneLane) {
  Histogram plain;
  Histogram striped;
  striped.EnableStriping(4);
  for (int i = 0; i < 400; ++i) {
    plain.Add(StripeSample(i));
    LaneScope lane(static_cast<std::uint32_t>(i % 4));
    striped.Add(StripeSample(i));
  }
  // The extremes sit outside lane 0, so the fold must carry min and max.
  plain.Add(0.0);
  plain.Add(300.0);
  {
    LaneScope lane(2);
    striped.Add(0.0);
  }
  {
    LaneScope lane(3);
    striped.Add(300.0);
  }
  ExpectSameHistogram(striped, plain);
  ExpectSameHistogram(striped, plain);  // The first read's fold is stable.

  // Samples written after a fold land in the lanes again and fold again.
  for (int i = 400; i < 500; ++i) {
    plain.Add(StripeSample(i));
    LaneScope lane(static_cast<std::uint32_t>(3 - i % 4));
    striped.Add(StripeSample(i));
  }
  ExpectSameHistogram(striped, plain);

  // Reset clears every lane, including ones written but not yet folded.
  for (std::uint32_t lane = 0; lane < 4; ++lane) {
    LaneScope scope(lane);
    striped.Add(7.0);
  }
  striped.Reset();
  ExpectSameHistogram(striped, Histogram{});
}

TEST(Counter, StripedLanesFoldLikeOneLane) {
  Counter plain;
  Counter striped;
  striped.EnableStriping(4);
  for (int i = 0; i < 400; ++i) {
    plain.Add(static_cast<std::uint64_t>(i));
    LaneScope lane(static_cast<std::uint32_t>(i % 4));
    striped.Add(static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(striped.Value(), plain.Value());
  EXPECT_EQ(striped.Value(), plain.Value());

  for (std::uint32_t lane = 0; lane < 4; ++lane) {
    LaneScope scope(lane);
    striped.Add(7);
  }
  striped.ResetValue();
  EXPECT_EQ(striped.Value(), 0u);
}

TEST(Registry, SameNameSameInstrument) {
  Registry registry;
  Counter& a = registry.GetCounter("x");
  a.Add(3);
  EXPECT_EQ(&registry.GetCounter("x"), &a);
  EXPECT_EQ(registry.CounterValue("x"), 3u);
  EXPECT_EQ(registry.CounterValue("never-created"), 0u);

  Histogram& h = registry.GetHistogram("lat");
  h.Add(1.0);
  EXPECT_EQ(&registry.GetHistogram("lat"), &h);
  EXPECT_EQ(registry.FindHistogram("lat"), &h);
  EXPECT_EQ(registry.FindHistogram("nope"), nullptr);
}

TEST(Registry, IterationIsSortedByName) {
  Registry registry;
  registry.GetCounter("zeta");
  registry.GetCounter("alpha");
  registry.GetCounter("mid");
  std::string previous;
  for (const auto& [name, counter] : registry.counters()) {
    EXPECT_LT(previous, name);
    previous = name;
  }
  EXPECT_EQ(registry.counters().size(), 3u);
}

}  // namespace
}  // namespace peertrack::obs
