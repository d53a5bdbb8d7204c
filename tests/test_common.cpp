// Unit tests for the common toolkit: geometry, statistics, time, tables, RNG.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <random>
#include <sstream>
#include <vector>

#include "common/geo.h"
#include "common/rng.h"
#include "common/sim_time.h"
#include "common/stats.h"
#include "common/table.h"

namespace bussense {
namespace {

// ---------------------------------------------------------------- geometry

TEST(Point, Arithmetic) {
  const Point a{1.0, 2.0};
  const Point b{3.0, -1.0};
  EXPECT_EQ((a + b), (Point{4.0, 1.0}));
  EXPECT_EQ((a - b), (Point{-2.0, 3.0}));
  EXPECT_EQ((a * 2.0), (Point{2.0, 4.0}));
  EXPECT_EQ((2.0 * a), (Point{2.0, 4.0}));
}

TEST(Point, NormAndDistance) {
  EXPECT_DOUBLE_EQ(norm(Point{3.0, 4.0}), 5.0);
  EXPECT_DOUBLE_EQ(distance(Point{0.0, 0.0}, Point{3.0, 4.0}), 5.0);
  EXPECT_DOUBLE_EQ(dot(Point{1.0, 2.0}, Point{3.0, 4.0}), 11.0);
}

TEST(Point, Lerp) {
  const Point p = lerp(Point{0.0, 0.0}, Point{10.0, 20.0}, 0.25);
  EXPECT_DOUBLE_EQ(p.x, 2.5);
  EXPECT_DOUBLE_EQ(p.y, 5.0);
}

TEST(BoundingBox, ContainsAndDims) {
  const BoundingBox box{{0.0, 0.0}, {10.0, 5.0}};
  EXPECT_TRUE(box.contains(Point{5.0, 2.5}));
  EXPECT_TRUE(box.contains(Point{0.0, 0.0}));
  EXPECT_FALSE(box.contains(Point{11.0, 2.0}));
  EXPECT_FALSE(box.contains(Point{5.0, -0.1}));
  EXPECT_DOUBLE_EQ(box.width(), 10.0);
  EXPECT_DOUBLE_EQ(box.height(), 5.0);
}

TEST(Polyline, LengthOfStraightLine) {
  const Polyline line({{0.0, 0.0}, {100.0, 0.0}});
  EXPECT_DOUBLE_EQ(line.length(), 100.0);
}

TEST(Polyline, LengthOfLShape) {
  const Polyline line({{0.0, 0.0}, {100.0, 0.0}, {100.0, 50.0}});
  EXPECT_DOUBLE_EQ(line.length(), 150.0);
}

TEST(Polyline, CollapsesDuplicateVertices) {
  const Polyline line({{0.0, 0.0}, {0.0, 0.0}, {10.0, 0.0}, {10.0, 0.0}});
  EXPECT_EQ(line.vertices().size(), 2u);
  EXPECT_DOUBLE_EQ(line.length(), 10.0);
}

TEST(Polyline, RejectsDegenerate) {
  EXPECT_THROW(Polyline({}), std::invalid_argument);
  EXPECT_THROW(Polyline({{1.0, 1.0}}), std::invalid_argument);
  EXPECT_THROW(Polyline({{1.0, 1.0}, {1.0, 1.0}}), std::invalid_argument);
}

TEST(Polyline, PointAtInterpolatesAndClamps) {
  const Polyline line({{0.0, 0.0}, {100.0, 0.0}, {100.0, 100.0}});
  EXPECT_EQ(line.point_at(0.0), (Point{0.0, 0.0}));
  EXPECT_EQ(line.point_at(50.0), (Point{50.0, 0.0}));
  EXPECT_EQ(line.point_at(150.0), (Point{100.0, 50.0}));
  EXPECT_EQ(line.point_at(-10.0), (Point{0.0, 0.0}));
  EXPECT_EQ(line.point_at(1e9), (Point{100.0, 100.0}));
}

TEST(Polyline, DirectionAtFollowsSegments) {
  const Polyline line({{0.0, 0.0}, {100.0, 0.0}, {100.0, 100.0}});
  EXPECT_NEAR(line.direction_at(50.0).x, 1.0, 1e-12);
  EXPECT_NEAR(line.direction_at(150.0).y, 1.0, 1e-12);
}

TEST(Polyline, ProjectOntoSegmentInterior) {
  const Polyline line({{0.0, 0.0}, {100.0, 0.0}});
  const auto proj = line.project(Point{40.0, 30.0});
  EXPECT_DOUBLE_EQ(proj.arc_length, 40.0);
  EXPECT_DOUBLE_EQ(proj.distance, 30.0);
  EXPECT_EQ(proj.closest, (Point{40.0, 0.0}));
}

TEST(Polyline, ProjectClampsToEndpoints) {
  const Polyline line({{0.0, 0.0}, {100.0, 0.0}});
  EXPECT_DOUBLE_EQ(line.project(Point{-50.0, 0.0}).arc_length, 0.0);
  EXPECT_DOUBLE_EQ(line.project(Point{150.0, 10.0}).arc_length, 100.0);
}

TEST(Polyline, ProjectPicksNearestOfManySegments) {
  const Polyline line({{0.0, 0.0}, {100.0, 0.0}, {100.0, 100.0}});
  const auto proj = line.project(Point{98.0, 60.0});
  EXPECT_NEAR(proj.arc_length, 160.0, 1e-9);
}

TEST(Polyline, ReversedPreservesGeometry) {
  const Polyline line({{0.0, 0.0}, {100.0, 0.0}, {100.0, 100.0}});
  const Polyline rev = line.reversed();
  EXPECT_DOUBLE_EQ(rev.length(), line.length());
  const Point p1 = line.point_at(30.0);
  const Point p2 = rev.point_at(line.length() - 30.0);
  EXPECT_NEAR(p1.x, p2.x, 1e-9);
  EXPECT_NEAR(p1.y, p2.y, 1e-9);
}

// A property sweep: point_at and project are inverse along the line.
class PolylineRoundTrip : public ::testing::TestWithParam<double> {};

TEST_P(PolylineRoundTrip, ProjectInvertsPointAt) {
  const Polyline line(
      {{0.0, 0.0}, {120.0, 30.0}, {200.0, 30.0}, {260.0, -40.0}, {400.0, 0.0}});
  const double s = GetParam() * line.length();
  const Point p = line.point_at(s);
  const auto proj = line.project(p);
  EXPECT_NEAR(proj.arc_length, s, 1e-6);
  EXPECT_NEAR(proj.distance, 0.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(AlongTheLine, PolylineRoundTrip,
                         ::testing::Values(0.0, 0.1, 0.25, 0.33, 0.5, 0.66,
                                           0.75, 0.9, 0.999, 1.0));

// -------------------------------------------------------------- statistics

TEST(RunningStats, Empty) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, KnownMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // unbiased
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, SingleSampleHasZeroVariance) {
  RunningStats s;
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
}

TEST(EmpiricalDistribution, PercentileInterpolates) {
  EmpiricalDistribution d;
  d.add_all({10.0, 20.0, 30.0, 40.0, 50.0});
  EXPECT_DOUBLE_EQ(d.percentile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(d.percentile(50.0), 30.0);
  EXPECT_DOUBLE_EQ(d.percentile(100.0), 50.0);
  EXPECT_DOUBLE_EQ(d.percentile(25.0), 20.0);
  EXPECT_DOUBLE_EQ(d.percentile(12.5), 15.0);
}

TEST(EmpiricalDistribution, PercentileOfEmptyThrows) {
  EmpiricalDistribution d;
  EXPECT_THROW(d.percentile(50.0), std::logic_error);
}

TEST(EmpiricalDistribution, CdfCountsInclusive) {
  EmpiricalDistribution d;
  d.add_all({1.0, 2.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(d.cdf(0.5), 0.0);
  EXPECT_DOUBLE_EQ(d.cdf(2.0), 0.75);
  EXPECT_DOUBLE_EQ(d.cdf(3.0), 1.0);
}

TEST(EmpiricalDistribution, CdfSeriesEndpointsAndMonotonicity) {
  EmpiricalDistribution d;
  for (int i = 0; i < 100; ++i) d.add(static_cast<double>(i));
  const auto series = d.cdf_series(0.0, 99.0, 25);
  ASSERT_EQ(series.size(), 25u);
  EXPECT_DOUBLE_EQ(series.front().first, 0.0);
  EXPECT_DOUBLE_EQ(series.back().first, 99.0);
  for (std::size_t i = 1; i < series.size(); ++i) {
    EXPECT_GE(series[i].second, series[i - 1].second);
  }
  EXPECT_DOUBLE_EQ(series.back().second, 1.0);
}

TEST(LinearRegression, RecoversExactLine) {
  std::vector<double> xs, ys;
  for (int i = 0; i < 10; ++i) {
    xs.push_back(i);
    ys.push_back(3.0 + 2.0 * i);
  }
  const LinearFit fit = linear_regression(xs, ys);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 3.0, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(LinearRegression, RejectsDegenerateInput) {
  EXPECT_THROW(linear_regression({1.0}, {2.0}), std::invalid_argument);
  EXPECT_THROW(linear_regression({1.0, 1.0}, {1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW(linear_regression({1.0, 2.0}, {1.0}), std::invalid_argument);
}

TEST(LinearRegression, FixedInterceptRecoversSlope) {
  std::vector<double> xs, ys;
  for (int i = 1; i <= 20; ++i) {
    xs.push_back(i);
    ys.push_back(5.0 + 0.5 * i);
  }
  EXPECT_NEAR(regression_slope_fixed_intercept(xs, ys, 5.0), 0.5, 1e-12);
}

TEST(Histogram, BinsAndClamping) {
  Histogram h(0.0, 10.0, 5);
  h.add(0.5);   // bin 0
  h.add(9.9);   // bin 4
  h.add(-3.0);  // clamps to bin 0
  h.add(42.0);  // clamps to bin 4
  h.add(5.0);   // bin 2
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(2), 1u);
  EXPECT_EQ(h.bin_count(4), 2u);
  EXPECT_EQ(h.total(), 5u);
  EXPECT_DOUBLE_EQ(h.bin_center(2), 5.0);
}

TEST(Histogram, RejectsBadConstruction) {
  EXPECT_THROW(Histogram(0.0, 10.0, 0), std::invalid_argument);
  EXPECT_THROW(Histogram(10.0, 0.0, 5), std::invalid_argument);
}

// -------------------------------------------------------------------- time

TEST(SimTime, ClockConstruction) {
  EXPECT_DOUBLE_EQ(at_clock(0, 8, 30), 8.5 * kHour);
  EXPECT_DOUBLE_EQ(at_clock(1, 0, 0), kDay);
  EXPECT_DOUBLE_EQ(at_clock(2, 17, 0, 30.0), 2 * kDay + 17 * kHour + 30.0);
}

TEST(SimTime, TimeOfDayWraps) {
  EXPECT_DOUBLE_EQ(time_of_day(kDay + 3600.0), 3600.0);
  EXPECT_DOUBLE_EQ(time_of_day(5 * kDay), 0.0);
}

TEST(SimTime, DayIndex) {
  EXPECT_EQ(day_index(0.0), 0);
  EXPECT_EQ(day_index(kDay - 1.0), 0);
  EXPECT_EQ(day_index(kDay), 1);
  EXPECT_EQ(day_index(2.5 * kDay), 2);
}

TEST(SimTime, FormatClock) {
  EXPECT_EQ(format_clock(at_clock(0, 8, 30)), "08:30");
  EXPECT_EQ(format_clock(at_clock(3, 17, 5)), "17:05");
}

TEST(SimTime, SpeedConversionRoundTrip) {
  EXPECT_DOUBLE_EQ(kmh_to_ms(36.0), 10.0);
  EXPECT_DOUBLE_EQ(ms_to_kmh(kmh_to_ms(53.7)), 53.7);
}

// ------------------------------------------------------------------- table

TEST(Table, PrintsAlignedRows) {
  Table t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row("long-label", {3.14159}, 2);
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("long-label"), std::string::npos);
  EXPECT_NE(out.find("3.14"), std::string::npos);
  EXPECT_NE(out.find("| name"), std::string::npos);
}

TEST(Table, RejectsMismatchedRow) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(Fmt, Precision) {
  EXPECT_EQ(fmt(1.23456, 2), "1.23");
  EXPECT_EQ(fmt(1.0, 0), "1");
}

// --------------------------------------------------------------------- rng

TEST(Rng, DeterministicGivenSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  bool differ = false;
  for (int i = 0; i < 10 && !differ; ++i) {
    differ = a.uniform(0.0, 1.0) != b.uniform(0.0, 1.0);
  }
  EXPECT_TRUE(differ);
}

TEST(Rng, UniformWithinBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(2.0, 5.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(4);
  bool lo = false, hi = false;
  for (int i = 0; i < 1000; ++i) {
    const int v = rng.uniform_int(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    lo = lo || v == 0;
    hi = hi || v == 3;
  }
  EXPECT_TRUE(lo);
  EXPECT_TRUE(hi);
}

TEST(Rng, NormalMomentsApproximate) {
  Rng rng(5);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(rng.normal(10.0, 2.0));
  EXPECT_NEAR(s.mean(), 10.0, 0.1);
  EXPECT_NEAR(s.stddev(), 2.0, 0.1);
}

TEST(Rng, LognormalMedianApproximate) {
  Rng rng(6);
  EmpiricalDistribution d;
  for (int i = 0; i < 20000; ++i) d.add(rng.lognormal_median(40.0, 0.5));
  EXPECT_NEAR(d.median(), 40.0, 1.5);
}

TEST(Rng, PoissonMeanApproximate) {
  Rng rng(8);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(rng.poisson(3.5));
  EXPECT_NEAR(s.mean(), 3.5, 0.1);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(9);
  Rng child = a.fork();
  // The fork must not replay the parent stream.
  Rng b(9);
  (void)b.fork();
  bool differ = false;
  for (int i = 0; i < 10 && !differ; ++i) {
    differ = child.uniform(0.0, 1.0) != a.uniform(0.0, 1.0);
  }
  EXPECT_TRUE(differ);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(10);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

// Rng's engine must be std::mt19937_64 draw for draw: the seeded streams
// (and every digest pinned on them) predate the lazy engine. 1,400 draws
// cross the lazy seeding frontier (word 156), the first twist boundary
// (312) and two full tables (624).
TEST(Rng, EngineEqualsStdMt19937_64) {
  std::vector<std::uint64_t> seeds = {0, 1, 5489, ~std::uint64_t{0},
                                      std::uint64_t{1} << 63};
  for (std::uint64_t s = 0; seeds.size() < 1005; ++s) seeds.push_back(mix64(s));
  for (std::uint64_t seed : seeds) {
    Mt19937_64 lazy(seed);
    std::mt19937_64 reference(seed);
    for (int draw = 0; draw <= 1400; ++draw) {
      ASSERT_EQ(lazy(), reference()) << "seed " << seed << " draw " << draw;
    }
  }
}

TEST(Rng, EngineCopiesMidSeedingContinueTheStream) {
  for (int at : {0, 1, 155, 156, 157, 311, 312, 313, 623, 624}) {
    Mt19937_64 lazy(42);
    std::mt19937_64 reference(42);
    for (int d = 0; d < at; ++d) ASSERT_EQ(lazy(), reference());
    Mt19937_64 copy = lazy;
    std::mt19937_64 reference_copy = reference;
    for (int d = 0; d < 700; ++d) {
      ASSERT_EQ(lazy(), reference()) << "copied after " << at;
      ASSERT_EQ(copy(), reference_copy()) << "copied after " << at;
    }
  }
}

TEST(Rng, EngineMatchesStandardCheckValue) {
  // [rand.predef]: the 10000th consecutive invocation of a default-
  // constructed mt19937_64 (seed 5489) produces 9981545732273789042.
  Mt19937_64 engine(std::mt19937_64::default_seed);
  std::uint64_t value = 0;
  for (int i = 0; i < 10000; ++i) value = engine();
  EXPECT_EQ(value, 9981545732273789042ULL);
}

TEST(Rng, DistributionsMatchStdMt19937_64Reference) {
  for (std::uint64_t seed : {3ULL, 77ULL, 0x5eedULL}) {
    Rng rng(seed);
    std::mt19937_64 ref(seed);
    for (int i = 0; i < 400; ++i) {
      ASSERT_EQ(rng.uniform(-2.0, 5.0),
                std::uniform_real_distribution<double>(-2.0, 5.0)(ref));
      ASSERT_EQ(rng.uniform_int(0, 1000),
                std::uniform_int_distribution<int>(0, 1000)(ref));
      ASSERT_EQ(rng.normal(1.0, 0.5),
                std::normal_distribution<double>(1.0, 0.5)(ref));
      ASSERT_EQ(rng.lognormal_median(40.0, 0.5),
                std::lognormal_distribution<double>(std::log(40.0), 0.5)(ref));
      ASSERT_EQ(rng.exponential(3.0),
                std::exponential_distribution<double>(1.0 / 3.0)(ref));
      ASSERT_EQ(rng.poisson(4.5), std::poisson_distribution<int>(4.5)(ref));
      // Large means: Rng shaves Pois(8) draws until the mean is below 12.
      int reference_poisson = 0;
      double mean = 29.5;
      for (; mean >= 12.0; mean -= 8.0) {
        reference_poisson += std::poisson_distribution<int>(8.0)(ref);
      }
      reference_poisson += std::poisson_distribution<int>(mean)(ref);
      ASSERT_EQ(rng.poisson(29.5), reference_poisson);
      ASSERT_EQ(rng.bernoulli(0.3), std::bernoulli_distribution(0.3)(ref));
    }
    Rng child = rng.fork();
    std::mt19937_64 ref_child(ref());
    for (int i = 0; i < 400; ++i) {
      ASSERT_EQ(child.uniform(0.0, 1.0),
                std::uniform_real_distribution<double>(0.0, 1.0)(ref_child));
    }
  }
  for (std::uint64_t index = 0; index < 1000; ++index) {
    Rng stream = Rng::stream(2026, index);
    std::mt19937_64 ref(mix64(2026 ^ mix64(index + 0x632be59bd9b4e019ULL)));
    for (int i = 0; i < 3; ++i) {
      ASSERT_EQ(stream.uniform(0.0, 1.0),
                std::uniform_real_distribution<double>(0.0, 1.0)(ref));
    }
  }
}

}  // namespace
}  // namespace bussense
