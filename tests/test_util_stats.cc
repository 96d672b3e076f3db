/**
 * @file
 * Unit tests for the statistics toolkit: running moments, exact
 * percentiles and histograms.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>
#include <vector>

#include "util/stats.h"

namespace hercules {
namespace {

TEST(OnlineStats, EmptyIsZero)
{
    OnlineStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(OnlineStats, SingleValue)
{
    OnlineStats s;
    s.add(5.0);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), 5.0);
    EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(OnlineStats, KnownMoments)
{
    OnlineStats s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    // Sample variance of the classic example set: 32/7.
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(OnlineStats, NumericalStabilityLargeOffset)
{
    OnlineStats s;
    const double offset = 1e12;
    for (int i = 0; i < 1000; ++i)
        s.add(offset + (i % 2));
    EXPECT_NEAR(s.mean(), offset + 0.5, 1e-3);
    EXPECT_NEAR(s.variance(), 0.25, 1e-2);
}

TEST(OnlineStats, ResetClears)
{
    OnlineStats s;
    s.add(1.0);
    s.add(2.0);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(PercentileTracker, EmptyReturnsZero)
{
    PercentileTracker t;
    EXPECT_DOUBLE_EQ(t.percentile(50), 0.0);
    EXPECT_DOUBLE_EQ(t.mean(), 0.0);
    EXPECT_DOUBLE_EQ(t.max(), 0.0);
}

TEST(PercentileTracker, SingleSampleAllPercentiles)
{
    PercentileTracker t;
    t.add(42.0);
    EXPECT_DOUBLE_EQ(t.percentile(0), 42.0);
    EXPECT_DOUBLE_EQ(t.p50(), 42.0);
    EXPECT_DOUBLE_EQ(t.p99(), 42.0);
    EXPECT_DOUBLE_EQ(t.percentile(100), 42.0);
}

TEST(PercentileTracker, NearestRankDefinition)
{
    PercentileTracker t;
    for (int i = 1; i <= 100; ++i)
        t.add(static_cast<double>(i));
    // Nearest rank: p95 of 1..100 is the 95th value.
    EXPECT_DOUBLE_EQ(t.p95(), 95.0);
    EXPECT_DOUBLE_EQ(t.p50(), 50.0);
    EXPECT_DOUBLE_EQ(t.p99(), 99.0);
    EXPECT_DOUBLE_EQ(t.max(), 100.0);
}

TEST(PercentileTracker, UnsortedInsertOrder)
{
    PercentileTracker t;
    t.addAll({9.0, 1.0, 5.0, 3.0, 7.0});
    EXPECT_DOUBLE_EQ(t.p50(), 5.0);
    EXPECT_DOUBLE_EQ(t.max(), 9.0);
    EXPECT_NEAR(t.mean(), 5.0, 1e-12);
}

TEST(PercentileTracker, InterleavedAddAndQuery)
{
    PercentileTracker t;
    t.add(10.0);
    EXPECT_DOUBLE_EQ(t.p50(), 10.0);
    t.add(20.0);
    t.add(0.0);
    EXPECT_DOUBLE_EQ(t.p50(), 10.0);
    EXPECT_DOUBLE_EQ(t.max(), 20.0);
}

TEST(PercentileTracker, ResetClears)
{
    PercentileTracker t;
    t.add(1.0);
    t.reset();
    EXPECT_EQ(t.count(), 0u);
    EXPECT_DOUBLE_EQ(t.p95(), 0.0);
}

TEST(PercentileTrackerDeath, OutOfRangePercentilePanics)
{
    PercentileTracker t;
    t.add(1.0);
    EXPECT_DEATH(t.percentile(101.0), "percentile");
}

TEST(Histogram, BinEdgesAndCounts)
{
    Histogram h(0.0, 10.0, 5);
    EXPECT_EQ(h.bins(), 5u);
    EXPECT_DOUBLE_EQ(h.binLo(0), 0.0);
    EXPECT_DOUBLE_EQ(h.binHi(0), 2.0);
    EXPECT_DOUBLE_EQ(h.binLo(4), 8.0);
    h.add(1.0);
    h.add(1.5);
    h.add(9.0);
    EXPECT_EQ(h.binCount(0), 2u);
    EXPECT_EQ(h.binCount(4), 1u);
    EXPECT_EQ(h.total(), 3u);
}

TEST(Histogram, OutOfRangeClamped)
{
    Histogram h(0.0, 10.0, 5);
    h.add(-100.0);
    h.add(1e9);
    EXPECT_EQ(h.binCount(0), 1u);
    EXPECT_EQ(h.binCount(4), 1u);
}

TEST(Histogram, Fractions)
{
    Histogram h(0.0, 4.0, 4);
    h.add(0.5);
    h.add(1.5);
    h.add(1.7);
    h.add(3.5);
    EXPECT_DOUBLE_EQ(h.fraction(0), 0.25);
    EXPECT_DOUBLE_EQ(h.fraction(1), 0.50);
    EXPECT_DOUBLE_EQ(h.fraction(3), 0.25);
}

TEST(Histogram, FractionOfEmptyIsZero)
{
    Histogram h(0.0, 1.0, 2);
    EXPECT_DOUBLE_EQ(h.fraction(0), 0.0);
}

/** Percentiles must be monotone in p for any sample set. */
class PercentileMonotoneTest : public ::testing::TestWithParam<int>
{
};

TEST_P(PercentileMonotoneTest, MonotoneInP)
{
    PercentileTracker t;
    // Deterministic pseudo-random samples.
    uint64_t x = static_cast<uint64_t>(GetParam()) * 2654435761u + 1;
    for (int i = 0; i < 257; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        t.add(static_cast<double>(x >> 40));
    }
    double prev = -1.0;
    for (double p : {0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0,
                     100.0}) {
        double v = t.percentile(p);
        EXPECT_GE(v, prev) << "p=" << p;
        prev = v;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PercentileMonotoneTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

/** Nearest-rank percentile of a full sort: the selection's reference. */
double
sortedPercentile(std::vector<double> xs, double p)
{
    std::sort(xs.begin(), xs.end());
    double rank = std::ceil(p / 100.0 * static_cast<double>(xs.size()));
    size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
    return xs[std::min(idx, xs.size() - 1)];
}

/** Seeded samples with many duplicates and mixed magnitudes. */
class SampleStream
{
  public:
    explicit SampleStream(uint64_t seed) : x_(seed * 2654435761u + 7) {}

    double
    next()
    {
        x_ = x_ * 6364136223846793005ull + 1442695040888963407ull;
        uint64_t r = x_ >> 33;
        // ~1/4 of draws repeat one of 16 values; the rest spread over
        // six decades so summation order would matter.
        if (r % 4 == 0)
            return static_cast<double>(r % 16);
        return static_cast<double>(r % 100000) *
               std::pow(10.0, static_cast<double>(r % 6) - 3.0);
    }

  private:
    uint64_t x_;
};

/** The bits of a double, so equal results are checked bit for bit. */
uint64_t
bitsOf(double x)
{
    uint64_t b = 0;
    std::memcpy(&b, &x, sizeof b);
    return b;
}

/*
 * The multi-part selection equals nearestRankPercentile() over the
 * concatenated parts, bit for bit, for every kind of data and every
 * shape of parts, and whatever order an earlier selection left the
 * parts in.
 */
TEST(NearestRankPercentileParts, MatchesConcatenation)
{
    const std::vector<std::vector<size_t>> shapes = {
        {1},           {2000},         {0, 0, 700, 0}, {1, 1, 1, 1, 1},
        {1, 999},      {999, 1},       {5, 3000, 0, 37},
        {400, 400, 400}, {0, 1, 0, 2, 0, 3}, {17, 2, 1200, 1, 0, 64}};
    const std::vector<double> ps = {0.0, 1.0, 50.0, 95.0, 99.0, 100.0};
    std::mt19937_64 gen(7);
    std::uniform_real_distribution<double> uniform(0.0, 50.0);
    std::uniform_int_distribution<int> few(0, 4);
    enum class Data { Random, Ties, AllEqual };
    for (Data data : {Data::Random, Data::Ties, Data::AllEqual})
        for (const std::vector<size_t>& shape : shapes) {
            std::vector<std::vector<double>> parts;
            std::vector<double> all;
            for (size_t n : shape) {
                parts.emplace_back();
                for (size_t i = 0; i < n; ++i) {
                    const double x = data == Data::Random ? uniform(gen)
                                     : data == Data::Ties
                                         ? static_cast<double>(few(gen))
                                         : 3.25;
                    parts.back().push_back(x);
                    all.push_back(x);
                }
            }
            std::vector<std::vector<double>*> ptrs;
            for (std::vector<double>& part : parts)
                ptrs.push_back(&part);
            for (double p : ps) {
                SCOPED_TRACE("data " + std::to_string(static_cast<int>(data)) +
                             " parts " + std::to_string(shape.size()) +
                             " p " + std::to_string(p));
                const double want = nearestRankPercentile(all, p);
                const double got = nearestRankPercentile(ptrs, p);
                EXPECT_EQ(bitsOf(got), bitsOf(want));
            }
            // Reordered, never resized.
            for (size_t i = 0; i < shape.size(); ++i)
                EXPECT_EQ(parts[i].size(), shape[i]);
        }
}

TEST(NearestRankPercentileParts, NoSamplesIsZero)
{
    std::vector<double> empty_a, empty_b;
    EXPECT_EQ(nearestRankPercentile({}, 50.0), 0.0);
    EXPECT_EQ(nearestRankPercentile({&empty_a, &empty_b}, 99.0), 0.0);
}

TEST(PercentileTracker, SelectionMatchesSortReference)
{
    const double ps[] = {0.0, 0.1, 50.0, 95.0, 99.0, 99.9, 100.0};
    // Every size to 64, then every 44th up to exactly 2000.
    for (size_t n = 1; n <= 2000; n += (n < 64 ? 1 : 44)) {
        SampleStream gen(n);
        PercentileTracker t;
        std::vector<double> ref;
        double ref_sum = 0.0;
        for (size_t i = 0; i < n; ++i) {
            double x = gen.next();
            t.add(x);
            ref.push_back(x);
            ref_sum += x;
            // Interleave queries with the adds: every accessor reorders
            // or reads the stored samples mid-stream.
            if (i % 97 == 0) {
                double p = ps[i % 7];
                ASSERT_EQ(t.percentile(p), sortedPercentile(ref, p))
                    << "n=" << n << " i=" << i << " p=" << p;
                ASSERT_EQ(t.max(), *std::max_element(ref.begin(),
                                                     ref.end()));
                ASSERT_EQ(t.mean(),
                          ref_sum / static_cast<double>(ref.size()));
            }
        }
        for (double p : ps)
            ASSERT_EQ(t.percentile(p), sortedPercentile(ref, p))
                << "n=" << n << " p=" << p;
        ASSERT_EQ(t.max(), *std::max_element(ref.begin(), ref.end()));
        ASSERT_EQ(t.count(), n);
    }
}

TEST(PercentileTracker, MeanIsInsertionOrderSumWhateverTheCallOrder)
{
    // Four trackers fed the same samples, queried in different orders:
    // mean() must be the insertion-order sum / count, bit for bit.
    SampleStream gen(99);
    std::vector<double> xs;
    for (int i = 0; i < 1500; ++i)
        xs.push_back(gen.next());
    double sum = 0.0;
    for (double x : xs)
        sum += x;
    const double want = sum / static_cast<double>(xs.size());

    PercentileTracker mean_first, pct_first, max_first, batch;
    for (double x : xs) {
        mean_first.add(x);
        pct_first.add(x);
        max_first.add(x);
    }
    batch.addAll(xs);

    EXPECT_EQ(mean_first.mean(), want);
    EXPECT_EQ(mean_first.p99(), pct_first.p99());
    pct_first.p50();
    pct_first.percentile(0.1);
    EXPECT_EQ(pct_first.mean(), want);
    max_first.max();
    max_first.p95();
    EXPECT_EQ(max_first.mean(), want);
    batch.p99();
    EXPECT_EQ(batch.mean(), want);

    // The sum is genuinely order-sensitive on this data, so the test
    // would catch a mean computed over the reordered samples.
    std::vector<double> sorted = xs;
    std::sort(sorted.begin(), sorted.end());
    double sorted_sum = 0.0;
    for (double x : sorted)
        sorted_sum += x;
    EXPECT_NE(sorted_sum, sum);

    batch.reset();
    EXPECT_EQ(batch.mean(), 0.0);
    batch.add(2.5);
    EXPECT_EQ(batch.mean(), 2.5);
}

}  // namespace
}  // namespace hercules
