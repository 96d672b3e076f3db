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
#include <limits>
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
 * Bucket-counted selection equals nearestRankPercentile() over the
 * concatenated parts, for every shape of parts and every kind of
 * value: random, duplicated, signed zeros, denormals, negatives,
 * infinities, and values below and above the bucket range. Equal
 * order statistics are equal values; the only distinct bit patterns
 * that compare equal are -0 and +0, so a zero result is checked by
 * value and every other by its bits. Selecting leaves the parts as
 * they were.
 */
TEST(CountedSamples, SelectionMatchesConcatenation)
{
    const std::vector<std::vector<size_t>> shapes = {
        {1},           {2000},         {0, 0, 700, 0}, {1, 1, 1, 1, 1},
        {1, 999},      {999, 1},       {5, 3000, 0, 37},
        {400, 400, 400}, {0, 1, 0, 2, 0, 3}, {17, 2, 1200, 1, 0, 64},
        // Parts that fill one storage block exactly, and span several.
        {CountedSamples::kBlockSamples, 1},
        {3 * CountedSamples::kBlockSamples + 5, 0, 9000}};
    const std::vector<double> ps = {0.0, 1.0, 50.0, 95.0, 99.0, 99.9, 100.0};
    const double inf = std::numeric_limits<double>::infinity();
    const double denormal = std::numeric_limits<double>::denorm_min();
    const double below = std::ldexp(1.0, kSampleBucketLoExp);
    const double above = std::ldexp(1.0, kSampleBucketHiExp);
    const std::vector<double> specials = {
        0.0,       -0.0,          denormal,    -denormal,   -1.5,
        -1e300,    inf,           -inf,        1e-300,      below,
        std::nextafter(below, 0.0),            above,
        std::nextafter(above, 0.0),            1e300,       7.0};
    std::mt19937_64 gen(7);
    std::uniform_real_distribution<double> uniform(0.0, 50.0);
    std::uniform_int_distribution<int> few(0, 4);
    std::uniform_int_distribution<size_t> pick(0, specials.size() - 1);
    enum class Data { Random, Ties, AllEqual, Specials, Mixed };
    for (Data data : {Data::Random, Data::Ties, Data::AllEqual,
                      Data::Specials, Data::Mixed})
        for (const std::vector<size_t>& shape : shapes) {
            std::vector<CountedSamples> parts(shape.size());
            std::vector<double> all;
            for (size_t i = 0; i < shape.size(); ++i)
                for (size_t j = 0; j < shape[i]; ++j) {
                    double x = 3.25;
                    if (data == Data::Random)
                        x = uniform(gen);
                    else if (data == Data::Ties)
                        x = static_cast<double>(few(gen));
                    else if (data == Data::Specials)
                        x = specials[pick(gen)];
                    else if (data == Data::Mixed)
                        x = few(gen) == 0 ? specials[pick(gen)] : uniform(gen);
                    parts[i].add(x);
                    all.push_back(x);
                }
            std::vector<CountedSpan> spans;
            for (const CountedSamples& part : parts)
                spans.push_back(part.all());
            const std::vector<double> before = all;
            const std::vector<double> got = nearestRankPercentiles(spans, ps);
            ASSERT_EQ(got.size(), ps.size());
            for (size_t k = 0; k < ps.size(); ++k) {
                SCOPED_TRACE("data " + std::to_string(static_cast<int>(data)) +
                             " parts " + std::to_string(shape.size()) +
                             " p " + std::to_string(ps[k]));
                std::vector<double> copy = before;
                const double want = nearestRankPercentile(copy, ps[k]);
                if (want == 0.0)
                    EXPECT_EQ(got[k], 0.0);
                else
                    EXPECT_EQ(bitsOf(got[k]), bitsOf(want));
            }
            // The parts are read, never reordered.
            size_t at = 0;
            for (const CountedSpan& span : spans)
                span.samples->forEachRun(
                    span.first, span.last,
                    [&](const double* x, const double* end) {
                        for (; x != end; ++x)
                            EXPECT_EQ(bitsOf(*x), bitsOf(before[at++]));
                    });
            EXPECT_EQ(at, before.size());
        }
}

TEST(CountedSamples, NoSamplesIsZero)
{
    CountedSamples a, b;
    EXPECT_EQ(nearestRankPercentiles({}, {50.0}), std::vector<double>{0.0});
    EXPECT_EQ(nearestRankPercentiles({a.all(), b.window()}, {99.0, 1.0}),
              (std::vector<double>{0.0, 0.0}));
    EXPECT_EQ(a.max(), 0.0);
    EXPECT_EQ(a.windowMax(), 0.0);
}

TEST(CountedSamples, BucketsNeverDecreaseWithTheValue)
{
    const double inf = std::numeric_limits<double>::infinity();
    std::vector<double> xs = {-inf, -1e300, -2.0, -0.0, 0.0,
                              std::numeric_limits<double>::denorm_min(),
                              1e-300, inf};
    for (int e = kSampleBucketLoExp - 2; e <= kSampleBucketHiExp + 2; ++e)
        for (double m : {1.0, 1.0 + 1.0 / 256, 1.5, 1.99})
            xs.push_back(std::ldexp(m, e));
    std::sort(xs.begin(), xs.end());
    for (size_t i = 1; i < xs.size(); ++i)
        EXPECT_LE(sampleBucket(xs[i - 1]), sampleBucket(xs[i])) << xs[i];
    EXPECT_EQ(sampleBucket(-0.0), sampleBucket(0.0));
    EXPECT_EQ(sampleBucket(-inf), 0u);
    EXPECT_EQ(sampleBucket(inf), kSampleBuckets - 1);
    // 128 sub-buckets per binade inside the range.
    EXPECT_EQ(sampleBucket(2.0) - sampleBucket(1.0), 128u);
    EXPECT_EQ(sampleBucket(std::ldexp(1.0, kSampleBucketLoExp)), 1u);
}

/*
 * A window is the range added since startWindow(), with its own counts
 * and max; the whole buffer keeps every sample.
 */
TEST(CountedSamples, WindowIsTheNewestRange)
{
    SampleStream gen(5);
    CountedSamples s;
    std::vector<double> all, window;
    for (int round = 0; round < 4; ++round) {
        s.startWindow();
        window.clear();
        // Windows of 0, 5000, 10000 and 15000 samples: later ones
        // straddle storage blocks.
        for (int i = 0; i < 5000 * round; ++i) {
            const double x = gen.next();
            s.add(x);
            all.push_back(x);
            window.push_back(x);
        }
        ASSERT_EQ(s.count(), all.size());
        ASSERT_EQ(s.windowCount(), window.size());
        const std::vector<double> ps = {50.0, 99.0};
        std::vector<double> w = window, a = all;
        EXPECT_EQ(nearestRankPercentiles({s.window()}, ps),
                  nearestRankPercentiles(w, ps));
        EXPECT_EQ(nearestRankPercentiles({s.all()}, ps),
                  nearestRankPercentiles(a, ps));
        EXPECT_EQ(s.windowMax(),
                  window.empty() ? 0.0
                                 : *std::max_element(window.begin(),
                                                     window.end()));
        EXPECT_EQ(s.max(), all.empty() ? 0.0
                                       : *std::max_element(all.begin(),
                                                           all.end()));
    }
}

/*
 * Several percentiles from one ascending pass equal one selection
 * each, whatever the order of the ps (repeats included).
 */
TEST(NearestRankPercentiles, OnePassMatchesOneSelectionEach)
{
    const std::vector<double> ps = {99.0, 50.0, 95.0, 99.0, 0.0, 100.0, 0.1};
    for (size_t n : {size_t{1}, size_t{2}, size_t{7}, size_t{400},
                     size_t{2001}}) {
        SampleStream gen(n);
        std::vector<double> xs;
        for (size_t i = 0; i < n; ++i)
            xs.push_back(gen.next());
        std::vector<double> once = xs;
        const std::vector<double> got = nearestRankPercentiles(once, ps);
        for (size_t k = 0; k < ps.size(); ++k) {
            std::vector<double> copy = xs;
            EXPECT_EQ(got[k], nearestRankPercentile(copy, ps[k]))
                << "n=" << n << " p=" << ps[k];
        }
    }
    std::vector<double> empty;
    EXPECT_EQ(nearestRankPercentiles(empty, {50.0, 99.0}),
              (std::vector<double>{0.0, 0.0}));
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
