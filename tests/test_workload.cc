/**
 * @file
 * Tests of the workload generators: Poisson arrivals, heavy-tailed
 * query sizes (Fig 2(b)), pooling variability (Fig 2(c)), diurnal load
 * curves (Fig 2(d)) and embedding-access traces.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>

#include "util/stats.h"
#include "workload/diurnal.h"
#include "workload/querygen.h"
#include "model/partition.h"
#include "workload/trace.h"
#include "workload/trace_gen.h"

namespace hercules::workload {
namespace {

TEST(QueryGen, DeterministicStreams)
{
    QueryGenerator a(1000, 42), b(1000, 42);
    for (int i = 0; i < 50; ++i) {
        Query qa = a.next();
        Query qb = b.next();
        EXPECT_DOUBLE_EQ(qa.arrival_s, qb.arrival_s);
        EXPECT_EQ(qa.size, qb.size);
        EXPECT_DOUBLE_EQ(qa.pooling_scale, qb.pooling_scale);
    }
}

TEST(QueryGen, PoissonInterarrivalMean)
{
    QueryGenerator gen(500.0, 7);
    OnlineStats gaps;
    double prev = 0.0;
    for (int i = 0; i < 20000; ++i) {
        Query q = gen.next();
        gaps.add(q.arrival_s - prev);
        prev = q.arrival_s;
    }
    EXPECT_NEAR(gaps.mean(), 1.0 / 500.0, 1e-4);
    // Exponential: stddev == mean.
    EXPECT_NEAR(gaps.stddev(), gaps.mean(), 2e-4);
}

TEST(QueryGen, ArrivalsMonotone)
{
    QueryGenerator gen(100.0, 9);
    double prev = -1.0;
    for (int i = 0; i < 1000; ++i) {
        Query q = gen.next();
        EXPECT_GT(q.arrival_s, prev);
        prev = q.arrival_s;
    }
}

TEST(QueryGen, SizesWithinClipRange)
{
    QuerySizeDist dist;
    QueryGenerator gen(100.0, 11, dist);
    for (const Query& q : gen.generate(5000)) {
        EXPECT_GE(q.size, dist.min_size);
        EXPECT_LE(q.size, dist.max_size);
    }
}

TEST(QueryGen, HeavyTailPercentileOrdering)
{
    // Fig 2(b): a pronounced p75 < p95 < p99 spread within [10, 1000].
    QueryGenerator gen(100.0, 13);
    PercentileTracker t;
    for (const Query& q : gen.generate(30000))
        t.add(q.size);
    EXPECT_LT(t.p50(), t.p75());
    EXPECT_LT(t.p75(), t.p95());
    EXPECT_LT(t.p95(), t.p99());
    // Tail heaviness: p99 is several times the median.
    EXPECT_GT(t.p99() / t.p50(), 4.0);
}

TEST(QueryGen, AnalyticPercentilesMatchEmpirical)
{
    QuerySizeDist dist;
    QueryGenerator gen(100.0, 17, dist);
    PercentileTracker t;
    for (const Query& q : gen.generate(40000))
        t.add(q.size);
    EXPECT_NEAR(t.p75(), dist.percentile(75), dist.percentile(75) * 0.1);
    EXPECT_NEAR(t.p95(), dist.percentile(95), dist.percentile(95) * 0.1);
}

TEST(QueryGen, PoolingScaleCentredOnOne)
{
    QueryGenerator gen(100.0, 19);
    OnlineStats s;
    for (const Query& q : gen.generate(20000))
        s.add(q.pooling_scale);
    EXPECT_NEAR(s.mean(), 1.03, 0.05);  // exp(sigma^2/2), sigma=0.25
    EXPECT_GT(s.stddev(), 0.1);
}

TEST(QueryGen, RateChangeTakesEffect)
{
    QueryGenerator gen(100.0, 23);
    gen.generate(100);
    double t0 = gen.next().arrival_s;
    gen.setQps(10000.0);
    OnlineStats gaps;
    double prev = t0;
    for (int i = 0; i < 5000; ++i) {
        Query q = gen.next();
        gaps.add(q.arrival_s - prev);
        prev = q.arrival_s;
    }
    EXPECT_NEAR(gaps.mean(), 1e-4, 2e-5);
}

uint64_t
doubleBits(double d)
{
    uint64_t u;
    std::memcpy(&u, &d, sizeof u);
    return u;
}

/*
 * Bit pin of the default stream: an FNV-1a digest over the id, arrival,
 * size and pooling-scale bits of the first 1,000 queries of
 * QueryGenerator(800, 42), captured before next() was rebuilt on
 * drawUnitQuery(), plus the first and last query in full.
 */
TEST(QueryGen, StreamBitsPinned)
{
    QueryGenerator gen(800, 42);
    uint64_t h = 1469598103934665603ull;
    auto mix = [&h](uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 1099511628211ull;
        }
    };
    for (int i = 0; i < 1000; ++i) {
        const Query q = gen.next();
        mix(q.id);
        mix(doubleBits(q.arrival_s));
        mix(static_cast<uint64_t>(static_cast<int64_t>(q.size)));
        mix(doubleBits(q.pooling_scale));
        if (i == 0) {
            EXPECT_EQ(q.arrival_s, 0x1.87e546e2c3c5fp-12);
            EXPECT_EQ(q.size, 36);
            EXPECT_EQ(q.pooling_scale, 0x1.6d0353f7f4dacp+0);
        } else if (i == 999) {
            EXPECT_EQ(q.arrival_s, 0x1.48fcf1abb821ep+0);
            EXPECT_EQ(q.size, 67);
            EXPECT_EQ(q.pooling_scale, 0x1.07989f49e4b6cp+0);
        }
    }
    EXPECT_EQ(h, 0x2885eaf79c6682d6ull);
}

/*
 * A unit-rate draw scaled by the rate (clock += gap / rate) is the
 * stream a QueryGenerator at that rate draws, bit for bit — the
 * identity the simulator's per-workload probe stream relies on.
 */
TEST(QueryGen, UnitDrawScalesToEveryRate)
{
    QuerySizeDist sizes;
    sizes.median = 120.0;
    sizes.sigma = 0.7;
    PoolingDist pool;
    pool.sigma = 0.4;
    for (double rate : {0.37, 800.0, 1e9}) {
        QueryGenerator gen(rate, 9, sizes, pool);
        Rng rng(9);
        double clock_s = 0.0;
        for (int i = 0; i < 500; ++i) {
            const UnitQuery u = drawUnitQuery(rng, sizes, pool);
            clock_s += u.gap / rate;
            const Query q = gen.next();
            ASSERT_EQ(doubleBits(q.arrival_s), doubleBits(clock_s));
            ASSERT_EQ(q.size, u.size);
            ASSERT_EQ(doubleBits(q.pooling_scale),
                      doubleBits(u.pooling_scale));
        }
    }
}

TEST(QueryGenDeath, NonPositiveRate)
{
    EXPECT_DEATH(QueryGenerator(0.0, 1), "non-positive");
}

TEST(Diurnal, PeakAtConfiguredHour)
{
    DiurnalConfig cfg;
    cfg.peak_qps = 50'000;
    cfg.peak_hour = 20.0;
    cfg.noise_frac = 0.0;
    DiurnalLoad load(cfg);
    double at_peak = load.loadAt(20.0);
    for (double h : {0.0, 6.0, 12.0, 16.0})
        EXPECT_GT(at_peak, load.loadAt(h)) << "hour " << h;
    EXPECT_NEAR(at_peak, 50'000, 50'000 * 0.13);
}

TEST(Diurnal, FluctuationExceedsFiftyPercent)
{
    // Paper: >50% swing between peak and off-peak.
    DiurnalLoad load(DiurnalConfig{});
    double lo = 1e18, hi = 0.0;
    for (double t = 0.0; t < 24.0; t += 0.1) {
        lo = std::min(lo, load.loadAt(t));
        hi = std::max(hi, load.loadAt(t));
    }
    EXPECT_GT((hi - lo) / hi, 0.5);
}

TEST(Diurnal, TwentyFourHourPeriodicity)
{
    DiurnalLoad load(DiurnalConfig{});
    for (double t : {1.0, 7.5, 13.0, 21.25})
        EXPECT_NEAR(load.loadAt(t), load.loadAt(t + 24.0),
                    load.loadAt(t) * 0.05);
}

TEST(Diurnal, SynchronizedServicesPeakTogether)
{
    // Two services with nearby peak hours must peak within ~2h of each
    // other (the synchronous pattern of Fig 2(d)).
    DiurnalConfig c1, c2;
    c1.peak_hour = 20.0;
    c2.peak_hour = 19.5;
    c2.seed = 99;
    DiurnalLoad l1(c1), l2(c2);
    auto argmax = [](const DiurnalLoad& l) {
        double best_t = 0.0, best = 0.0;
        for (double t = 0.0; t < 24.0; t += 0.05) {
            if (l.loadAt(t) > best) {
                best = l.loadAt(t);
                best_t = t;
            }
        }
        return best_t;
    };
    EXPECT_NEAR(argmax(l1), argmax(l2), 2.0);
}

TEST(Diurnal, SampleGridLength)
{
    DiurnalLoad load(DiurnalConfig{});
    auto s = load.sample(24.0, 0.5);
    EXPECT_EQ(s.size(), 48u);
    for (double v : s)
        EXPECT_GE(v, 0.0);
}

TEST(Diurnal, NoiseIsDeterministicPerSeed)
{
    DiurnalConfig cfg;
    cfg.seed = 5;
    DiurnalLoad a(cfg), b(cfg);
    EXPECT_DOUBLE_EQ(a.loadAt(3.21), b.loadAt(3.21));
}

TEST(Diurnal, SampleHorizonNotDivisibleByInterval)
{
    // 24h at 0.7h intervals: 34 full steps plus the 0.2h remainder's
    // start point -> 35 samples, the last at t = 23.8h.
    DiurnalLoad load(DiurnalConfig{});
    auto s = load.sample(24.0, 0.7);
    EXPECT_EQ(s.size(), 35u);
    EXPECT_NEAR(s.back(), load.loadAt(23.8), load.loadAt(23.8) * 1e-9);
}

TEST(Diurnal, SampleZeroNoiseIsSeedIndependent)
{
    DiurnalConfig a, b;
    a.noise_frac = b.noise_frac = 0.0;
    a.seed = 1;
    b.seed = 999;  // ripple phases differ but are multiplied by zero
    auto sa = DiurnalLoad(a).sample(24.0, 0.25);
    auto sb = DiurnalLoad(b).sample(24.0, 0.25);
    ASSERT_EQ(sa.size(), sb.size());
    for (size_t i = 0; i < sa.size(); ++i)
        EXPECT_DOUBLE_EQ(sa[i], sb[i]) << "sample " << i;
}

TEST(Diurnal, SampleBeyondOneDayWrapsTheCycle)
{
    DiurnalLoad load(DiurnalConfig{});
    auto s = load.sample(48.0, 0.5);
    ASSERT_EQ(s.size(), 96u);
    for (size_t i = 0; i < 48; ++i)
        EXPECT_NEAR(s[i], s[i + 48], s[i] * 1e-9) << "sample " << i;
}

TEST(DiurnalDeath, BadConfig)
{
    DiurnalConfig cfg;
    cfg.peak_qps = -1.0;
    EXPECT_DEATH(DiurnalLoad{cfg}, "non-positive");
}

/*
 * The unforecast surge window: loadAt() (actual demand, what the
 * trace generator draws from) is multiplied inside the window while
 * forecastAt() (what the provisioner plans on) never sees it. Without
 * a surge configured the two are identical — behaviour-preserving.
 */
TEST(Diurnal, SurgeMultipliesActualButNotForecast)
{
    DiurnalConfig cfg;
    cfg.peak_qps = 1000.0;
    cfg.noise_frac = 0.0;
    cfg.surge_hour = 10.0;
    cfg.surge_hours = 2.0;
    cfg.surge_factor = 1.5;
    DiurnalLoad load(cfg);

    DiurnalConfig plain = cfg;
    plain.surge_hours = 0.0;
    plain.surge_factor = 1.0;
    DiurnalLoad base(plain);

    for (double t = 0.0; t < 24.0; t += 0.25) {
        EXPECT_DOUBLE_EQ(load.forecastAt(t), base.loadAt(t)) << t;
        bool inside = t >= 10.0 && t < 12.0;
        EXPECT_DOUBLE_EQ(load.loadAt(t),
                         inside ? 1.5 * base.loadAt(t)
                                : base.loadAt(t))
            << t;
    }
}

TEST(Diurnal, NoSurgeKeepsLoadEqualToForecast)
{
    DiurnalLoad load(DiurnalConfig{});
    for (double t = 0.0; t < 24.0; t += 0.5)
        EXPECT_DOUBLE_EQ(load.loadAt(t), load.forecastAt(t)) << t;
}

TEST(Diurnal, SurgedTraceCarriesMoreArrivalsInTheWindow)
{
    DiurnalConfig cfg;
    cfg.peak_qps = 3000.0;
    cfg.trough_frac = 1.0;  // flat curve isolates the surge effect
    cfg.noise_frac = 0.0;
    cfg.surge_hour = 0.02;
    cfg.surge_hours = 0.02;
    cfg.surge_factor = 2.0;
    TraceOptions opt;
    opt.horizon_hours = 0.06;
    opt.bucket_seconds = 10.0;
    opt.seed = 17;
    auto surged = TraceGenerator(DiurnalLoad(cfg), opt).generate();
    double t0 = 0.02 * 3600.0, t1 = 0.04 * 3600.0;
    size_t inside = 0, before = 0;
    for (const Query& q : surged) {
        if (q.arrival_s >= t0 && q.arrival_s < t1)
            ++inside;
        else if (q.arrival_s < t0)
            ++before;
    }
    // Equal-length windows of a flat curve: the surged one must carry
    // roughly 2x the arrivals (Poisson noise stays far below 25%).
    ASSERT_GT(before, 100u);
    EXPECT_GT(static_cast<double>(inside),
              1.5 * static_cast<double>(before));
    EXPECT_LT(static_cast<double>(inside),
              2.5 * static_cast<double>(before));
}

TEST(DiurnalDeath, NegativeSurge)
{
    DiurnalConfig cfg;
    cfg.surge_hours = -1.0;
    EXPECT_DEATH(DiurnalLoad{cfg}, "surge");
}

TEST(TraceGen, FixedSeedGivesIdenticalTrace)
{
    DiurnalConfig dc;
    dc.peak_qps = 2000.0;
    DiurnalLoad load(dc);
    TraceOptions opt;
    opt.horizon_hours = 0.05;
    opt.bucket_seconds = 10.0;
    opt.seed = 13;
    auto a = TraceGenerator(load, opt).generate();
    auto b = TraceGenerator(load, opt).generate();
    ASSERT_GT(a.size(), 100u);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_DOUBLE_EQ(a[i].arrival_s, b[i].arrival_s);
        EXPECT_EQ(a[i].size, b[i].size);
        EXPECT_DOUBLE_EQ(a[i].pooling_scale, b[i].pooling_scale);
    }
    opt.seed = 14;
    auto c = TraceGenerator(load, opt).generate();
    ASSERT_GT(c.size(), 0u);
    // Different seed, different stream (counts may coincide; the
    // continuous arrival times cannot).
    EXPECT_NE(a[0].arrival_s, c[0].arrival_s);
}

TEST(TraceGen, ArrivalsMonotoneAndWithinHorizon)
{
    DiurnalConfig dc;
    dc.peak_qps = 1500.0;
    DiurnalLoad load(dc);
    TraceOptions opt;
    opt.horizon_hours = 0.1;
    opt.seed = 17;
    TraceGenerator gen(load, opt);
    auto trace = gen.generate();
    double prev = 0.0;
    for (const Query& q : trace) {
        EXPECT_GT(q.arrival_s, prev);
        EXPECT_LT(q.arrival_s, gen.simSeconds());
        EXPECT_GE(q.size, opt.sizes.min_size);
        EXPECT_LE(q.size, opt.sizes.max_size);
        prev = q.arrival_s;
    }
}

TEST(TraceGen, ArrivalCountsTrackTheLoadCurve)
{
    // Per-window arrival counts must match loadAt within Poisson
    // tolerance across a window where the curve swings substantially.
    DiurnalConfig dc;
    dc.peak_qps = 60.0;
    dc.trough_frac = 0.3;
    dc.peak_hour = 1.0;  // swing inside the sampled 2h
    dc.noise_frac = 0.0;
    DiurnalLoad load(dc);
    TraceOptions opt;
    opt.horizon_hours = 2.0;
    opt.bucket_seconds = 60.0;
    opt.seed = 29;
    auto trace = TraceGenerator(load, opt).generate();

    const double window_s = 720.0;  // 0.2h
    std::vector<size_t> counts(10, 0);
    for (const Query& q : trace)
        ++counts[std::min<size_t>(
            static_cast<size_t>(q.arrival_s / window_s), 9)];
    for (size_t wdx = 0; wdx < counts.size(); ++wdx) {
        double mid_hours = (wdx + 0.5) * window_s / 3600.0;
        double expected = load.loadAt(mid_hours) * window_s;
        EXPECT_NEAR(static_cast<double>(counts[wdx]), expected,
                    5.0 * std::sqrt(expected) + 10.0)
            << "window " << wdx;
    }
}

TEST(TraceGen, TimeCompressionPreservesInstantaneousRate)
{
    DiurnalConfig dc;
    dc.peak_qps = 1000.0;
    dc.noise_frac = 0.0;
    DiurnalLoad load(dc);
    TraceOptions opt;
    opt.horizon_hours = 1.0;
    opt.seed = 31;
    TraceGenerator plain(load, opt);
    auto full = plain.generate();
    opt.time_compression = 4.0;
    TraceGenerator compressed(load, opt);
    auto quarter = compressed.generate();
    // A quarter of the simulated span and query count...
    EXPECT_DOUBLE_EQ(compressed.simSeconds(), plain.simSeconds() / 4.0);
    EXPECT_NEAR(static_cast<double>(quarter.size()),
                static_cast<double>(full.size()) / 4.0,
                static_cast<double>(full.size()) * 0.05);
    // ...at an unchanged arrival rate.
    double rate_full =
        static_cast<double>(full.size()) / plain.simSeconds();
    double rate_quarter =
        static_cast<double>(quarter.size()) / compressed.simSeconds();
    EXPECT_NEAR(rate_quarter, rate_full, rate_full * 0.05);
}

TEST(MultiTrace, FixedSeedGivesIdenticalMergedTrace)
{
    std::vector<ServiceTraceSpec> specs(2);
    specs[0].load.peak_qps = 1500.0;
    specs[0].load.peak_hour = 20.0;
    specs[1].load.peak_qps = 900.0;
    specs[1].load.peak_hour = 8.0;  // phase-shifted
    specs[1].load.seed = 2;
    TraceOptions opt;
    opt.horizon_hours = 0.05;
    opt.bucket_seconds = 10.0;
    opt.seed = 13;

    auto a = generateMultiServiceTrace(specs, opt);
    auto b = generateMultiServiceTrace(specs, opt);
    ASSERT_GT(a.size(), 100u);
    ASSERT_EQ(a.size(), b.size());
    size_t per_service[2] = {0, 0};
    double prev = -1.0;
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_DOUBLE_EQ(a[i].arrival_s, b[i].arrival_s);
        EXPECT_EQ(a[i].service_id, b[i].service_id);
        EXPECT_EQ(a[i].size, b[i].size);
        EXPECT_DOUBLE_EQ(a[i].pooling_scale, b[i].pooling_scale);
        EXPECT_EQ(a[i].id, i);           // globally renumbered
        EXPECT_GE(a[i].arrival_s, prev);  // merged in time order
        prev = a[i].arrival_s;
        ASSERT_GE(a[i].service_id, 0);
        ASSERT_LT(a[i].service_id, 2);
        ++per_service[a[i].service_id];
    }
    EXPECT_GT(per_service[0], 0u);
    EXPECT_GT(per_service[1], 0u);
    // The heavier curve contributes more arrivals.
    EXPECT_GT(per_service[0], per_service[1]);
}

TEST(MultiTrace, ServiceStreamsMatchSoloGenerators)
{
    // The per-service sub-streams of a merged trace are exactly what a
    // solo TraceGenerator produces with the derived seed — service 0
    // with the base seed itself. Single-service callers (and the
    // partition arm of `bench_paper multiservice`) rely on this.
    std::vector<ServiceTraceSpec> specs(2);
    specs[0].load.peak_qps = 1200.0;
    specs[1].load.peak_qps = 700.0;
    specs[1].load.peak_hour = 5.0;
    specs[1].load.seed = 3;
    specs[1].sizes.median = 30.0;  // per-service size distribution
    TraceOptions opt;
    opt.horizon_hours = 0.04;
    opt.seed = 29;

    auto merged = generateMultiServiceTrace(specs, opt);
    EXPECT_EQ(serviceTraceSeed(opt.seed, 0), opt.seed);

    for (int s = 0; s < 2; ++s) {
        TraceOptions solo_opt = opt;
        solo_opt.seed = serviceTraceSeed(opt.seed, static_cast<size_t>(s));
        solo_opt.sizes = specs[static_cast<size_t>(s)].sizes;
        DiurnalLoad load(specs[static_cast<size_t>(s)].load);
        auto solo = TraceGenerator(load, solo_opt).generate();

        std::vector<Query> sub;
        for (const Query& q : merged)
            if (q.service_id == s)
                sub.push_back(q);
        ASSERT_EQ(sub.size(), solo.size()) << "service " << s;
        for (size_t i = 0; i < sub.size(); ++i) {
            EXPECT_DOUBLE_EQ(sub[i].arrival_s, solo[i].arrival_s);
            EXPECT_EQ(sub[i].size, solo[i].size);
            EXPECT_DOUBLE_EQ(sub[i].pooling_scale,
                             solo[i].pooling_scale);
        }
    }
}

/**
 * The merge reference: concatenate the streams in service order, tag
 * each query with its service, stable-sort by arrival, renumber ids.
 */
std::vector<Query>
stableSortMerge(const std::vector<std::vector<Query>>& streams)
{
    std::vector<Query> all;
    for (size_t s = 0; s < streams.size(); ++s)
        for (Query q : streams[s]) {
            q.service_id = static_cast<int>(s);
            all.push_back(q);
        }
    std::stable_sort(all.begin(), all.end(),
                     [](const Query& a, const Query& b) {
                         return a.arrival_s < b.arrival_s;
                     });
    for (size_t i = 0; i < all.size(); ++i)
        all[i].id = i;
    return all;
}

/** Field-by-field bitwise equality of two traces. */
void
expectSameTrace(const std::vector<Query>& got,
                const std::vector<Query>& want)
{
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].id, want[i].id) << "query " << i;
        EXPECT_EQ(got[i].arrival_s, want[i].arrival_s) << "query " << i;
        EXPECT_EQ(got[i].service_id, want[i].service_id) << "query " << i;
        EXPECT_EQ(got[i].size, want[i].size) << "query " << i;
        EXPECT_EQ(got[i].pooling_scale, want[i].pooling_scale)
            << "query " << i;
    }
}

/** A hand-built stream; `size` doubles as a per-stream position tag. */
std::vector<Query>
stream(std::vector<double> arrivals, int tag)
{
    std::vector<Query> out;
    for (size_t i = 0; i < arrivals.size(); ++i) {
        Query q;
        q.id = 1000 + i;  // overwritten by the merge
        q.arrival_s = arrivals[i];
        q.size = tag * 100 + static_cast<int>(i);
        q.pooling_scale = 1.0 + 0.01 * static_cast<double>(tag);
        out.push_back(q);
    }
    return out;
}

TEST(MultiTrace, MergeMatchesStableSortOnGeneratedStreams)
{
    std::vector<ServiceTraceSpec> specs(3);
    specs[0].load.peak_qps = 1500.0;
    specs[1].load.peak_qps = 900.0;
    specs[1].load.peak_hour = 8.0;
    specs[1].load.seed = 2;
    specs[2].load.peak_qps = 400.0;
    specs[2].load.peak_hour = 14.0;
    specs[2].load.seed = 5;
    specs[2].sizes.median = 40.0;
    TraceOptions opt;
    opt.horizon_hours = 0.05;
    opt.bucket_seconds = 10.0;
    opt.seed = 17;

    std::vector<std::vector<Query>> streams;
    for (size_t s = 0; s < specs.size(); ++s) {
        TraceOptions o = opt;
        o.seed = serviceTraceSeed(opt.seed, s);
        o.sizes = specs[s].sizes;
        o.pooling = specs[s].pooling;
        DiurnalLoad load(specs[s].load);
        streams.push_back(TraceGenerator(load, o).generate());
    }
    std::vector<Query> merged = generateMultiServiceTrace(specs, opt);
    ASSERT_GT(merged.size(), 100u);
    expectSameTrace(merged, stableSortMerge(streams));
    expectSameTrace(mergeServiceStreams(streams), merged);
}

TEST(MultiTrace, MergeBreaksExactTiesByServiceIndex)
{
    // Exact cross-service ties (0.2 in all three streams, 0.5 in two,
    // repeated 0.2 within stream 0) plus an empty stream.
    std::vector<std::vector<Query>> streams = {
        stream({0.1, 0.2, 0.2, 0.5}, 0),
        stream({}, 1),
        stream({0.0, 0.2, 0.3, 0.5, 0.5}, 2),
        stream({0.2, 0.2, 0.7}, 3),
    };
    std::vector<Query> merged = mergeServiceStreams(streams);
    expectSameTrace(merged, stableSortMerge(streams));

    std::vector<int> services, tags;
    for (const Query& q : merged) {
        services.push_back(q.service_id);
        tags.push_back(q.size);
    }
    EXPECT_EQ(services,
              (std::vector<int>{2, 0, 0, 0, 2, 3, 3, 2, 0, 2, 2, 3}));
    EXPECT_EQ(tags, (std::vector<int>{200, 0, 1, 2, 201, 300, 301, 202, 3,
                                      203, 204, 302}));
}

TEST(MultiTrace, MergeOfOneStreamOnlyRenumbersAndTags)
{
    std::vector<std::vector<Query>> streams = {stream({0.5, 0.5, 1.0}, 4)};
    std::vector<Query> merged = mergeServiceStreams(streams);
    expectSameTrace(merged, stableSortMerge(streams));
    EXPECT_TRUE(mergeServiceStreams({}).empty());
    EXPECT_TRUE(mergeServiceStreams({{}, {}}).empty());
}

/** Pull every arrival before `t1` off `s`, the way ClusterSim::run does. */
std::vector<Query>
pullUntil(ArrivalStream& s, double t1)
{
    std::vector<Query> out;
    for (const Query* q = s.peek(); q && q->arrival_s < t1; q = s.peek()) {
        out.push_back(*q);
        s.pop();
    }
    return out;
}

/*
 * The resumable cursor yields generate()'s trace arrival for arrival,
 * however it is pulled: interval by interval with repeated peeks, and
 * generate() on a half-consumed cursor still returns the whole trace.
 */
TEST(TraceGenStream, CursorMatchesGenerate)
{
    DiurnalConfig dc;
    dc.peak_qps = 1200.0;
    dc.trough_frac = 0.3;
    DiurnalLoad load(dc);
    TraceOptions opt;
    opt.horizon_hours = 0.01;
    opt.bucket_seconds = 5.0;
    opt.seed = 23;
    TraceGenerator gen(load, opt);
    const std::vector<Query> whole = gen.generate();
    ASSERT_GT(whole.size(), 1000u);

    std::vector<Query> pulled;
    const double interval_s = 7.0;
    bool checked_midway = false;
    for (double t1 = interval_s; gen.peek(); t1 += interval_s) {
        ASSERT_EQ(gen.peek(), gen.peek());  // peeking consumes nothing
        for (const Query& q : pullUntil(gen, t1)) {
            EXPECT_LT(q.arrival_s, t1);
            EXPECT_GE(q.arrival_s, t1 - interval_s);
            pulled.push_back(q);
        }
        if (!checked_midway && pulled.size() > whole.size() / 2) {
            expectSameTrace(gen.generate(), whole);
            checked_midway = true;
        }
    }
    EXPECT_TRUE(checked_midway);
    expectSameTrace(pulled, whole);
    EXPECT_EQ(gen.peek(), nullptr);
}

/*
 * The streamed multi-service merge equals the drained one, pulled per
 * interval, and the vector-backed MergedArrivals equals
 * mergeServiceStreams over the same per-service vectors.
 */
TEST(TraceGenStream, StreamedMergeMatchesVectorMerge)
{
    std::vector<ServiceTraceSpec> specs(3);
    specs[0].load.peak_qps = 1500.0;
    specs[1].load.peak_qps = 900.0;
    specs[1].load.peak_hour = 8.0;
    specs[1].load.seed = 2;
    specs[2].load.peak_qps = 400.0;
    specs[2].load.peak_hour = 14.0;
    specs[2].load.seed = 5;
    TraceOptions opt;
    opt.horizon_hours = 0.05;
    opt.bucket_seconds = 10.0;
    opt.seed = 17;
    const std::vector<Query> whole = generateMultiServiceTrace(specs, opt);
    ASSERT_GT(whole.size(), 100u);

    MergedArrivals merged = multiServiceArrivals(specs, opt);
    std::vector<Query> pulled;
    for (double t1 = 3.0; merged.peek(); t1 += 3.0) {
        std::vector<Query> chunk = pullUntil(merged, t1);
        pulled.insert(pulled.end(), chunk.begin(), chunk.end());
        EXPECT_EQ(merged.emitted(), pulled.size());
    }
    expectSameTrace(pulled, whole);

    std::vector<std::vector<Query>> streams(specs.size());
    for (const Query& q : whole)
        streams[static_cast<size_t>(q.service_id)].push_back(q);
    std::vector<std::unique_ptr<ArrivalStream>> views;
    for (const std::vector<Query>& st : streams)
        views.push_back(std::make_unique<VectorArrivals>(st));
    MergedArrivals over_vectors(std::move(views));
    expectSameTrace(drain(over_vectors), mergeServiceStreams(streams));
    expectSameTrace(mergeServiceStreams(streams), whole);
}

/*
 * Exact cross-service ties, and an interval boundary that falls exactly
 * on arrivals: those arrivals belong to the next interval (arrival < t1
 * closes a window), ties still go to the lower service index, and the
 * pulled chunks concatenate to the vector merge.
 */
TEST(TraceGenStream, TiesAndBoundaryOnAnArrival)
{
    std::vector<std::vector<Query>> streams = {
        stream({0.1, 0.2, 0.2, 0.5}, 0),
        stream({}, 1),
        stream({0.0, 0.2, 0.3, 0.5, 0.5}, 2),
        stream({0.2, 0.2, 0.7}, 3),
    };
    const std::vector<Query> whole = mergeServiceStreams(streams);
    std::vector<std::unique_ptr<ArrivalStream>> views;
    for (const std::vector<Query>& st : streams)
        views.push_back(std::make_unique<VectorArrivals>(st));
    MergedArrivals merged(std::move(views));

    std::vector<Query> first = pullUntil(merged, 0.2);   // on a 4-way tie
    std::vector<Query> second = pullUntil(merged, 0.5);  // on a 3-way tie
    std::vector<Query> rest = pullUntil(merged, 1.0);
    EXPECT_EQ(merged.peek(), nullptr);
    ASSERT_EQ(first.size(), 2u);
    ASSERT_EQ(second.size(), 6u);
    ASSERT_EQ(rest.size(), 4u);
    for (const Query& q : second)
        EXPECT_TRUE(q.arrival_s >= 0.2 && q.arrival_s < 0.5);
    EXPECT_EQ(rest.front().arrival_s, 0.5);
    EXPECT_EQ(rest.front().service_id, 0);  // the tie's lowest index

    std::vector<Query> pulled = first;
    pulled.insert(pulled.end(), second.begin(), second.end());
    pulled.insert(pulled.end(), rest.begin(), rest.end());
    expectSameTrace(pulled, whole);
    expectSameTrace(pulled, stableSortMerge(streams));
}

TEST(MultiTraceDeath, NoServices)
{
    TraceOptions opt;
    EXPECT_DEATH(generateMultiServiceTrace({}, opt), "no services");
}

TEST(MultiTraceDeath, UnsortedStreamPanics)
{
    std::vector<std::vector<Query>> streams = {stream({0.1, 0.3}, 0),
                                               stream({0.4, 0.2}, 1)};
    EXPECT_DEATH(mergeServiceStreams(streams), "not sorted");
}

TEST(TraceGenDeath, BadOptions)
{
    DiurnalLoad load(DiurnalConfig{});
    TraceOptions opt;
    opt.horizon_hours = 0.0;
    EXPECT_DEATH(TraceGenerator(load, opt), "horizon");
    opt.horizon_hours = 1.0;
    opt.time_compression = 0.5;
    EXPECT_DEATH(TraceGenerator(load, opt), "compression");
}

TEST(Trace, GeneratesPerTableCounts)
{
    model::Model m = model::buildModel(model::ModelId::DlrmRmc1,
                                       model::Variant::Small);
    EmbAccessTrace trace = generateTrace(m, 200, 100, 3);
    EXPECT_EQ(trace.accesses.size(), 10u);
    EXPECT_GT(trace.total(), 0u);
}

TEST(Trace, HeadConcentration)
{
    // Zipf locality: the first 1% of ranks capture a large share.
    model::Model m = model::buildModel(model::ModelId::DlrmRmc1,
                                       model::Variant::Small);
    EmbAccessTrace trace = generateTrace(m, 500, 150, 7);
    const auto& t0 = trace.accesses[0];
    uint64_t head = 0, total = 0;
    for (size_t r = 0; r < t0.size(); ++r) {
        total += t0[r];
        if (r < t0.size() / 100)
            head += t0[r];
    }
    ASSERT_GT(total, 0u);
    EXPECT_GT(static_cast<double>(head) / total, 0.10);
}

TEST(Trace, EmpiricalHitRateMatchesAnalytic)
{
    model::Model m = model::buildModel(model::ModelId::DlrmRmc1,
                                       model::Variant::Small);
    EmbAccessTrace trace = generateTrace(m, 500, 150, 11);
    model::HotSplit hs =
        model::computeHotSplit(m, m.embeddingBytes() / 8);
    double empirical = empiricalHitRate(trace, hs.hot_rows_per_table);
    EXPECT_NEAR(empirical, hs.hit_rate, 0.15);
}

TEST(Trace, FullPlacementHitsEverything)
{
    model::Model m = model::buildModel(model::ModelId::Din,
                                       model::Variant::Small);
    EmbAccessTrace trace = generateTrace(m, 100, 50, 13);
    std::vector<int64_t> all_rows;
    for (const auto& n : m.graph.nodes())
        if (n.kind() == model::OpKind::EmbeddingLookup)
            all_rows.push_back(
                std::get<model::EmbeddingParams>(n.params).rows);
    EXPECT_DOUBLE_EQ(empiricalHitRate(trace, all_rows), 1.0);
}

}  // namespace
}  // namespace hercules::workload
