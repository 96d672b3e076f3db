/**
 * @file
 * Tests of the evaluation engine: memoization correctness (cached
 * replays are bit-identical and free), thread-count independence
 * (1-thread vs N-thread searches and efficiency tables agree exactly),
 * cache-key discrimination, memo persistence, and the per-search
 * timing store (warmed evaluations measure exactly what cold ones do).
 */
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "core/eval_engine.h"
#include "core/fingerprint.h"
#include "core/profiler.h"
#include "sched/gradient_search.h"

namespace hercules::core {
namespace {

using hw::ServerType;
using model::ModelId;
using sched::Mapping;
using sched::SchedulingConfig;
using sched::SearchOptions;
using sched::SearchResult;

SearchOptions
fastSearch(int threads)
{
    SearchOptions opt;
    opt.measure.sim.num_queries = 250;
    opt.measure.sim.warmup_queries = 50;
    opt.measure.bisect_iters = 4;
    opt.space.batches = {32, 128, 512};
    opt.space.fusion_limits = {0, 1000, 4000};
    opt.space.max_gpu_threads = 4;
    opt.space.max_cores_per_thread = 2;
    opt.space.host_helper_threads = {2};
    opt.eval.threads = threads;
    return opt;
}

EvalRequest
request(const hw::ServerSpec& server, const model::Model& m,
        const SchedulingConfig& cfg, double sla_ms,
        const sim::MeasureOptions& mo)
{
    EvalRequest r;
    r.server = &server;
    r.model = &m;
    r.cfg = cfg;
    r.sla_ms = sla_ms;
    r.measure = mo;
    return r;
}

/** Exact (bitwise) equality of two search outcomes. */
void
expectIdentical(const SearchResult& a, const SearchResult& b)
{
    ASSERT_EQ(a.best.has_value(), b.best.has_value());
    if (a.best) {
        EXPECT_EQ(a.best->key(), b.best->key());
    }
    EXPECT_EQ(a.best_qps, b.best_qps);  // bit-identical, no tolerance
    EXPECT_EQ(a.best_point.result.tail_ms, b.best_point.result.tail_ms);
    EXPECT_EQ(a.best_point.result.peak_power_w,
              b.best_point.result.peak_power_w);
    ASSERT_EQ(a.trace.size(), b.trace.size());
    for (size_t i = 0; i < a.trace.size(); ++i) {
        EXPECT_EQ(a.trace[i].cfg.key(), b.trace[i].cfg.key()) << i;
        EXPECT_EQ(a.trace[i].qps, b.trace[i].qps) << i;
        EXPECT_EQ(a.trace[i].accepted, b.trace[i].accepted) << i;
    }
}

TEST(EvalEngine, MemoizedReplayIsFreeAndIdentical)
{
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    const hw::ServerSpec& server = hw::serverSpec(ServerType::T2);
    SearchOptions opt = fastSearch(2);
    EvalEngine engine(opt.eval);
    opt.engine = &engine;

    SearchResult first = herculesTaskSearch(server, m, 20.0, opt);
    EvalEngine::Stats after_first = engine.stats();
    SearchResult second = herculesTaskSearch(server, m, 20.0, opt);

    expectIdentical(first, second);
    ASSERT_TRUE(first.best.has_value());
    EXPECT_GT(first.evals, 0);
    // The replay pays for nothing: every step is a memo hit and the
    // engine runs zero additional simulations.
    EXPECT_EQ(second.evals, 0);
    EXPECT_EQ(second.cache_hits,
              static_cast<int>(second.trace.size()));
    EXPECT_EQ(engine.stats().misses, after_first.misses);
    EXPECT_EQ(engine.stats().simulations, after_first.simulations);
}

TEST(EvalEngine, SerialAndPooledSearchesAreBitIdentical)
{
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    const hw::ServerSpec& server = hw::serverSpec(ServerType::T2);

    SearchResult serial =
        herculesTaskSearch(server, m, 20.0, fastSearch(1));
    SearchResult pooled =
        herculesTaskSearch(server, m, 20.0, fastSearch(4));

    expectIdentical(serial, pooled);
    ASSERT_TRUE(serial.best.has_value());
    EXPECT_EQ(serial.evals, pooled.evals);
    EXPECT_EQ(serial.cache_hits, pooled.cache_hits);
}

TEST(EvalEngine, SerialAndPooledAgreeOnAccelerator)
{
    // The accelerator search exercises the helper fan-out and the
    // nested S-D pipeline arms.
    model::Model m =
        model::buildModel(ModelId::DlrmRmc3, model::Variant::Small);
    const hw::ServerSpec& server = hw::serverSpec(ServerType::T7);

    SearchResult serial =
        herculesTaskSearch(server, m, 50.0, fastSearch(1));
    SearchResult pooled =
        herculesTaskSearch(server, m, 50.0, fastSearch(4));
    expectIdentical(serial, pooled);
    ASSERT_TRUE(serial.best.has_value());
}

TEST(EvalEngine, SerialAndPooledEfficiencyTablesAreIdentical)
{
    ProfilerOptions popt;
    popt.search = fastSearch(1);
    popt.servers = {ServerType::T1, ServerType::T2, ServerType::T3};
    popt.models = {ModelId::DlrmRmc1, ModelId::MtWnd};

    EfficiencyTable serial = offlineProfile(popt);
    popt.search = fastSearch(4);
    EfficiencyTable pooled = offlineProfile(popt);

    ASSERT_EQ(serial.size(), 6u);
    EXPECT_TRUE(serial == pooled);
}

TEST(EvalEngine, ExhaustiveOracleMatchesAcrossThreadCounts)
{
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    const hw::ServerSpec& server = hw::serverSpec(ServerType::T2);
    SearchResult serial = exhaustiveSearch(
        server, m, Mapping::CpuModelBased, 20.0, fastSearch(1));
    SearchResult pooled = exhaustiveSearch(
        server, m, Mapping::CpuModelBased, 20.0, fastSearch(4));
    expectIdentical(serial, pooled);
    EXPECT_GT(serial.evals, 0);
}

TEST(EvalEngine, CacheKeyDiscriminates)
{
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    const hw::ServerSpec& t2 = hw::serverSpec(ServerType::T2);
    const hw::ServerSpec& t3 = hw::serverSpec(ServerType::T3);
    sim::MeasureOptions mo;
    SchedulingConfig cfg;
    cfg.cpu_threads = 10;
    cfg.cores_per_thread = 2;
    cfg.batch = 128;

    const auto key = &EvalEngine::cacheKey;
    std::string base = key(request(t2, m, cfg, 20.0, mo));
    // Identical request -> identical key.
    EXPECT_EQ(base, key(request(t2, m, cfg, 20.0, mo)));
    // Any result-affecting input must change the key.
    EXPECT_NE(base, key(request(t3, m, cfg, 20.0, mo)));
    EXPECT_NE(base, key(request(t2, m, cfg, 50.0, mo)));
    SchedulingConfig batch_cfg = cfg;
    batch_cfg.batch = 256;
    EXPECT_NE(base, key(request(t2, m, batch_cfg, 20.0, mo)));
    SchedulingConfig fuse_cfg = cfg;
    fuse_cfg.fuse_elementwise = false;
    EXPECT_NE(base, key(request(t2, m, fuse_cfg, 20.0, mo)));
    sim::MeasureOptions seed_mo = mo;
    seed_mo.sim.seed = 43;
    EXPECT_NE(base, key(request(t2, m, cfg, 20.0, seed_mo)));
    sim::MeasureOptions power_mo = mo;
    power_mo.power_budget_w = 150.0;
    EXPECT_NE(base, key(request(t2, m, cfg, 20.0, power_mo)));
    model::Model small =
        model::buildModel(ModelId::DlrmRmc1, model::Variant::Small);
    EXPECT_NE(base, key(request(t2, small, cfg, 20.0, mo)));

    // Near-collision sanity: configs whose display strings could read
    // alike must still key apart (t=11,o=1 vs t=1,o=11 etc.).
    SchedulingConfig a, b;
    a.cpu_threads = 11;
    a.cores_per_thread = 1;
    b.cpu_threads = 1;
    b.cores_per_thread = 11;
    EXPECT_NE(key(request(t2, m, a, 20.0, mo)),
              key(request(t2, m, b, 20.0, mo)));
}

TEST(EvalEngine, InvalidConfigsAreNeverSimulated)
{
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    const hw::ServerSpec& t2 = hw::serverSpec(ServerType::T2);
    SchedulingConfig cfg;
    cfg.cpu_threads = 10000;  // far beyond the socket
    EvalEngine engine(EvalOptions{});
    EvalResult r =
        engine.evaluate(request(t2, m, cfg, 20.0, sim::MeasureOptions{}));
    EXPECT_FALSE(r.valid);
    EXPECT_FALSE(r.point.has_value());
    EXPECT_EQ(engine.stats().invalid, 1u);
    EXPECT_EQ(engine.stats().simulations, 0u);
}

/*
 * Cross-process memo persistence: a saved cache file warm-starts a
 * fresh engine — the replayed request is a pure memo hit (no new
 * simulations) and every measurement round-trips bit-exactly.
 */
TEST(EvalEngine, CacheRoundTripsThroughDisk)
{
    const char* path = "test_eval_engine_cache.tmp";
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    const hw::ServerSpec& t2 = hw::serverSpec(ServerType::T2);
    SchedulingConfig cfg;
    cfg.mapping = Mapping::CpuModelBased;
    cfg.cpu_threads = 4;
    cfg.cores_per_thread = 2;
    cfg.batch = 128;
    sim::MeasureOptions mo;
    mo.sim.num_queries = 250;
    mo.sim.warmup_queries = 50;
    mo.bisect_iters = 4;
    EvalRequest req = request(t2, m, cfg, 20.0, mo);

    // Also persist an invalid-config verdict: the cache must round-
    // trip pointless entries too, not only operating points.
    SchedulingConfig bad = cfg;
    bad.cpu_threads = 10000;

    EvalEngine first(EvalOptions{});
    EvalResult computed = first.evaluate(req);
    ASSERT_TRUE(computed.valid);
    ASSERT_TRUE(computed.point.has_value());
    EvalResult invalid = first.evaluate(
        request(t2, m, bad, 20.0, mo));
    ASSERT_FALSE(invalid.valid);
    EXPECT_EQ(first.saveCache(path), 2u);

    EvalEngine second(EvalOptions{});
    EXPECT_EQ(second.loadCache(path), 2u);
    EvalResult replayed = second.evaluate(req);
    EXPECT_TRUE(replayed.cache_hit);
    EXPECT_EQ(second.stats().misses, 0u);
    EXPECT_EQ(second.stats().simulations, 0u);
    ASSERT_TRUE(replayed.valid);
    ASSERT_TRUE(replayed.point.has_value());
    // Bit-exact round-trip of the operating point.
    EXPECT_EQ(replayed.point->qps, computed.point->qps);
    EXPECT_EQ(replayed.point->capacity, computed.point->capacity);
    EXPECT_EQ(replayed.point->bracket_lo, computed.point->bracket_lo);
    EXPECT_EQ(replayed.point->bracket_hi, computed.point->bracket_hi);
    EXPECT_EQ(replayed.point->sims, computed.point->sims);
    const sim::ServerSimResult& a = replayed.point->result;
    const sim::ServerSimResult& b = computed.point->result;
    EXPECT_EQ(a.p50_ms, b.p50_ms);
    EXPECT_EQ(a.p99_ms, b.p99_ms);
    EXPECT_EQ(a.tail_ms, b.tail_ms);
    EXPECT_EQ(a.achieved_qps, b.achieved_qps);
    EXPECT_EQ(a.avg_power_w, b.avg_power_w);
    EXPECT_EQ(a.peak_power_w, b.peak_power_w);
    EXPECT_EQ(a.qps_per_watt, b.qps_per_watt);
    EXPECT_EQ(a.cpu_util, b.cpu_util);
    EXPECT_EQ(a.mem_bw_util, b.mem_bw_util);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.duration_s, b.duration_s);
    EvalResult bad_replayed =
        second.evaluate(request(t2, m, bad, 20.0, mo));
    EXPECT_TRUE(bad_replayed.cache_hit);
    EXPECT_FALSE(bad_replayed.valid);
    std::remove(path);
}

/*
 * Regression: saveCache must not leak unordered_map bucket order into
 * the memo file. Two engines loading the same entries in opposite
 * orders save byte-identical, key-sorted files — memo spills are
 * diffable artifacts and CI-cache keys, so their bytes are part of the
 * determinism contract.
 */
TEST(EvalEngine, SaveCacheIsKeySortedAndInsertionOrderFree)
{
    const char* fwd = "test_eval_cache_fwd.tmp";
    const char* rev = "test_eval_cache_rev.tmp";
    const char* out_a = "test_eval_cache_out_a.tmp";
    const char* out_b = "test_eval_cache_out_b.tmp";
    std::vector<std::string> keys = {"zeta", "alpha", "mid", "beta"};
    const std::string header =
        "HERCULES_EVAL_CACHE v2 fp=" + buildFingerprintHex() + "\n";

    auto write_seed = [&](const char* path, bool reversed) {
        FILE* f = std::fopen(path, "w");
        ASSERT_NE(f, nullptr);
        std::fputs(header.c_str(), f);
        for (size_t i = 0; i < keys.size(); ++i) {
            const std::string& k =
                reversed ? keys[keys.size() - 1 - i] : keys[i];
            std::fprintf(f, "%s\t0 0\n", k.c_str());
        }
        std::fclose(f);
    };
    auto read_file = [](const char* path) {
        FILE* f = std::fopen(path, "r");
        EXPECT_NE(f, nullptr);
        std::string s;
        int c;
        while ((c = std::fgetc(f)) != EOF)
            s.push_back(static_cast<char>(c));
        std::fclose(f);
        return s;
    };

    write_seed(fwd, false);
    write_seed(rev, true);
    EvalEngine a(EvalOptions{});
    EvalEngine b(EvalOptions{});
    ASSERT_EQ(a.loadCache(fwd), keys.size());
    ASSERT_EQ(b.loadCache(rev), keys.size());
    EXPECT_EQ(a.saveCache(out_a), keys.size());
    EXPECT_EQ(b.saveCache(out_b), keys.size());

    std::string text_a = read_file(out_a);
    EXPECT_EQ(text_a, read_file(out_b));
    EXPECT_EQ(text_a,
              header +
              "alpha\t0 0\n"
              "beta\t0 0\n"
              "mid\t0 0\n"
              "zeta\t0 0\n");

    std::remove(fwd);
    std::remove(rev);
    std::remove(out_a);
    std::remove(out_b);
}

TEST(EvalEngine, LoadCacheRejectsMissingOrForeignFiles)
{
    EvalEngine engine(EvalOptions{});
    EXPECT_EQ(engine.loadCache("no_such_eval_cache.tmp"), 0u);

    const char* path = "test_eval_engine_bogus.tmp";
    FILE* f = std::fopen(path, "w");
    ASSERT_NE(f, nullptr);
    std::fprintf(f, "SOME OTHER FORMAT\nkey\t1 0\n");
    std::fclose(f);
    EXPECT_EQ(engine.loadCache(path), 0u);

    // A well-formed file of the previous format: its keys carry fields
    // the current key no longer has, so its entries would never hit.
    f = std::fopen(path, "w");
    ASSERT_NE(f, nullptr);
    std::fprintf(f,
                 "HERCULES_EVAL_CACHE v1\n"
                 "sv=T2;sla=20;hf=1.05;atf=0;tol=0;\t1 1"
                 " 100 200 0 210 7"
                 " 100 99 1 1 2 3 4 5"
                 " 0.5 0.1 0 0 0"
                 " 150 160 0.66"
                 " 0.1 0 0 0.9"
                 " 200 2 0\n"
                 "invalid\t0 0\n");
    std::fclose(f);
    EXPECT_EQ(engine.loadCache(path), 0u);

    // The current format from a build without a fingerprint, or with
    // another one: its results may be stale.
    for (const char* header :
         {"HERCULES_EVAL_CACHE v2", "HERCULES_EVAL_CACHE v2 fp=0"}) {
        f = std::fopen(path, "w");
        ASSERT_NE(f, nullptr);
        std::fprintf(f, "%s\ninvalid\t0 0\n", header);
        std::fclose(f);
        EXPECT_EQ(engine.loadCache(path), 0u) << header;
    }
    std::remove(path);
}

// ---- TimingStore ---------------------------------------------------------

/** Every field of two measurements, exactly. */
void
expectSamePoint(const std::optional<sim::OperatingPoint>& a,
                const std::optional<sim::OperatingPoint>& b)
{
    ASSERT_EQ(a.has_value(), b.has_value());
    if (!a || !b)
        return;
    EXPECT_EQ(a->qps, b->qps);
    EXPECT_EQ(a->capacity, b->capacity);
    EXPECT_EQ(a->bracket_lo, b->bracket_lo);
    EXPECT_EQ(a->bracket_hi, b->bracket_hi);
    EXPECT_EQ(a->sims, b->sims);
    const sim::ServerSimResult& x = a->result;
    const sim::ServerSimResult& y = b->result;
    EXPECT_EQ(x.offered_qps, y.offered_qps);
    EXPECT_EQ(x.achieved_qps, y.achieved_qps);
    EXPECT_EQ(x.mean_ms, y.mean_ms);
    EXPECT_EQ(x.p50_ms, y.p50_ms);
    EXPECT_EQ(x.p95_ms, y.p95_ms);
    EXPECT_EQ(x.p99_ms, y.p99_ms);
    EXPECT_EQ(x.tail_ms, y.tail_ms);
    EXPECT_EQ(x.max_ms, y.max_ms);
    EXPECT_EQ(x.cpu_util, y.cpu_util);
    EXPECT_EQ(x.mem_bw_util, y.mem_bw_util);
    EXPECT_EQ(x.gpu_util, y.gpu_util);
    EXPECT_EQ(x.pcie_util, y.pcie_util);
    EXPECT_EQ(x.nmp_util, y.nmp_util);
    EXPECT_EQ(x.avg_power_w, y.avg_power_w);
    EXPECT_EQ(x.peak_power_w, y.peak_power_w);
    EXPECT_EQ(x.qps_per_watt, y.qps_per_watt);
    EXPECT_EQ(x.mean_queue_ms, y.mean_queue_ms);
    EXPECT_EQ(x.mean_host_ms, y.mean_host_ms);
    EXPECT_EQ(x.mean_load_ms, y.mean_load_ms);
    EXPECT_EQ(x.mean_exec_ms, y.mean_exec_ms);
    EXPECT_EQ(x.completed, y.completed);
    EXPECT_EQ(x.duration_s, y.duration_s);
    EXPECT_EQ(x.events_executed, y.events_executed);
    EXPECT_EQ(x.peak_event_queue_depth, y.peak_event_queue_depth);
}

sim::MeasureOptions
storeMeasure()
{
    sim::MeasureOptions mo;
    mo.sim.num_queries = 250;
    mo.sim.warmup_queries = 50;
    mo.bisect_iters = 4;
    return mo;
}

constexpr double kStoreSla = 20.0;

SchedulingConfig
cpuCfg(int threads, int cores, int batch)
{
    SchedulingConfig c;
    c.mapping = Mapping::CpuModelBased;
    c.cpu_threads = threads;
    c.cores_per_thread = cores;
    c.batch = batch;
    return c;
}

SchedulingConfig
sdCfg(int threads, int cores, int dense, int batch)
{
    SchedulingConfig c = cpuCfg(threads, cores, batch);
    c.mapping = Mapping::CpuSdPipeline;
    c.dense_threads = dense;
    return c;
}

SchedulingConfig
gpuCfg(Mapping mapping, int gpu_threads, int fusion, int cpu_threads,
       int cores = 1, int batch = 64)
{
    SchedulingConfig c = cpuCfg(cpu_threads, cores, batch);
    c.mapping = mapping;
    c.gpu_threads = gpu_threads;
    c.fusion_limit = fusion;
    return c;
}

/** `c` without elementwise fusion (configs fuse by default). */
SchedulingConfig
unfused(SchedulingConfig c)
{
    c.fuse_elementwise = false;
    return c;
}

/** A cell's search evaluations against one engine and one store. */
struct StoreCell
{
    const hw::ServerSpec& server = hw::serverSpec(ServerType::T8);
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    sim::TimingStore store{server, m};
    EvalEngine engine{EvalOptions{4}};

    EvalRequest
    req(const SchedulingConfig& cfg)
    {
        EvalRequest r =
            request(server, m, cfg, kStoreSla, storeMeasure());
        r.timings = &store;
        return r;
    }

    /** The measurement on a workload prepared fresh, with no store. */
    std::optional<sim::OperatingPoint>
    fresh(const SchedulingConfig& cfg) const
    {
        return sim::measureLatencyBoundedQps(sim::prepare(server, m, cfg),
                                             kStoreSla, storeMeasure());
    }

    /** Evaluate through the store; it must match a fresh measurement. */
    void
    expectFresh(const SchedulingConfig& cfg)
    {
        SCOPED_TRACE(cfg.key());
        EvalResult r = engine.evaluate(req(cfg));
        ASSERT_TRUE(r.valid);
        ASSERT_FALSE(r.cache_hit);
        expectSamePoint(r.point, fresh(cfg));
    }

    /** Entries the store warms into CPU pools 0-3 of a new `cfg`. */
    std::array<size_t, 4>
    warmed(const SchedulingConfig& cfg) const
    {
        sim::PreparedWorkload w = sim::prepare(server, m, cfg);
        store.warm(w);
        std::array<size_t, 4> n{};
        for (int p = 0; p < 4; ++p)
            n[static_cast<size_t>(p)] =
                w.cpu_service_memo[p].entries.size();
        return n;
    }
};

/*
 * A search-like sequence over all four mappings, varying every
 * parallelism knob, pushed through one engine and one store in
 * concurrent batches: each warmed evaluation measures exactly what a
 * fresh prepare + measure does.
 */
TEST(TimingStore, WarmedEvaluationsMatchFreshMeasurements)
{
    StoreCell c;
    const std::vector<std::vector<SchedulingConfig>> waves = {
        {cpuCfg(4, 1, 32), cpuCfg(4, 1, 128), cpuCfg(4, 2, 128),
         cpuCfg(8, 1, 128), unfused(cpuCfg(4, 1, 128))},
        {sdCfg(4, 1, 2, 64), sdCfg(4, 1, 2, 128), sdCfg(4, 2, 2, 128),
         sdCfg(6, 1, 3, 128), unfused(sdCfg(4, 1, 2, 64))},
        {gpuCfg(Mapping::GpuModelBased, 6, 2000, 2),
         gpuCfg(Mapping::GpuModelBased, 6, 1000, 2),
         gpuCfg(Mapping::GpuModelBased, 5, 2000, 2),
         gpuCfg(Mapping::GpuModelBased, 6, 2000, 4, 2),
         unfused(gpuCfg(Mapping::GpuModelBased, 6, 2000, 2))},
        {gpuCfg(Mapping::GpuSdPipeline, 2, 2000, 4),
         gpuCfg(Mapping::GpuSdPipeline, 2, 1000, 4),
         gpuCfg(Mapping::GpuSdPipeline, 1, 2000, 4),
         gpuCfg(Mapping::GpuSdPipeline, 2, 2000, 4, 2, 128),
         unfused(gpuCfg(Mapping::GpuSdPipeline, 2, 2000, 4))},
        // Revisits of every mapping, now on a warm store.
        {cpuCfg(4, 1, 64), sdCfg(4, 1, 2, 32),
         gpuCfg(Mapping::GpuModelBased, 6, 500, 2),
         gpuCfg(Mapping::GpuSdPipeline, 2, 500, 4)},
    };
    int feasible = 0;
    for (const std::vector<SchedulingConfig>& wave : waves) {
        std::vector<EvalRequest> reqs;
        for (const SchedulingConfig& cfg : wave)
            reqs.push_back(c.req(cfg));
        std::vector<EvalResult> got = c.engine.evaluateMany(reqs);
        for (size_t i = 0; i < wave.size(); ++i) {
            SCOPED_TRACE(wave[i].key());
            ASSERT_TRUE(got[i].valid);
            ASSERT_FALSE(got[i].cache_hit);
            expectSamePoint(got[i].point, c.fresh(wave[i]));
            feasible += got[i].point.has_value();
        }
    }
    EXPECT_EQ(feasible, 24);  // every probe path ran
    // The revisits found their pools warm.
    EXPECT_GT(c.warmed(cpuCfg(4, 1, 64))[0], 0u);
    EXPECT_GT(c.warmed(sdCfg(4, 1, 2, 32))[2], 0u);
    EXPECT_GT(c.warmed(gpuCfg(Mapping::GpuModelBased, 6, 500, 2))[3], 0u);
}

/*
 * For each input of a memo key, warm the store with one configuration,
 * then evaluate one that differs only there: the store warms nothing
 * into the pool whose key moved, and the measurement is a fresh one's.
 * A neighbour that differs only in batch size or fusion limit shares
 * the key and does get warm entries.
 */
TEST(TimingStore, DifferingKeyInputsWarmNothing)
{
    StoreCell c;
    c.expectFresh(cpuCfg(4, 1, 128));
    EXPECT_GT(c.warmed(cpuCfg(4, 1, 32))[0], 0u);
    {
        SCOPED_TRACE("op workers");
        EXPECT_EQ(c.warmed(cpuCfg(4, 2, 128))[0], 0u);
        c.expectFresh(cpuCfg(4, 2, 128));
    }
    {
        SCOPED_TRACE("memory bandwidth and NMP share via cpu_threads");
        EXPECT_EQ(c.warmed(cpuCfg(8, 1, 128))[0], 0u);
        c.expectFresh(cpuCfg(8, 1, 128));
    }
    {
        SCOPED_TRACE("fuse flag");
        EXPECT_EQ(c.warmed(unfused(cpuCfg(4, 1, 128)))[0], 0u);
        c.expectFresh(unfused(cpuCfg(4, 1, 128)));
    }

    // The cold hot-split pool runs the SparseNet graph on the context a
    // GPU S-D pipeline's SparseNet threads use, but at the cold
    // fraction's pooling scale.
    const SchedulingConfig gsd = gpuCfg(Mapping::GpuSdPipeline, 6, 2000, 2);
    const SchedulingConfig gmb = gpuCfg(Mapping::GpuModelBased, 6, 2000, 2);
    c.expectFresh(gsd);
    ASSERT_GT(c.warmed(gsd)[1], 0u);
    {
        SCOPED_TRACE("cold hot-split pool");
        ASSERT_LT(sim::prepare(c.server, c.m, gmb).gpu_cx.hot_hit_rate, 1.0);
        EXPECT_EQ(c.warmed(gmb)[3], 0u);
        c.expectFresh(gmb);
        EXPECT_GT(c.warmed(gpuCfg(Mapping::GpuModelBased, 6, 1000, 2))[3],
                  0u);
        // Fewer co-located threads: a larger hot split, another cold
        // pooling scale.
        const SchedulingConfig five =
            gpuCfg(Mapping::GpuModelBased, 5, 2000, 2);
        ASSERT_NE(sim::prepare(c.server, c.m, five).cold_cx.pooling_scale,
                  sim::prepare(c.server, c.m, gmb).cold_cx.pooling_scale);
        EXPECT_EQ(c.warmed(five)[3], 0u);
        c.expectFresh(five);
    }
    {
        // The store keeps host timings only: the accelerator's kernel
        // rows are timed by each workload, so its co-location may
        // differ while the SparseNet pool is warm.
        SCOPED_TRACE("co-located accelerator threads");
        const SchedulingConfig two =
            gpuCfg(Mapping::GpuSdPipeline, 2, 2000, 2);
        EXPECT_GT(c.warmed(two)[1], 0u);  // same host context
        c.expectFresh(two);
    }
}

TEST(TimingStoreDeath, OtherServerOrModelPanics)
{
    const hw::ServerSpec& t2 = hw::serverSpec(ServerType::T2);
    model::Model rmc1 = model::buildModel(ModelId::DlrmRmc1);
    model::Model rmc2 = model::buildModel(ModelId::DlrmRmc2);
    sim::TimingStore store(t2, rmc1);
    sim::PreparedWorkload other_model =
        sim::prepare(t2, rmc2, cpuCfg(4, 1, 128));
    EXPECT_DEATH(store.warm(other_model), "TimingStore::warm: workload of");
    sim::PreparedWorkload other_server = sim::prepare(
        hw::serverSpec(ServerType::T3), rmc1, cpuCfg(4, 1, 128));
    EXPECT_DEATH(store.warm(other_server), "store bound to");
    EXPECT_DEATH(store.absorb(other_server), "TimingStore::absorb");
}

}  // namespace
}  // namespace hercules::core
