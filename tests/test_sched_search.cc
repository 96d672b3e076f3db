/**
 * @file
 * Tests of the gradient-based search (Algorithm 1) and the baseline
 * schedulers: near-optimality against the exhaustive oracle, constraint
 * compliance, trace sanity, the paper's dominance relations
 * (Hercules >= Baymax >= DeepRecSys on accelerators) and a bit pin of
 * every search entry point's output.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <string>

#include "core/eval_engine.h"
#include "sched/baselines.h"
#include "sched/gradient_search.h"

namespace hercules::sched {
namespace {

using hw::ServerType;
using model::ModelId;
using model::Variant;

SearchOptions
fastSearch()
{
    SearchOptions opt;
    opt.measure.sim.num_queries = 300;
    opt.measure.sim.warmup_queries = 60;
    opt.measure.bisect_iters = 5;
    opt.space.batches = {32, 128, 512};
    opt.space.fusion_limits = {0, 1000, 4000};
    opt.space.max_gpu_threads = 4;
    opt.space.host_helper_threads = {2};
    return opt;
}

TEST(GradientSearch, FindsFeasibleConfigOnCpu)
{
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    SearchResult r = gradientSearchMapping(
        hw::serverSpec(ServerType::T2), m, Mapping::CpuModelBased, 20.0,
        fastSearch());
    ASSERT_TRUE(r.best.has_value());
    EXPECT_GT(r.best_qps, 0.0);
    EXPECT_LE(r.best_point.result.tail_ms, 20.0);
    EXPECT_GT(r.evals, 3);
}

TEST(GradientSearch, NearOptimalVsExhaustive)
{
    // The headline property of Algorithm 1: the cheap climb lands
    // within a few percent of the exhaustive optimum of the same space.
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    const hw::ServerSpec& server = hw::serverSpec(ServerType::T2);
    SearchOptions opt = fastSearch();
    opt.space.max_cores_per_thread = 2;

    SearchResult grad = gradientSearchMapping(
        server, m, Mapping::CpuModelBased, 20.0, opt);
    SearchResult oracle =
        exhaustiveSearch(server, m, Mapping::CpuModelBased, 20.0, opt);
    ASSERT_TRUE(grad.best && oracle.best);
    EXPECT_GE(grad.best_qps, 0.85 * oracle.best_qps);
    // And it must do so with far fewer measurements.
    EXPECT_LT(grad.evals, oracle.evals);
}

TEST(GradientSearch, TraceMarksAcceptedPath)
{
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    SearchResult r = gradientSearchMapping(
        hw::serverSpec(ServerType::T2), m, Mapping::CpuModelBased, 20.0,
        fastSearch());
    int accepted = 0;
    for (const auto& step : r.trace)
        accepted += step.accepted ? 1 : 0;
    EXPECT_GE(accepted, 1);
    // evals counts engine cache misses (distinct simulator
    // measurements); steps replayed from the memo land in cache_hits.
    EXPECT_EQ(r.trace.size(),
              static_cast<size_t>(r.evals + r.cache_hits));
}

TEST(GradientSearch, RespectsPowerBudget)
{
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    const hw::ServerSpec& server = hw::serverSpec(ServerType::T2);
    const double budget_w = 110.0;
    SearchResult free = gradientSearchMapping(
        server, m, Mapping::CpuModelBased, 20.0, fastSearch());
    ASSERT_TRUE(free.best.has_value());
    // The budget binds: the unconstrained winner draws more (~128 W).
    ASSERT_GT(free.best_point.result.peak_power_w, budget_w);

    SearchOptions opt = fastSearch();
    opt.measure.power_budget_w = budget_w;
    SearchResult r = gradientSearchMapping(
        server, m, Mapping::CpuModelBased, 20.0, opt);
    ASSERT_TRUE(r.best.has_value());
    EXPECT_LE(r.best_point.result.peak_power_w, budget_w + 1e-9);
    EXPECT_NE(r.best->key(), free.best->key());
    EXPECT_LT(r.best_qps, free.best_qps);
}

TEST(GradientSearch, InfeasibleSlaGivesNoBest)
{
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    SearchResult r = gradientSearchMapping(
        hw::serverSpec(ServerType::T2), m, Mapping::CpuModelBased, 0.01,
        fastSearch());
    EXPECT_FALSE(r.best.has_value());
}

TEST(HerculesSearch, CombinesMappings)
{
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    SearchResult r = herculesTaskSearch(hw::serverSpec(ServerType::T2),
                                        m, 20.0, fastSearch());
    ASSERT_TRUE(r.best.has_value());
    // RMC1 is sparse-heavy: the S-D pipeline should win on the CPU.
    EXPECT_EQ(r.best->mapping, Mapping::CpuSdPipeline);
}

TEST(HerculesSearch, BeatsOrMatchesBaselineEverywhere)
{
    // Fig 14 dominance: Hercules explores a superset of the baseline
    // space, so its best config can never be worse.
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    SearchOptions opt = fastSearch();
    for (ServerType st : {ServerType::T2, ServerType::T3}) {
        SearchResult base =
            baselineSearch(hw::serverSpec(st), m, 20.0, opt);
        SearchResult herc =
            herculesTaskSearch(hw::serverSpec(st), m, 20.0, opt);
        ASSERT_TRUE(base.best && herc.best) << hw::serverTypeName(st);
        EXPECT_GE(herc.best_qps, 0.97 * base.best_qps)
            << hw::serverTypeName(st);
    }
}

TEST(Baselines, DeepRecSysUsesAllCoresOneEach)
{
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    SearchResult r = deepRecSysSearch(hw::serverSpec(ServerType::T2), m,
                                      20.0, fastSearch());
    ASSERT_TRUE(r.best.has_value());
    EXPECT_EQ(r.best->cpu_threads, 20);
    EXPECT_EQ(r.best->cores_per_thread, 1);
    EXPECT_EQ(r.best->mapping, Mapping::CpuModelBased);
}

TEST(Baselines, BaymaxNeverFuses)
{
    model::Model m = model::buildModel(ModelId::DlrmRmc3, Variant::Small);
    SearchResult r = baymaxSearch(hw::serverSpec(ServerType::T7), m,
                                  50.0, fastSearch());
    ASSERT_TRUE(r.best.has_value());
    EXPECT_EQ(r.best->fusion_limit, 0);
    for (const auto& step : r.trace)
        EXPECT_EQ(step.cfg.fusion_limit, 0);
}

TEST(Baselines, Fig6OrderingOnAccelerator)
{
    // DeepRecSys (1 thread, no fusion) <= Baymax (co-location) <=
    // Hercules (co-location + fusion), the Fig 6 ladder.
    model::Model m = model::buildModel(ModelId::DlrmRmc3, Variant::Small);
    const hw::ServerSpec& server = hw::serverSpec(ServerType::T7);
    SearchOptions opt = fastSearch();
    SearchResult drs = deepRecSysGpuSearch(server, m, 50.0, opt);
    SearchResult bay = baymaxSearch(server, m, 50.0, opt);
    SearchResult herc = gradientSearchMapping(
        server, m, Mapping::GpuModelBased, 50.0, opt);
    ASSERT_TRUE(drs.best && bay.best && herc.best);
    EXPECT_GE(bay.best_qps, 0.95 * drs.best_qps);
    EXPECT_GT(herc.best_qps, bay.best_qps);
    // Fusion is the lever: the Hercules winner uses a non-zero limit.
    EXPECT_GT(herc.best->fusion_limit, 0);
}

TEST(Baselines, GpuBaselineRequiresGpu)
{
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    EXPECT_DEATH(
        baymaxSearch(hw::serverSpec(ServerType::T2), m, 20.0,
                     fastSearch()),
        "no accelerator");
}

TEST(Baselines, CombinedPicksBestSide)
{
    model::Model m = model::buildModel(ModelId::MtWnd);
    SearchResult r = baselineSearch(hw::serverSpec(ServerType::T7), m,
                                    100.0, fastSearch());
    ASSERT_TRUE(r.best.has_value());
    EXPECT_GT(r.best_qps, 0.0);
}

/** Hercules beats the baseline across models on the NMP server. */
class DominanceEveryModel : public ::testing::TestWithParam<ModelId>
{
};

TEST_P(DominanceEveryModel, HerculesAtLeastBaselineOnT3)
{
    model::Model m = model::buildModel(GetParam());
    SearchOptions opt = fastSearch();
    const hw::ServerSpec& server = hw::serverSpec(ServerType::T3);
    SearchResult base = baselineSearch(server, m, m.sla_ms, opt);
    SearchResult herc = herculesTaskSearch(server, m, m.sla_ms, opt);
    ASSERT_TRUE(base.best && herc.best) << m.name;
    EXPECT_GE(herc.best_qps, 0.97 * base.best_qps) << m.name;
}

INSTANTIATE_TEST_SUITE_P(AllModels, DominanceEveryModel,
                         ::testing::ValuesIn(model::allModels()));

/** FNV-1a over bytes: 64-bit words low byte first, doubles by bits. */
struct Fnv1a
{
    uint64_t h = 1469598103934665603ull;

    void
    byte(unsigned char c)
    {
        h ^= c;
        h *= 1099511628211ull;
    }

    void
    mix(uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            byte(static_cast<unsigned char>((v >> (8 * i)) & 0xff));
    }

    void
    mix(double x)
    {
        uint64_t v;
        std::memcpy(&v, &x, sizeof(v));
        mix(v);
    }

    void
    mix(const std::string& s)
    {
        mix(static_cast<uint64_t>(s.size()));
        for (char c : s)
            byte(static_cast<unsigned char>(c));
    }
};

void
digestResult(Fnv1a& d, const SearchResult& r)
{
    d.mix(static_cast<uint64_t>(r.trace.size()));
    for (const SearchStep& s : r.trace) {
        d.mix(s.cfg.key());
        d.mix(s.qps);
        d.mix(s.tail_ms);
        d.mix(s.peak_power_w);
        d.mix(s.qps_per_watt);
        d.mix(static_cast<uint64_t>(s.accepted));
    }
    d.mix(static_cast<uint64_t>(r.evals));
    d.mix(static_cast<uint64_t>(r.cache_hits));
    d.mix(r.best ? r.best->key() : std::string("none"));
    d.mix(r.best_qps);
    const sim::OperatingPoint& p = r.best_point;
    d.mix(p.qps);
    d.mix(p.capacity);
    d.mix(p.bracket_lo);
    d.mix(p.bracket_hi);
    d.mix(static_cast<uint64_t>(p.sims));
    const sim::ServerSimResult& x = p.result;
    for (double v : {x.offered_qps, x.achieved_qps, x.mean_ms, x.p50_ms,
                     x.p95_ms, x.p99_ms, x.tail_ms, x.max_ms, x.cpu_util,
                     x.mem_bw_util, x.gpu_util, x.pcie_util, x.nmp_util,
                     x.avg_power_w, x.peak_power_w, x.qps_per_watt,
                     x.mean_queue_ms, x.mean_host_ms, x.mean_load_ms,
                     x.mean_exec_ms, x.duration_s})
        d.mix(v);
    d.mix(static_cast<uint64_t>(x.completed));
    d.mix(x.events_executed);
    d.mix(static_cast<uint64_t>(x.peak_event_queue_depth));
}

/**
 * Digest of every search entry point's output, each run on a fresh
 * engine of `threads` threads: a private one built from `eval` for one
 * thread, a borrowed one otherwise, so both engine paths are covered.
 */
uint64_t
searchDigest(int threads)
{
    Fnv1a d;
    auto run = [&](const std::function<SearchResult(SearchOptions&)>&
                       search) {
        SearchOptions opt = fastSearch();
        core::EvalEngine engine(core::EvalOptions{threads});
        if (threads == 1)
            opt.eval.threads = 1;
        else
            opt.engine = &engine;
        digestResult(d, search(opt));
    };
    for (ServerType st :
         {ServerType::T2, ServerType::T3, ServerType::T7, ServerType::T8}) {
        const hw::ServerSpec& server = hw::serverSpec(st);
        for (ModelId id :
             {ModelId::DlrmRmc1, ModelId::DlrmRmc3, ModelId::Din}) {
            model::Model m = model::buildModel(id);
            double sla = m.sla_ms;
            run([&](SearchOptions& o) {
                return herculesTaskSearch(server, m, sla, o);
            });
            for (Mapping mp : applicableMappings(server, m))
                run([&](SearchOptions& o) {
                    return gradientSearchMapping(server, m, mp, sla, o);
                });
            run([&](SearchOptions& o) {
                return deepRecSysSearch(server, m, sla, o);
            });
            if (server.hasGpu()) {
                for (bool part : {false, true}) {
                    run([&](SearchOptions& o) {
                        return deepRecSysGpuSearch(server, m, sla, o, part);
                    });
                    run([&](SearchOptions& o) {
                        return baymaxSearch(server, m, sla, o, part);
                    });
                }
            }
            run([&](SearchOptions& o) {
                return baselineSearch(server, m, sla, o);
            });
        }
    }
    model::Model rmc1 = model::buildModel(ModelId::DlrmRmc1);
    run([&](SearchOptions& o) {
        o.space.max_cores_per_thread = 2;
        return exhaustiveSearch(hw::serverSpec(ServerType::T2), rmc1,
                                Mapping::CpuModelBased, 20.0, o);
    });
    return d.h;
}

/*
 * Bit pin of every search entry point: each trace step, the eval and
 * cache-hit counts, the winner and its operating point, for Algorithm 1
 * (whole and per mapping), the exhaustive oracle and the baselines on
 * T2/T3/T7/T8 x RMC1/RMC3/DIN. A 1-thread and a 4-thread engine must
 * agree, and the value was captured before the searches were folded
 * onto one evaluator.
 */
TEST(SearchGolden, TracesPinned)
{
    uint64_t serial = searchDigest(1);
    EXPECT_EQ(serial, searchDigest(4));
    EXPECT_EQ(serial, 0xc32001c9936b4f9cull);
}

}  // namespace
}  // namespace hercules::sched
