/**
 * @file
 * Tests of the steppable ServerInstance extraction and the sharded
 * ClusterSim layer: pinned bit-identity of simulateServer() against
 * the pre-extraction engine, steppable == one-shot equivalence, the
 * single-shard == single-server reduction, router policies, shard
 * drain semantics, interval statistics, and the parallel replay's
 * equivalence with per-arrival delivery.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "obs/telemetry.h"
#include "obs/trace.h"
#include "sim/cluster_sim.h"
#include "sim/measure.h"
#include "sim/server_instance.h"
#include "sim/server_sim.h"
#include "util/stats.h"
#include "workload/trace_gen.h"

namespace hercules::sim {
namespace {

using hw::ServerType;
using model::ModelId;
using model::Variant;
using sched::Mapping;
using sched::SchedulingConfig;

SchedulingConfig
cpuConfig(int threads, int cores, int batch)
{
    SchedulingConfig cfg;
    cfg.mapping = Mapping::CpuModelBased;
    cfg.cpu_threads = threads;
    cfg.cores_per_thread = cores;
    cfg.batch = batch;
    return cfg;
}

SimOptions
simOptions(double qps, int num = 300, int warmup = 60, uint64_t seed = 42)
{
    SimOptions opt;
    opt.offered_qps = qps;
    opt.num_queries = num;
    opt.warmup_queries = warmup;
    opt.seed = seed;
    return opt;
}

/*
 * Golden pins: the exact doubles the seed (pre-extraction) engine
 * produced for these configurations, captured before the Engine ->
 * ServerInstance refactor. simulateServer() must stay bit-identical.
 */
TEST(GoldenRegression, CpuModelBasedT2)
{
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    ServerSimResult r =
        simulateServer(hw::serverSpec(ServerType::T2), m,
                       cpuConfig(10, 2, 128), simOptions(900));
    EXPECT_DOUBLE_EQ(r.p50_ms, 1.8006394491996285);
    EXPECT_DOUBLE_EQ(r.p95_ms, 6.1824114217503006);
    EXPECT_DOUBLE_EQ(r.p99_ms, 7.3477392831366171);
    EXPECT_DOUBLE_EQ(r.mean_ms, 2.4701726061586564);
    EXPECT_DOUBLE_EQ(r.max_ms, 9.6526226490849805);
    EXPECT_DOUBLE_EQ(r.achieved_qps, 907.57325543601917);
    EXPECT_DOUBLE_EQ(r.avg_power_w, 88.438990743100845);
    EXPECT_DOUBLE_EQ(r.peak_power_w, 96.075934389152195);
    EXPECT_DOUBLE_EQ(r.cpu_util, 0.22867826390913198);
    EXPECT_DOUBLE_EQ(r.mem_bw_util, 0.23439906088237514);
    EXPECT_DOUBLE_EQ(r.mean_exec_ms, 2.5469211491318027);
    EXPECT_DOUBLE_EQ(r.duration_s, 0.2644414636091259);
    EXPECT_EQ(r.completed, 240u);
}

TEST(GoldenRegression, CpuSdPipelineT3)
{
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    SchedulingConfig cfg;
    cfg.mapping = Mapping::CpuSdPipeline;
    cfg.cpu_threads = 6;
    cfg.cores_per_thread = 2;
    cfg.dense_threads = 4;
    cfg.batch = 128;
    ServerSimResult r = simulateServer(hw::serverSpec(ServerType::T3), m,
                                       cfg, simOptions(800));
    EXPECT_DOUBLE_EQ(r.p50_ms, 0.89373123135638721);
    EXPECT_DOUBLE_EQ(r.p95_ms, 2.3668329380241993);
    EXPECT_DOUBLE_EQ(r.p99_ms, 2.6818051606940507);
    EXPECT_DOUBLE_EQ(r.achieved_qps, 819.75506953876788);
    EXPECT_DOUBLE_EQ(r.avg_power_w, 97.681948174842432);
    EXPECT_DOUBLE_EQ(r.nmp_util, 0.53207771947859461);
}

TEST(GoldenRegression, GpuModelBasedT7)
{
    model::Model m = model::buildModel(ModelId::DlrmRmc3, Variant::Small);
    SchedulingConfig cfg;
    cfg.mapping = Mapping::GpuModelBased;
    cfg.gpu_threads = 2;
    cfg.fusion_limit = 2000;
    cfg.cpu_threads = 2;
    ServerSimResult r =
        simulateServer(hw::serverSpec(ServerType::T7), m, cfg,
                       simOptions(2000, 300, 60, 7));
    EXPECT_DOUBLE_EQ(r.p50_ms, 1.3190262719445685);
    EXPECT_DOUBLE_EQ(r.p99_ms, 3.2457913951901842);
    EXPECT_DOUBLE_EQ(r.achieved_qps, 1967.4381146015048);
    EXPECT_DOUBLE_EQ(r.avg_power_w, 277.72357912608658);
    EXPECT_DOUBLE_EQ(r.gpu_util, 0.63988257389371817);
    EXPECT_DOUBLE_EQ(r.pcie_util, 0.71755661580941899);
    EXPECT_DOUBLE_EQ(r.mean_load_ms, 0.58350784582252135);
}

TEST(GoldenRegression, GpuSdPipelineT7)
{
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    SchedulingConfig cfg;
    cfg.mapping = Mapping::GpuSdPipeline;
    cfg.cpu_threads = 8;
    cfg.cores_per_thread = 2;
    cfg.batch = 128;
    cfg.gpu_threads = 2;
    cfg.fusion_limit = 2000;
    ServerSimResult r =
        simulateServer(hw::serverSpec(ServerType::T7), m, cfg,
                       simOptions(1000, 300, 60, 11));
    EXPECT_DOUBLE_EQ(r.p50_ms, 2.0196397176448224);
    EXPECT_DOUBLE_EQ(r.p99_ms, 6.8220966668513512);
    EXPECT_DOUBLE_EQ(r.achieved_qps, 979.77417776359505);
    EXPECT_DOUBLE_EQ(r.avg_power_w, 175.665910699043);
}

TEST(GoldenRegression, SaturationPath)
{
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    SchedulingConfig cfg = cpuConfig(4, 1, 64);
    SimOptions sat = simOptions(1.0, 250, 50);
    sat.saturate = true;
    ServerSimResult rs =
        simulateServer(hw::serverSpec(ServerType::T2), m, cfg, sat);
    EXPECT_DOUBLE_EQ(rs.p50_ms, 82.66321107067813);
    EXPECT_DOUBLE_EQ(rs.achieved_qps, 1500.6867515350825);
    EXPECT_EQ(rs.completed, 200u);
}

/*
 * The steppable contract: interleaving inject/advanceTo (the way a
 * router drives a shard) produces exactly the one-shot results.
 */
TEST(ServerInstance, SteppableMatchesOneShot)
{
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    SchedulingConfig cfg = cpuConfig(10, 2, 128);
    SimOptions opt = simOptions(900);
    PreparedWorkload w = prepare(hw::serverSpec(ServerType::T2), m, cfg);

    ServerSimResult one_shot = simulateServer(w, opt);

    workload::QueryGenerator gen(opt.offered_qps, opt.seed, opt.sizes,
                                 opt.pooling);
    ServerInstance inst(w, opt);
    for (int i = 0; i < opt.num_queries; ++i) {
        workload::Query q = gen.next();
        inst.advanceTo(q.arrival_s);  // router-style interleaving
        inst.inject(q);
    }
    inst.drain();
    ServerSimResult stepped = inst.finalize();

    EXPECT_DOUBLE_EQ(stepped.p50_ms, one_shot.p50_ms);
    EXPECT_DOUBLE_EQ(stepped.p95_ms, one_shot.p95_ms);
    EXPECT_DOUBLE_EQ(stepped.p99_ms, one_shot.p99_ms);
    EXPECT_DOUBLE_EQ(stepped.mean_ms, one_shot.mean_ms);
    EXPECT_DOUBLE_EQ(stepped.max_ms, one_shot.max_ms);
    EXPECT_DOUBLE_EQ(stepped.achieved_qps, one_shot.achieved_qps);
    EXPECT_DOUBLE_EQ(stepped.avg_power_w, one_shot.avg_power_w);
    EXPECT_DOUBLE_EQ(stepped.peak_power_w, one_shot.peak_power_w);
    EXPECT_DOUBLE_EQ(stepped.cpu_util, one_shot.cpu_util);
    EXPECT_DOUBLE_EQ(stepped.mem_bw_util, one_shot.mem_bw_util);
    EXPECT_EQ(stepped.completed, one_shot.completed);
}

TEST(ServerInstance, BookkeepingAndCompletions)
{
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    PreparedWorkload w = prepare(hw::serverSpec(ServerType::T2), m,
                                 cpuConfig(4, 2, 128));
    SimOptions opt = simOptions(500, 100, 0);
    opt.record_completions = true;
    ServerInstance inst(w, opt);
    workload::QueryGenerator gen(500, 3);
    for (int i = 0; i < 100; ++i)
        inst.inject(gen.next());
    EXPECT_EQ(inst.injected(), 100u);
    EXPECT_EQ(inst.outstanding(), 100u);
    inst.drain();
    EXPECT_EQ(inst.outstanding(), 0u);
    EXPECT_EQ(inst.completedAll(), 100u);
    ASSERT_EQ(inst.completions().size(), 100u);
    double prev_finish = 0.0;
    for (const auto& c : inst.completions()) {
        EXPECT_GE(c.finish_s, c.arrival_s);
        EXPECT_GE(c.finish_s, prev_finish);  // retired in finish order
        prev_finish = c.finish_s;
    }
}

std::vector<workload::Query>
uniformTrace(size_t n, double gap_s, int size = 40)
{
    std::vector<workload::Query> trace(n);
    for (size_t i = 0; i < n; ++i) {
        trace[i].id = i;
        trace[i].arrival_s = static_cast<double>(i + 1) * gap_s;
        trace[i].size = size;
        trace[i].pooling_scale = 1.0;
    }
    return trace;
}

/*
 * Crash with arrivals still waiting on the event queue's arrival lane:
 * every injected query dies (conservation), nothing stays pending, and
 * the instance then serves later arrivals exactly as a fresh server —
 * including arrivals earlier than the discarded future ones.
 */
TEST(ServerInstance, KillDiscardsLaneArrivalsAndServesAfterwards)
{
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    PreparedWorkload w = prepare(hw::serverSpec(ServerType::T2), m,
                                 cpuConfig(2, 1, 64));
    SimOptions opt = simOptions(500, 100, 0);
    opt.record_completions = true;
    ServerInstance inst(w, opt);
    std::vector<workload::Query> before = uniformTrace(40, 0.01, 200);
    for (const workload::Query& q : before)
        inst.inject(q);  // arrivals up to t = 0.40 wait in the lane
    inst.advanceTo(0.1);
    const size_t retired = inst.completedAll();
    ASSERT_LT(retired, before.size());
    const size_t killed = inst.killInFlight();
    EXPECT_FALSE(inst.hasPending());
    EXPECT_EQ(killed, before.size() - retired);
    EXPECT_EQ(inst.completedAll(), before.size());
    EXPECT_EQ(inst.outstanding(), 0u);
    EXPECT_EQ(inst.completions().size(), retired);

    // Post-crash arrivals from t = 0.15: earlier than the discarded
    // lane tail, later than now().
    std::vector<workload::Query> after = uniformTrace(20, 0.01, 200);
    for (workload::Query& q : after)
        q.arrival_s += 0.14;
    ServerInstance fresh(w, opt);
    for (const workload::Query& q : after) {
        inst.inject(q);
        fresh.inject(q);
    }
    inst.drain();
    fresh.drain();
    EXPECT_EQ(inst.outstanding(), 0u);
    EXPECT_EQ(inst.completedAll(), before.size() + after.size());
    ASSERT_EQ(inst.completions().size(), retired + after.size());
    ASSERT_EQ(fresh.completions().size(), after.size());
    for (size_t i = 0; i < after.size(); ++i) {
        const obs::Completion& c = inst.completions()[retired + i];
        const obs::Completion& f = fresh.completions()[i];
        EXPECT_EQ(c.query, f.query + static_cast<int>(before.size()));
        EXPECT_EQ(c.arrival_s, f.arrival_s);
        EXPECT_EQ(c.finish_s, f.finish_s);
        EXPECT_EQ(c.queue_wait_s, f.queue_wait_s);
    }
}

void
expectSameResult(const ServerSimResult& a, const ServerSimResult& b)
{
    EXPECT_EQ(a.offered_qps, b.offered_qps);
    EXPECT_EQ(a.achieved_qps, b.achieved_qps);
    EXPECT_EQ(a.mean_ms, b.mean_ms);
    EXPECT_EQ(a.p50_ms, b.p50_ms);
    EXPECT_EQ(a.p95_ms, b.p95_ms);
    EXPECT_EQ(a.p99_ms, b.p99_ms);
    EXPECT_EQ(a.tail_ms, b.tail_ms);
    EXPECT_EQ(a.max_ms, b.max_ms);
    EXPECT_EQ(a.cpu_util, b.cpu_util);
    EXPECT_EQ(a.mem_bw_util, b.mem_bw_util);
    EXPECT_EQ(a.gpu_util, b.gpu_util);
    EXPECT_EQ(a.pcie_util, b.pcie_util);
    EXPECT_EQ(a.nmp_util, b.nmp_util);
    EXPECT_EQ(a.avg_power_w, b.avg_power_w);
    EXPECT_EQ(a.peak_power_w, b.peak_power_w);
    EXPECT_EQ(a.qps_per_watt, b.qps_per_watt);
    EXPECT_EQ(a.mean_queue_ms, b.mean_queue_ms);
    EXPECT_EQ(a.mean_host_ms, b.mean_host_ms);
    EXPECT_EQ(a.mean_load_ms, b.mean_load_ms);
    EXPECT_EQ(a.mean_exec_ms, b.mean_exec_ms);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.duration_s, b.duration_s);
    EXPECT_EQ(a.events_executed, b.events_executed);
    EXPECT_EQ(a.peak_event_queue_depth, b.peak_event_queue_depth);
}

/** One configuration per mapping; GpuModelBased has a cold host pool. */
struct MemoCase
{
    const char* name;
    ServerType server;
    SchedulingConfig cfg;
};

std::vector<MemoCase>
memoCases()
{
    SchedulingConfig sd;
    sd.mapping = Mapping::CpuSdPipeline;
    sd.cpu_threads = 6;
    sd.cores_per_thread = 2;
    sd.dense_threads = 4;
    sd.batch = 128;
    SchedulingConfig gmb;  // 6 threads: partial hot split (pool 3)
    gmb.mapping = Mapping::GpuModelBased;
    gmb.gpu_threads = 6;
    gmb.fusion_limit = 2000;
    gmb.cpu_threads = 2;
    SchedulingConfig gmb_nofuse = gmb;  // one query per batch
    gmb_nofuse.fusion_limit = 0;
    SchedulingConfig gsd;
    gsd.mapping = Mapping::GpuSdPipeline;
    gsd.cpu_threads = 8;
    gsd.cores_per_thread = 2;
    gsd.batch = 128;
    gsd.gpu_threads = 2;
    gsd.fusion_limit = 2000;
    return {{"cpu-model-based", ServerType::T2, cpuConfig(10, 2, 128)},
            {"cpu-sd-pipeline", ServerType::T3, sd},
            {"gpu-model-based", ServerType::T7, gmb},
            {"gpu-model-based-nofusion", ServerType::T7, gmb_nofuse},
            {"gpu-sd-pipeline", ServerType::T7, gsd}};
}

/** A steppable run that degrades to `slowdown` half-way through. */
ServerSimResult
slowedRun(const PreparedWorkload& w, const SimOptions& opt, double slowdown)
{
    ServerInstance inst(w, opt);
    workload::QueryGenerator gen(opt.offered_qps, opt.seed, opt.sizes,
                                 opt.pooling);
    for (int i = 0; i < opt.num_queries; ++i) {
        workload::Query q = gen.next();
        inst.advanceTo(q.arrival_s);
        if (i == opt.num_queries / 2)
            inst.setSlowdown(slowdown);
        inst.inject(q);
    }
    inst.drain();
    return inst.finalize();
}

/*
 * The CPU service memo lives on the PreparedWorkload and is shared by
 * every run on it. Back-to-back runs on one workload (slowed, then
 * saturate and load probes, then slowed again on the
 * warm memo) must each equal the same run on a freshly prepared one.
 */
TEST(SharedServiceMemo, ReusedWorkloadMatchesFresh)
{
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    for (const MemoCase& mc : memoCases()) {
        SCOPED_TRACE(mc.name);
        const hw::ServerSpec& server = hw::serverSpec(mc.server);
        PreparedWorkload shared = prepare(server, m, mc.cfg);

        SimOptions sat = simOptions(1.0);
        sat.saturate = true;
        const double cap =
            simulateServer(prepare(server, m, mc.cfg), sat).achieved_qps;
        ASSERT_GT(cap, 0.0);
        const std::vector<SimOptions> runs = {
            sat, simOptions(0.3 * cap), simOptions(0.8 * cap, 300, 60, 7)};

        const SimOptions slow_opt = simOptions(0.5 * cap);
        expectSameResult(slowedRun(shared, slow_opt, 1.7),
                         slowedRun(prepare(server, m, mc.cfg), slow_opt,
                                   1.7));
        for (const SimOptions& opt : runs)
            expectSameResult(simulateServer(shared, opt),
                             simulateServer(prepare(server, m, mc.cfg),
                                            opt));
        expectSameResult(slowedRun(shared, slow_opt, 1.7),
                         slowedRun(prepare(server, m, mc.cfg), slow_opt,
                                   1.7));
        if (mc.cfg.mapping == Mapping::GpuModelBased) {
            ASSERT_LT(shared.gpu_cx.hot_hit_rate, 1.0);
            EXPECT_FALSE(shared.cpu_service_memo[3].entries.empty());
        }
    }
}

/*
 * The probe stream is drawn once per workload and keyed by every input
 * of the draw. One PreparedWorkload simulated under a chain of options,
 * each changing one input (and the last returning to the first), must
 * give what a freshly prepared workload gives every time.
 */
TEST(SharedServiceMemo, ProbeStreamKeyedByEveryDrawInput)
{
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    const hw::ServerSpec& server = hw::serverSpec(ServerType::T2);
    const SchedulingConfig cfg = cpuConfig(10, 2, 128);
    PreparedWorkload shared = prepare(server, m, cfg);

    std::vector<SimOptions> chain = {simOptions(900)};
    auto next = [&chain](auto change) {
        SimOptions opt = chain.back();
        change(opt);
        chain.push_back(opt);
    };
    next([](SimOptions& o) { o.seed = 7; });
    next([](SimOptions& o) { o.num_queries = 320; });
    next([](SimOptions& o) { o.sizes.median = 80.0; });
    next([](SimOptions& o) { o.sizes.sigma = 0.6; });
    next([](SimOptions& o) { o.sizes.min_size = 40; });
    next([](SimOptions& o) { o.sizes.max_size = 150; });
    next([](SimOptions& o) { o.pooling.sigma = 0.5; });
    next([](SimOptions& o) { o.offered_qps = 1400.0; });
    next([](SimOptions& o) { o.saturate = true; });
    next([](SimOptions& o) {
        o.saturate = false;
        o.offered_qps = 20000.0;
    });
    chain.push_back(chain.front());

    for (size_t i = 0; i < chain.size(); ++i) {
        SCOPED_TRACE(i);
        expectSameResult(simulateServer(shared, chain[i]),
                         simulateServer(prepare(server, m, cfg), chain[i]));
    }
}

TEST(SharedServiceMemo, ReusedMeasurementMatchesFresh)
{
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    MeasureOptions mo;
    mo.sim = simOptions(1.0);
    mo.bisect_iters = 5;
    for (const MemoCase& mc : memoCases()) {
        SCOPED_TRACE(mc.name);
        const hw::ServerSpec& server = hw::serverSpec(mc.server);
        PreparedWorkload shared = prepare(server, m, mc.cfg);
        for (double sla_ms : {20.0, 8.0}) {
            auto reused = measureLatencyBoundedQps(shared, sla_ms, mo);
            auto fresh = measureLatencyBoundedQps(
                prepare(server, m, mc.cfg), sla_ms, mo);
            ASSERT_EQ(reused.has_value(), fresh.has_value());
            if (!fresh)
                continue;
            EXPECT_EQ(reused->qps, fresh->qps);
            EXPECT_EQ(reused->capacity, fresh->capacity);
            EXPECT_EQ(reused->bracket_lo, fresh->bracket_lo);
            EXPECT_EQ(reused->bracket_hi, fresh->bracket_hi);
            EXPECT_EQ(reused->sims, fresh->sims);
            expectSameResult(reused->result, fresh->result);
        }
    }
}

/*
 * Acceptance: a ClusterSim with one shard behind a round-robin router
 * reproduces the single-server latency distribution for the same
 * arrival trace, bit for bit.
 */
TEST(ClusterSim, OneShardRoundRobinMatchesSingleServer)
{
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    PreparedWorkload w = prepare(hw::serverSpec(ServerType::T2), m,
                                 cpuConfig(10, 2, 128));

    workload::DiurnalConfig dc;
    dc.peak_qps = 600.0;
    dc.trough_frac = 0.5;
    dc.noise_frac = 0.0;
    workload::DiurnalLoad load(dc);
    workload::TraceOptions topt;
    topt.horizon_hours = 0.004;  // ~14 simulated seconds
    topt.bucket_seconds = 2.0;
    topt.seed = 9;
    std::vector<workload::Query> trace =
        workload::TraceGenerator(load, topt).generate();
    ASSERT_GT(trace.size(), 1000u);

    SimOptions opt;
    opt.warmup_queries = 0;
    opt.record_completions = true;
    ServerInstance solo(w, opt);
    for (const workload::Query& q : trace)
        solo.inject(q);
    solo.drain();
    ServerSimResult alone = solo.finalize();

    ClusterSim::Options copt;
    copt.router = RouterPolicy::RoundRobin;
    ClusterSim cluster(copt);
    cluster.addShard(w, 1000.0);
    ClusterSimResult r = cluster.run(trace, 2.0);

    EXPECT_EQ(r.injected, trace.size());
    EXPECT_EQ(r.completed, static_cast<size_t>(alone.completed));
    EXPECT_DOUBLE_EQ(r.p50_ms, alone.p50_ms);
    EXPECT_DOUBLE_EQ(r.p95_ms, alone.p95_ms);
    EXPECT_DOUBLE_EQ(r.p99_ms, alone.p99_ms);
    EXPECT_DOUBLE_EQ(r.mean_ms, alone.mean_ms);
    EXPECT_DOUBLE_EQ(r.max_ms, alone.max_ms);
}

TEST(Router, RoundRobinCyclesEvenly)
{
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    PreparedWorkload w = prepare(hw::serverSpec(ServerType::T2), m,
                                 cpuConfig(4, 1, 64));
    ClusterSim::Options copt;
    copt.router = RouterPolicy::RoundRobin;
    ClusterSim cluster(copt);
    for (int i = 0; i < 3; ++i)
        cluster.addShard(w, 1000.0);
    for (const auto& q : uniformTrace(30, 0.01))
        cluster.route(q);
    cluster.drainAll();
    EXPECT_EQ(cluster.injectedPerShard(),
              (std::vector<size_t>{10, 10, 10}));
}

TEST(Router, LeastOutstandingAvoidsBusyShard)
{
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    PreparedWorkload w = prepare(hw::serverSpec(ServerType::T2), m,
                                 cpuConfig(1, 1, 64));
    ClusterSim::Options copt;
    copt.router = RouterPolicy::LeastOutstanding;
    ClusterSim cluster(copt);
    cluster.addShard(w, 1000.0);
    cluster.addShard(w, 1000.0);

    workload::Query big;
    big.arrival_s = 0.001;
    big.size = 1000;  // long-running on a single thread
    big.pooling_scale = 1.0;
    EXPECT_EQ(cluster.route(big), 0);  // ties break to the lowest id
    workload::Query small;
    small.arrival_s = 0.0011;
    small.size = 10;
    small.pooling_scale = 1.0;
    EXPECT_EQ(cluster.route(small), 1);  // shard 0 still busy
    cluster.drainAll();
}

TEST(Router, HerculesWeightedFollowsTupleQps)
{
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    PreparedWorkload w = prepare(hw::serverSpec(ServerType::T2), m,
                                 cpuConfig(4, 1, 64));
    ClusterSim::Options copt;
    copt.router = RouterPolicy::HerculesWeighted;
    ClusterSim cluster(copt);
    cluster.addShard(w, 3000.0);
    cluster.addShard(w, 1000.0);
    for (const auto& q : uniformTrace(400, 0.002))
        cluster.route(q);
    cluster.drainAll();
    const auto& per_shard = cluster.injectedPerShard();
    // Smooth WRR: long-run share tracks weight / total (75% / 25%).
    EXPECT_NEAR(static_cast<double>(per_shard[0]), 300.0, 10.0);
    EXPECT_NEAR(static_cast<double>(per_shard[1]), 100.0, 10.0);
}

TEST(Router, PowerOfTwoDeterministicPerSeed)
{
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    PreparedWorkload w = prepare(hw::serverSpec(ServerType::T2), m,
                                 cpuConfig(4, 1, 64));
    auto run = [&](uint64_t seed) {
        ClusterSim::Options copt;
        copt.router = RouterPolicy::PowerOfTwo;
        copt.router_seed = seed;
        ClusterSim cluster(copt);
        for (int i = 0; i < 4; ++i)
            cluster.addShard(w, 1000.0);
        for (const auto& q : uniformTrace(200, 0.005))
            cluster.route(q);
        cluster.drainAll();
        return cluster.injectedPerShard();
    };
    auto a = run(21);
    auto b = run(21);
    EXPECT_EQ(a, b);
    size_t used = 0;
    for (size_t n : a)
        if (n > 0)
            ++used;
    EXPECT_GE(used, 3u);  // spreads load across the fleet
}

TEST(ClusterSim, ReleasedShardDrainsBeforeGoingDark)
{
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    PreparedWorkload w = prepare(hw::serverSpec(ServerType::T2), m,
                                 cpuConfig(2, 1, 64));
    ClusterSim::Options copt;
    copt.router = RouterPolicy::RoundRobin;
    ClusterSim cluster(copt);
    cluster.addShard(w, 1000.0);
    cluster.addShard(w, 1000.0);

    for (const auto& q : uniformTrace(20, 0.001, 200))
        cluster.route(q);
    ASSERT_GT(cluster.outstanding(0), 0u);

    cluster.setActive(0, false, 0.03);
    EXPECT_FALSE(cluster.isActive(0));
    EXPECT_FALSE(cluster.drained(0));  // still draining in-flight work

    // New arrivals only reach the surviving shard.
    size_t before = cluster.injectedPerShard()[0];
    workload::Query late;
    late.arrival_s = 0.031;
    late.size = 10;
    late.pooling_scale = 1.0;
    EXPECT_EQ(cluster.route(late), 1);
    EXPECT_EQ(cluster.injectedPerShard()[0], before);

    cluster.drainAll();
    EXPECT_TRUE(cluster.drained(0));  // in-flight queries all retired
    EXPECT_EQ(cluster.outstanding(0), 0u);
}

/*
 * The power side of drain semantics: a released shard keeps burning
 * power while its in-flight queue drains, and only once drained() does
 * it go dark. A harvest window entirely after the drain charges it
 * nothing.
 */
TEST(ClusterSim, DrainingShardConsumesPowerUntilDark)
{
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    PreparedWorkload w = prepare(hw::serverSpec(ServerType::T2), m,
                                 cpuConfig(1, 1, 64));
    ClusterSim cluster(ClusterSim::Options{});
    cluster.addShard(w, 1000.0);

    // Pile up a deep queue on the single-threaded shard, then release
    // it mid-queue: every in-flight query still retires.
    for (const auto& q : uniformTrace(30, 0.001, 300))
        cluster.route(q);
    cluster.setActive(0, false, 0.05);
    ASSERT_GT(cluster.outstanding(0), 0u);

    cluster.advanceTo(1.0);
    EXPECT_TRUE(cluster.drained(0));
    IntervalStats draining = cluster.harvest(0.0, 1.0);
    EXPECT_EQ(draining.completions, 30u);
    EXPECT_EQ(draining.dropped, 0u);
    // The drain work is charged to the window it happened in.
    EXPECT_GT(draining.consumed_power_w, 0.0);

    // A later window sees a dark shard: no completions, no power.
    cluster.advanceTo(2.0);
    IntervalStats dark = cluster.harvest(1.0, 2.0);
    EXPECT_EQ(dark.completions, 0u);
    EXPECT_DOUBLE_EQ(dark.consumed_power_w, 0.0);

    // And the dark shard still refuses new work.
    workload::Query late;
    late.arrival_s = 2.001;
    late.size = 10;
    late.pooling_scale = 1.0;
    EXPECT_EQ(cluster.route(late), -1);
}

/*
 * Bugfix pins: router state must survive topology changes. A
 * re-provision used to zero the round-robin cursor and all smooth-WRR
 * credits, biasing load toward low-index shards across a long replay.
 */
TEST(Router, RoundRobinCursorSurvivesReprovision)
{
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    PreparedWorkload w = prepare(hw::serverSpec(ServerType::T2), m,
                                 cpuConfig(4, 1, 64));
    ClusterSim::Options copt;
    copt.router = RouterPolicy::RoundRobin;
    ClusterSim cluster(copt);
    for (int i = 0; i < 3; ++i)
        cluster.addShard(w, 1000.0);

    auto trace = uniformTrace(3, 0.01);
    EXPECT_EQ(cluster.route(trace[0]), 0);
    EXPECT_EQ(cluster.route(trace[1]), 1);
    // A release + re-activation (two topology changes, same active
    // set) must not restart the cycle at shard 0.
    cluster.setActive(2, false, 0.025);
    cluster.setActive(2, true, 0.026);
    EXPECT_EQ(cluster.route(trace[2]), 2);
    cluster.drainAll();
    EXPECT_EQ(cluster.injectedPerShard(),
              (std::vector<size_t>{1, 1, 1}));
}

TEST(Router, HerculesCreditsSurviveReprovision)
{
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    PreparedWorkload w = prepare(hw::serverSpec(ServerType::T2), m,
                                 cpuConfig(4, 1, 64));
    ClusterSim::Options copt;
    copt.router = RouterPolicy::HerculesWeighted;
    ClusterSim cluster(copt);
    for (int i = 0; i < 3; ++i)
        cluster.addShard(w, 1000.0);

    // Equal weights: smooth WRR cycles 0, 1, 2. After shard 0's pick
    // its credit is deeply negative; zeroing the credits at the
    // topology change would hand the next query to shard 0 again.
    auto trace = uniformTrace(2, 0.01);
    EXPECT_EQ(cluster.route(trace[0]), 0);
    cluster.setActive(2, false, 0.015);
    cluster.setActive(2, true, 0.016);
    EXPECT_EQ(cluster.route(trace[1]), 1);
    cluster.drainAll();
}

/*
 * Bugfix pin: power-of-two-choices must sample two *distinct* shards.
 * With n = 2 that makes every pick a deterministic better-queue
 * choice; sampling with replacement would sometimes "compare" the
 * busy shard with itself and route into the longer queue.
 */
TEST(Router, PowerOfTwoSamplesDistinctShards)
{
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    PreparedWorkload slow = prepare(hw::serverSpec(ServerType::T2), m,
                                    cpuConfig(1, 1, 64));
    PreparedWorkload fast = prepare(hw::serverSpec(ServerType::T2), m,
                                    cpuConfig(10, 2, 128));
    ClusterSim::Options copt;
    copt.router = RouterPolicy::PowerOfTwo;
    copt.router_seed = 21;
    ClusterSim cluster(copt);
    cluster.addShard(slow, 500.0);
    cluster.addShard(fast, 3000.0);

    // Big queries arriving faster than the single-threaded shard can
    // retire them: whenever it is picked it stays busy across several
    // arrivals, so the distinct-sampling pick must route those to the
    // idle fast shard.
    for (const auto& q : uniformTrace(200, 0.002, 300)) {
        cluster.advanceTo(q.arrival_s);
        size_t q0 = cluster.outstanding(0);
        size_t q1 = cluster.outstanding(1);
        int expected = q0 > q1 ? 1 : 0;  // ties break to shard 0
        EXPECT_EQ(cluster.route(q), expected)
            << "queues were " << q0 << " vs " << q1;
    }
    cluster.drainAll();
    const auto& per_shard = cluster.injectedPerShard();
    EXPECT_GT(per_shard[0], 0u);
    EXPECT_GT(per_shard[1], per_shard[0]);
}

TEST(ClusterSim, DropsWhenNoShardActive)
{
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    PreparedWorkload w = prepare(hw::serverSpec(ServerType::T2), m,
                                 cpuConfig(2, 1, 64));
    ClusterSim cluster(ClusterSim::Options{});
    cluster.addShard(w, 1000.0);
    cluster.setActive(0, false, 0.0);
    workload::Query q;
    q.arrival_s = 0.001;
    q.size = 10;
    q.pooling_scale = 1.0;
    EXPECT_EQ(cluster.route(q), -1);
    IntervalStats st = cluster.harvest(0.0, 0.01);
    EXPECT_EQ(st.dropped, 1u);
    EXPECT_EQ(st.arrivals, 0u);
    // Bugfix pin: a dropped query missed its SLA by definition — a
    // fully-dark interval reports a 100% violation rate, not 0%.
    EXPECT_EQ(st.sla_violations, 1u);
    EXPECT_DOUBLE_EQ(st.sla_violation_rate, 1.0);
}

TEST(ClusterSim, DroppedArrivalsCountAsSlaViolationsInAggregates)
{
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    PreparedWorkload w = prepare(hw::serverSpec(ServerType::T2), m,
                                 cpuConfig(4, 2, 128));
    ClusterSim cluster(ClusterSim::Options{});
    cluster.addShard(w, 1000.0);

    // Interval 0 is a full outage (nothing active); interval 1 serves.
    std::vector<workload::Query> trace = uniformTrace(40, 0.01);
    auto plan = [](int k, double) {
        IntervalPlan p;
        if (k > 0)
            p.active = {0};
        return p;
    };
    ClusterSimResult r = cluster.run(trace, 0.2, plan);

    ASSERT_GT(r.dropped, 0u);
    ASSERT_GT(r.completed, 0u);
    EXPECT_EQ(r.injected + r.dropped, 40u);
    // Run-level rate counts the drops in numerator and denominator.
    EXPECT_EQ(r.sla_violations, r.dropped);  // served ones are fast
    EXPECT_DOUBLE_EQ(r.sla_violation_rate,
                     static_cast<double>(r.sla_violations) /
                         static_cast<double>(r.completed + r.dropped));
    EXPECT_DOUBLE_EQ(r.intervals[0].sla_violation_rate, 1.0);
    EXPECT_EQ(r.intervals[0].dropped, r.dropped);
    // Per-service view agrees with the aggregate.
    ASSERT_EQ(r.services.size(), 1u);
    EXPECT_EQ(r.services[0].dropped, r.dropped);
    EXPECT_EQ(r.services[0].sla_violations, r.sla_violations);
}

/*
 * Multi-service co-serving: shards belong to services, queries route
 * via their service's router to that service's shards only, and both
 * interval and run statistics keep per-service slices that add up to
 * the aggregate.
 */
TEST(ClusterSim, PerServiceRoutingAndStatsIsolation)
{
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    PreparedWorkload w = prepare(hw::serverSpec(ServerType::T2), m,
                                 cpuConfig(4, 2, 128));
    ClusterSim::Options copt;
    copt.router = RouterPolicy::RoundRobin;
    ClusterSim cluster(copt);
    cluster.addShard(w, 1000.0, 0);
    cluster.addShard(w, 1000.0, 1);
    cluster.addShard(w, 1000.0, 1);
    EXPECT_EQ(cluster.numServices(), 2);
    EXPECT_EQ(cluster.activeShards(0), (std::vector<int>{0}));
    EXPECT_EQ(cluster.activeShards(1), (std::vector<int>{1, 2}));

    std::vector<workload::Query> trace = uniformTrace(60, 0.005);
    for (size_t i = 0; i < trace.size(); ++i)
        trace[i].service_id = i % 3 == 0 ? 0 : 1;  // 20 / 40 split
    for (const auto& q : trace)
        cluster.route(q);
    cluster.drainAll();
    // Service 0's queries only reach shard 0; service 1's round-robin
    // cycles its own two shards.
    EXPECT_EQ(cluster.injectedPerShard(),
              (std::vector<size_t>{20, 20, 20}));

    IntervalStats st = cluster.harvest(0.0, 10.0);
    ASSERT_EQ(st.services.size(), 2u);
    EXPECT_EQ(st.services[0].arrivals, 20u);
    EXPECT_EQ(st.services[1].arrivals, 40u);
    EXPECT_EQ(st.services[0].completions +
                  st.services[1].completions,
              st.completions);
    EXPECT_EQ(st.services[0].active_shards, 1);
    EXPECT_EQ(st.services[1].active_shards, 2);
}

TEST(ClusterSim, PerServiceSlaAccounting)
{
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    PreparedWorkload w = prepare(hw::serverSpec(ServerType::T2), m,
                                 cpuConfig(4, 2, 128));
    ClusterSim::Options copt;
    copt.sla_ms = 15.0;
    // Service 0 can never violate, service 1 always does.
    copt.service_sla_ms = {1e9, 1e-6};
    ClusterSim cluster(copt);
    cluster.addShard(w, 1000.0, 0);
    cluster.addShard(w, 1000.0, 1);
    EXPECT_DOUBLE_EQ(cluster.slaMs(0), 1e9);
    EXPECT_DOUBLE_EQ(cluster.slaMs(1), 1e-6);
    EXPECT_DOUBLE_EQ(cluster.slaMs(7), 15.0);  // fallback

    std::vector<workload::Query> trace = uniformTrace(40, 0.005);
    for (size_t i = 0; i < trace.size(); ++i)
        trace[i].service_id = static_cast<int>(i % 2);
    ClusterSimResult r = cluster.run(trace, 0.05);

    ASSERT_EQ(r.services.size(), 2u);
    EXPECT_EQ(r.services[0].completed, 20u);
    EXPECT_EQ(r.services[1].completed, 20u);
    EXPECT_EQ(r.services[0].sla_violations, 0u);
    EXPECT_EQ(r.services[1].sla_violations, 20u);
    EXPECT_DOUBLE_EQ(r.services[0].sla_violation_rate, 0.0);
    EXPECT_DOUBLE_EQ(r.services[1].sla_violation_rate, 1.0);
    EXPECT_DOUBLE_EQ(r.services[0].sla_ms, 1e9);
    // The aggregate is the union of the per-service verdicts.
    EXPECT_EQ(r.sla_violations, 20u);
}

TEST(ClusterSim, ServiceDropIsolation)
{
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    PreparedWorkload w = prepare(hw::serverSpec(ServerType::T2), m,
                                 cpuConfig(4, 2, 128));
    ClusterSim cluster(ClusterSim::Options{});
    cluster.addShard(w, 1000.0, 0);
    cluster.addShard(w, 1000.0, 1);
    cluster.setActive(1, false, 0.0);  // service 1 goes dark

    std::vector<workload::Query> trace = uniformTrace(20, 0.005);
    for (size_t i = 0; i < trace.size(); ++i)
        trace[i].service_id = static_cast<int>(i % 2);
    for (const auto& q : trace)
        cluster.route(q);
    cluster.drainAll();

    IntervalStats st = cluster.harvest(0.0, 10.0);
    EXPECT_EQ(st.services[0].dropped, 0u);
    EXPECT_EQ(st.services[1].dropped, 10u);
    EXPECT_EQ(st.services[1].arrivals, 0u);
    EXPECT_DOUBLE_EQ(st.services[1].sla_violation_rate, 1.0);
    EXPECT_EQ(st.services[0].sla_violations, 0u);
    EXPECT_EQ(st.dropped, 10u);
}

/*
 * Hardening pin: an interval (or service slice) with zero completions
 * — a dark outage window, a trailing idle interval past the last
 * arrival — must report well-defined statistics. Every percentile of
 * an empty set is 0.0 by contract (util/stats.h), never NaN, and the
 * violation rate stays finite in [0, 1].
 */
TEST(ClusterSim, DarkIntervalStatsAreWellDefined)
{
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    PreparedWorkload w = prepare(hw::serverSpec(ServerType::T2), m,
                                 cpuConfig(4, 2, 128));
    ClusterSim cluster(ClusterSim::Options{});
    cluster.addShard(w, 1000.0, 0);
    cluster.addShard(w, 1000.0, 1);

    // 20 early queries for service 0 only; the horizon then runs far
    // past the last arrival, so the trailing intervals are completely
    // dark and service 1 never sees a single query.
    std::vector<workload::Query> trace = uniformTrace(20, 0.001);
    ClusterSimResult r = cluster.run(trace, 0.5, nullptr, 5.0);

    ASSERT_GE(r.intervals.size(), 10u);
    for (const IntervalStats& iv : r.intervals) {
        EXPECT_TRUE(std::isfinite(iv.p50_ms));
        EXPECT_TRUE(std::isfinite(iv.p99_ms));
        EXPECT_TRUE(std::isfinite(iv.max_ms));
        EXPECT_TRUE(std::isfinite(iv.sla_violation_rate));
        EXPECT_GE(iv.sla_violation_rate, 0.0);
        EXPECT_LE(iv.sla_violation_rate, 1.0);
        for (const ServiceIntervalStats& svc : iv.services) {
            EXPECT_TRUE(std::isfinite(svc.p50_ms));
            EXPECT_TRUE(std::isfinite(svc.p99_ms));
            EXPECT_TRUE(std::isfinite(svc.sla_violation_rate));
        }
    }
    // A dark interval reports the empty-percentile contract exactly.
    const IntervalStats& dark = r.intervals.back();
    EXPECT_EQ(dark.completions, 0u);
    EXPECT_DOUBLE_EQ(dark.p50_ms, 0.0);
    EXPECT_DOUBLE_EQ(dark.p99_ms, 0.0);
    EXPECT_DOUBLE_EQ(dark.sla_violation_rate, 0.0);
    // The never-used service slice is equally well-defined at run
    // level (0/0 rates are 0, not NaN).
    ASSERT_EQ(r.services.size(), 2u);
    EXPECT_EQ(r.services[1].completed, 0u);
    EXPECT_DOUBLE_EQ(r.services[1].p50_ms, 0.0);
    EXPECT_DOUBLE_EQ(r.services[1].p99_ms, 0.0);
    EXPECT_TRUE(std::isfinite(r.services[1].sla_violation_rate));
    EXPECT_DOUBLE_EQ(r.services[1].sla_violation_rate, 0.0);
}

TEST(ClusterSim, IntervalStatsAreConsistent)
{
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    PreparedWorkload w = prepare(hw::serverSpec(ServerType::T2), m,
                                 cpuConfig(4, 2, 128));
    ClusterSim::Options copt;
    copt.router = RouterPolicy::LeastOutstanding;
    copt.sla_ms = 15.0;
    ClusterSim cluster(copt);
    cluster.addShard(w, 1000.0);
    cluster.addShard(w, 1000.0);

    std::vector<workload::Query> trace = uniformTrace(800, 0.002);
    // Second half of the run keeps only shard 0 (exercises the plan
    // path: release at an interval boundary, drain, stats continuity).
    auto plan = [](int k, double) {
        IntervalPlan p;
        p.active = k < 2 ? std::vector<int>{0, 1} : std::vector<int>{0};
        p.provisioned_power_w = k < 2 ? 300.0 : 150.0;
        return p;
    };
    ClusterSimResult r = cluster.run(trace, 0.4, plan);

    EXPECT_EQ(r.injected, 800u);
    EXPECT_EQ(r.completed, 800u);
    EXPECT_EQ(r.dropped, 0u);
    size_t interval_completions = 0;
    for (const IntervalStats& iv : r.intervals) {
        interval_completions += iv.completions;
        EXPECT_GE(iv.sla_violation_rate, 0.0);
        EXPECT_LE(iv.sla_violation_rate, 1.0);
        EXPECT_GE(iv.consumed_power_w, 0.0);
        EXPECT_GE(iv.p99_ms, iv.p50_ms);
    }
    EXPECT_EQ(interval_completions, 800u);
    ASSERT_GE(r.intervals.size(), 4u);
    EXPECT_EQ(r.intervals[0].active_shards, 2);
    EXPECT_EQ(r.intervals[2].active_shards, 1);
    EXPECT_DOUBLE_EQ(r.intervals[0].provisioned_power_w, 300.0);
    EXPECT_DOUBLE_EQ(r.intervals[2].provisioned_power_w, 150.0);
    // Two active shards burn more power than one plus a drain tail.
    EXPECT_GT(r.intervals[0].consumed_power_w, 0.0);
    EXPECT_GT(r.peak_consumed_power_w,
              r.intervals.back().consumed_power_w);
}


/** Every simulated field of two interval windows, bit for bit. */
void
expectSameInterval(const IntervalStats& a, const IntervalStats& b)
{
    EXPECT_EQ(a.t0_s, b.t0_s);
    EXPECT_EQ(a.t1_s, b.t1_s);
    EXPECT_EQ(a.arrivals, b.arrivals);
    EXPECT_EQ(a.completions, b.completions);
    EXPECT_EQ(a.dropped, b.dropped);
    EXPECT_EQ(a.rejected, b.rejected);
    EXPECT_EQ(a.failed_inflight, b.failed_inflight);
    EXPECT_EQ(a.offered_qps, b.offered_qps);
    EXPECT_EQ(a.p50_ms, b.p50_ms);
    EXPECT_EQ(a.p99_ms, b.p99_ms);
    EXPECT_EQ(a.max_ms, b.max_ms);
    EXPECT_EQ(a.sla_violations, b.sla_violations);
    EXPECT_EQ(a.sla_violation_rate, b.sla_violation_rate);
    EXPECT_EQ(a.active_shards, b.active_shards);
    EXPECT_EQ(a.consumed_power_w, b.consumed_power_w);
    EXPECT_EQ(a.provisioned_power_w, b.provisioned_power_w);
    EXPECT_EQ(a.budget_power_w, b.budget_power_w);
    EXPECT_EQ(a.power_capped, b.power_capped);
    ASSERT_EQ(a.services.size(), b.services.size());
    for (size_t v = 0; v < a.services.size(); ++v) {
        const ServiceIntervalStats& x = a.services[v];
        const ServiceIntervalStats& y = b.services[v];
        EXPECT_EQ(x.arrivals, y.arrivals);
        EXPECT_EQ(x.completions, y.completions);
        EXPECT_EQ(x.dropped, y.dropped);
        EXPECT_EQ(x.rejected, y.rejected);
        EXPECT_EQ(x.p50_ms, y.p50_ms);
        EXPECT_EQ(x.p99_ms, y.p99_ms);
        EXPECT_EQ(x.failed_inflight, y.failed_inflight);
        EXPECT_EQ(x.sla_violations, y.sla_violations);
        EXPECT_EQ(x.sla_violation_rate, y.sla_violation_rate);
        EXPECT_EQ(x.active_shards, y.active_shards);
    }
}

/**
 * Every field of two run results, bit for bit, except the wall-clock
 * provenance in `des`.
 */
void
expectSameClusterResult(const ClusterSimResult& a, const ClusterSimResult& b)
{
    ASSERT_EQ(a.intervals.size(), b.intervals.size());
    for (size_t i = 0; i < a.intervals.size(); ++i) {
        SCOPED_TRACE("interval " + std::to_string(i));
        expectSameInterval(a.intervals[i], b.intervals[i]);
    }
    EXPECT_EQ(a.injected, b.injected);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.dropped, b.dropped);
    EXPECT_EQ(a.rejected, b.rejected);
    EXPECT_EQ(a.failed_inflight, b.failed_inflight);
    EXPECT_EQ(a.admission_retries, b.admission_retries);
    EXPECT_EQ(a.mean_ms, b.mean_ms);
    EXPECT_EQ(a.p50_ms, b.p50_ms);
    EXPECT_EQ(a.p95_ms, b.p95_ms);
    EXPECT_EQ(a.p99_ms, b.p99_ms);
    EXPECT_EQ(a.max_ms, b.max_ms);
    EXPECT_EQ(a.sla_violations, b.sla_violations);
    EXPECT_EQ(a.sla_violation_rate, b.sla_violation_rate);
    EXPECT_EQ(a.avg_consumed_power_w, b.avg_consumed_power_w);
    EXPECT_EQ(a.peak_consumed_power_w, b.peak_consumed_power_w);
    EXPECT_EQ(a.avg_provisioned_power_w, b.avg_provisioned_power_w);
    EXPECT_EQ(a.peak_provisioned_power_w, b.peak_provisioned_power_w);
    ASSERT_EQ(a.services.size(), b.services.size());
    for (size_t v = 0; v < a.services.size(); ++v) {
        const ServiceRunStats& x = a.services[v];
        const ServiceRunStats& y = b.services[v];
        EXPECT_EQ(x.injected, y.injected);
        EXPECT_EQ(x.completed, y.completed);
        EXPECT_EQ(x.dropped, y.dropped);
        EXPECT_EQ(x.rejected, y.rejected);
        EXPECT_EQ(x.failed_inflight, y.failed_inflight);
        EXPECT_EQ(x.p50_ms, y.p50_ms);
        EXPECT_EQ(x.p99_ms, y.p99_ms);
        EXPECT_EQ(x.max_ms, y.max_ms);
        EXPECT_EQ(x.sla_ms, y.sla_ms);
        EXPECT_EQ(x.sla_violations, y.sla_violations);
        EXPECT_EQ(x.sla_violation_rate, y.sla_violation_rate);
    }
    ASSERT_EQ(a.health_transitions.size(), b.health_transitions.size());
    for (size_t i = 0; i < a.health_transitions.size(); ++i) {
        const HealthTransition& x = a.health_transitions[i];
        const HealthTransition& y = b.health_transitions[i];
        EXPECT_EQ(x.t_s, y.t_s);
        EXPECT_EQ(x.shard, y.shard);
        EXPECT_EQ(x.service, y.service);
        EXPECT_EQ(x.from, y.from);
        EXPECT_EQ(x.to, y.to);
        EXPECT_EQ(x.slowdown, y.slowdown);
        EXPECT_EQ(x.killed_inflight, y.killed_inflight);
    }
    EXPECT_EQ(a.des.events_executed, b.des.events_executed);
    EXPECT_EQ(a.des.peak_event_queue_depth, b.des.peak_event_queue_depth);
    EXPECT_EQ(a.des.peak_live_queries, b.des.peak_live_queries);
}

/** Every field of two telemetry trace logs, bit for bit. */
void
expectSameTraceRecords(const std::vector<obs::TraceRecord>& a,
                       const std::vector<obs::TraceRecord>& b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE("record " + std::to_string(i));
        EXPECT_EQ(a[i].id, b[i].id);
        EXPECT_EQ(a[i].service, b[i].service);
        EXPECT_EQ(a[i].shard, b[i].shard);
        EXPECT_EQ(a[i].retry_hops, b[i].retry_hops);
        EXPECT_EQ(a[i].arrival_s, b[i].arrival_s);
        EXPECT_EQ(a[i].queue_wait_ms, b[i].queue_wait_ms);
        EXPECT_EQ(a[i].service_start_s, b[i].service_start_s);
        EXPECT_EQ(a[i].finish_s, b[i].finish_s);
        EXPECT_EQ(a[i].outcome, b[i].outcome);
    }
}

/** A flat two-service load near the shards' capacity. */
std::vector<workload::Query>
flatTwoServiceTrace(double seconds)
{
    std::vector<workload::ServiceTraceSpec> specs(2);
    specs[0].load.peak_qps = 2400.0;
    specs[1].load.peak_qps = 1300.0;
    for (workload::ServiceTraceSpec& sp : specs) {
        sp.load.trough_frac = 1.0;
        sp.load.noise_frac = 0.0;
    }
    workload::TraceOptions topt;
    topt.horizon_hours = seconds / 3600.0;
    topt.bucket_seconds = 1.0;
    topt.seed = 11;
    return workload::generateMultiServiceTrace(specs, topt);
}

/*
 * route() advances only the shards its decision reads, each just
 * before it reads it (and the picked one before the inject);
 * advancing every shard to every arrival first must change nothing,
 * for every policy, with and without deadline admission (with
 * cross-shard retries) and with a crash (and a straggler)
 * mid-interval. Both sims are driven interval by interval through the
 * public API; a final run() over no arrivals drains them and folds the
 * whole-run aggregates. Every window, every tally, every health-log
 * entry and every query's telemetry record (shard, retry hops, start,
 * finish, outcome) must match.
 */
TEST(ClusterSim, LazyAdvanceMatchesEagerAdvance)
{
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    PreparedWorkload big = prepare(hw::serverSpec(ServerType::T2), m,
                                   cpuConfig(4, 2, 128));
    PreparedWorkload small = prepare(hw::serverSpec(ServerType::T2), m,
                                     cpuConfig(2, 1, 64));
    const double interval_s = 0.25;
    const std::vector<workload::Query> trace = flatTwoServiceTrace(1.5);
    ASSERT_GT(trace.size(), 3000u);

    const std::vector<RouterPolicy> policies = {
        RouterPolicy::RoundRobin, RouterPolicy::LeastOutstanding,
        RouterPolicy::PowerOfTwo, RouterPolicy::HerculesWeighted,
        RouterPolicy::LatencyFeedback};
    for (RouterPolicy policy : policies)
        for (qos::AdmissionPolicy admission :
             {qos::AdmissionPolicy::None, qos::AdmissionPolicy::Deadline})
            for (bool crash : {false, true}) {
                SCOPED_TRACE(std::string(routerPolicyName(policy)) +
                             (admission == qos::AdmissionPolicy::None
                                  ? " none"
                                  : " deadline") +
                             (crash ? " crash" : ""));
                auto drive = [&](bool eager,
                                 std::vector<IntervalStats>* windows,
                                 obs::Telemetry* telemetry) {
                    ClusterSim::Options copt;
                    copt.router = policy;
                    copt.sla_ms = 4.0;
                    copt.admission.policy = admission;
                    copt.admission.cross_shard_retry = true;
                    copt.telemetry = telemetry;
                    auto cluster = std::make_unique<ClusterSim>(copt);
                    cluster->addShard(big, 1200.0, 0);
                    cluster->addShard(small, 500.0, 0);
                    cluster->addShard(big, 1200.0, 0);
                    cluster->addShard(small, 500.0, 1);
                    cluster->addShard(big, 1200.0, 1);
                    if (crash)
                        cluster->scheduleHealth({
                            {0.31, 2, fault::HealthState::Failed, 1.0},
                            {0.52, 4, fault::HealthState::Degraded, 3.0},
                            {0.83, 2, fault::HealthState::Healthy, 1.0},
                        });
                    size_t next = 0;
                    for (int k = 0; next < trace.size(); ++k) {
                        const double t0 = k * interval_s;
                        const double t1 = t0 + interval_s;
                        cluster->applyHealthEventsUpTo(t0);
                        for (; next < trace.size() &&
                               trace[next].arrival_s < t1;
                             ++next) {
                            const workload::Query& q = trace[next];
                            if (eager) {
                                cluster->applyHealthEventsUpTo(q.arrival_s);
                                cluster->advanceTo(q.arrival_s);
                            }
                            cluster->route(q);
                        }
                        cluster->applyHealthEventsUpTo(
                            std::nextafter(t1, t0));
                        cluster->advanceTo(t1);
                        windows->push_back(cluster->harvest(t0, t1));
                    }
                    ClusterSimResult r = cluster->run(
                        std::vector<workload::Query>{}, interval_s);
                    EXPECT_EQ(r.injected + r.dropped + r.rejected,
                              trace.size());
                    return r;
                };
                obs::ObsSpec spec;
                spec.trace_file = "lazy_advance_trace.jsonl";
                obs::Telemetry lazy_tel(spec), eager_tel(spec);
                std::vector<IntervalStats> lazy_w, eager_w;
                ClusterSimResult lazy = drive(false, &lazy_w, &lazy_tel);
                ClusterSimResult eager = drive(true, &eager_w, &eager_tel);
                ASSERT_EQ(lazy_w.size(), eager_w.size());
                for (size_t i = 0; i < lazy_w.size(); ++i) {
                    SCOPED_TRACE("window " + std::to_string(i));
                    expectSameInterval(lazy_w[i], eager_w[i]);
                }
                expectSameClusterResult(lazy, eager);
                expectSameTraceRecords(lazy_tel.traceRecords(),
                                       eager_tel.traceRecords());
                EXPECT_EQ(lazy_tel.traceRecords().size(), trace.size());
                if (admission == qos::AdmissionPolicy::Deadline) {
                    EXPECT_GT(lazy.rejected, 0u);
                    EXPECT_GT(lazy.admission_retries, 0u);
                }
                if (crash) {
                    EXPECT_GT(lazy.failed_inflight, 0u);
                }
            }
}

/*
 * run() over a lazily generated arrival stream equals run() over the
 * same trace materialised, including interval boundaries that fall
 * exactly on arrivals and the trailing horizon intervals.
 */
TEST(ClusterSim, StreamedRunMatchesVectorRun)
{
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    PreparedWorkload w = prepare(hw::serverSpec(ServerType::T2), m,
                                 cpuConfig(4, 2, 128));
    auto makeCluster = [&]() {
        ClusterSim::Options copt;
        copt.router = RouterPolicy::HerculesWeighted;
        auto c = std::make_unique<ClusterSim>(copt);
        c->addShard(w, 1200.0, 0);
        c->addShard(w, 900.0, 0);
        c->addShard(w, 1200.0, 1);
        return c;
    };
    const double interval_s = 0.25;
    std::vector<workload::ServiceTraceSpec> specs(2);
    specs[0].load.peak_qps = 1800.0;
    specs[1].load.peak_qps = 700.0;
    workload::TraceOptions topt;
    topt.horizon_hours = 1.0 / 3600.0;
    topt.bucket_seconds = 0.5;
    topt.seed = 5;
    std::vector<workload::Query> trace =
        workload::generateMultiServiceTrace(specs, topt);
    ASSERT_GT(trace.size(), 1000u);
    workload::MergedArrivals arrivals =
        workload::multiServiceArrivals(specs, topt);
    ClusterSimResult streamed =
        makeCluster()->run(arrivals, interval_s, nullptr, 2.0);
    ClusterSimResult vectored =
        makeCluster()->run(trace, interval_s, nullptr, 2.0);
    expectSameClusterResult(streamed, vectored);
    EXPECT_EQ(streamed.injected, trace.size());
    EXPECT_GE(streamed.intervals.size(), 8u);

    // Arrivals exactly on interval boundaries open the next window.
    std::vector<workload::Query> on_edges = uniformTrace(400, 0.0025);
    for (size_t i = 0; i < on_edges.size(); ++i)
        on_edges[i].arrival_s = interval_s * static_cast<double>(i / 100) +
                                0.0025 * static_cast<double>(i % 100);
    workload::VectorArrivals edge_stream(on_edges);
    ClusterSimResult a = makeCluster()->run(edge_stream, interval_s);
    ClusterSimResult b = makeCluster()->run(on_edges, interval_s);
    expectSameClusterResult(a, b);
    ASSERT_GE(a.intervals.size(), 4u);
    EXPECT_EQ(a.intervals[0].arrivals, 100u);
}

/** A flat three-service load. */
std::vector<workload::Query>
flatThreeServiceTrace(double seconds)
{
    std::vector<workload::ServiceTraceSpec> specs(3);
    specs[0].load.peak_qps = 2000.0;
    specs[1].load.peak_qps = 1200.0;
    specs[2].load.peak_qps = 1500.0;
    for (workload::ServiceTraceSpec& sp : specs) {
        sp.load.trough_frac = 1.0;
        sp.load.noise_frac = 0.0;
    }
    workload::TraceOptions topt;
    topt.horizon_hours = seconds / 3600.0;
    topt.bucket_seconds = 1.0;
    topt.seed = 23;
    return workload::generateMultiServiceTrace(specs, topt);
}

/*
 * When the routing decision reads no shard state, run() decides each
 * interval serially and delivers it to the shards on a thread pool,
 * one task per PreparedWorkload. The oracle is the same setup with
 * queue_cap admission at a cap no queue reaches: admission reads the
 * shards, so each arrival is delivered as soon as it is decided, and
 * it refuses nothing. Every result field, every window and every
 * telemetry record must match. The setup has three workloads carrying
 * load (two of them shared by several shards), a plan that releases
 * shards and brings them back, a crash and its recovery inside one
 * interval, and a straggler whose onset falls exactly on an arrival.
 */
TEST(ParallelReplay, MatchesPerArrivalDelivery)
{
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    PreparedWorkload big = prepare(hw::serverSpec(ServerType::T2), m,
                                   cpuConfig(4, 2, 128));
    PreparedWorkload small = prepare(hw::serverSpec(ServerType::T2), m,
                                     cpuConfig(2, 1, 64));
    PreparedWorkload mid = prepare(hw::serverSpec(ServerType::T2), m,
                                   cpuConfig(3, 2, 96));
    const double interval_s = 0.25;
    const std::vector<workload::Query> trace = flatThreeServiceTrace(1.5);
    ASSERT_GT(trace.size(), 5000u);
    // The straggler's onset: the first arrival at or after 0.8 s.
    size_t onset = 0;
    while (trace[onset].arrival_s < 0.8)
        ++onset;
    const std::vector<HealthEvent> health = {
        {0.31, 6, fault::HealthState::Failed, 1.0},
        {0.43, 6, fault::HealthState::Healthy, 1.0},
        {trace[onset].arrival_s, 3, fault::HealthState::Degraded, 2.5},
        {1.1, 3, fault::HealthState::Healthy, 1.0},
    };
    // Intervals 1 and 4 release shards 1 and 4; the others bring them
    // back.
    auto plan = [](int k, double) {
        IntervalPlan p;
        for (int id = 0; id < 7; ++id)
            if (k % 3 != 1 || (id != 1 && id != 4))
                p.active.push_back(id);
        return p;
    };

    for (RouterPolicy policy :
         {RouterPolicy::RoundRobin, RouterPolicy::HerculesWeighted,
          RouterPolicy::LatencyFeedback}) {
        SCOPED_TRACE(routerPolicyName(policy));
        auto replay = [&](qos::AdmissionPolicy admission,
                          obs::Telemetry* telemetry) {
            ClusterSim::Options copt;
            copt.router = policy;
            copt.sla_ms = 4.0;
            copt.admission.policy = admission;
            copt.admission.queue_cap = size_t{1} << 40;
            copt.telemetry = telemetry;
            ClusterSim cluster(copt);
            cluster.addShard(big, 1200.0, 0);
            cluster.addShard(big, 1200.0, 0);
            cluster.addShard(small, 500.0, 0);
            cluster.addShard(small, 500.0, 1);
            cluster.addShard(mid, 900.0, 1);
            cluster.addShard(mid, 900.0, 2);
            cluster.addShard(big, 1200.0, 2);
            cluster.scheduleHealth(health);
            return cluster.run(trace, interval_s, plan);
        };
        obs::ObsSpec spec;
        spec.trace_file = "parallel_replay_trace.jsonl";
        obs::Telemetry batched_tel(spec), oracle_tel(spec);
        const ClusterSimResult batched =
            replay(qos::AdmissionPolicy::None, &batched_tel);
        const ClusterSimResult oracle =
            replay(qos::AdmissionPolicy::QueueCap, &oracle_tel);
        expectSameClusterResult(batched, oracle);
        expectSameTraceRecords(batched_tel.traceRecords(),
                               oracle_tel.traceRecords());
        EXPECT_EQ(oracle.rejected, 0u);
        EXPECT_EQ(batched.injected, trace.size());
        EXPECT_GT(batched.failed_inflight, 0u);
        ASSERT_EQ(batched.health_transitions.size(), 4u);
        ASSERT_EQ(batched.services.size(), 3u);
        for (const ServiceRunStats& sv : batched.services)
            EXPECT_GT(sv.completed, 1000u);
    }
}

/** The whole content of a file ("" when it cannot be read). */
std::string
readFile(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/*
 * run() harvests each window with a per-shard extract on its pool and
 * a serial merge. The oracle drives the same cluster serially through
 * the public API: the plan and the boundary health events at t0,
 * route() per arrival, the health events left inside the window,
 * advanceTo(t1), then harvest() (whose extract is a plain loop), and
 * the telemetry samples run() takes. Every window, every trace record
 * and the metrics export must match. The run-level slices are checked
 * against the windows (counts) and the trace records (tails), with
 * every query traced: the run's bucket-counted percentiles against a
 * plain selection over the same latencies.
 */
TEST(ParallelReplay, MatchesSerialHarvestDrive)
{
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    PreparedWorkload big = prepare(hw::serverSpec(ServerType::T2), m,
                                   cpuConfig(4, 2, 128));
    PreparedWorkload small = prepare(hw::serverSpec(ServerType::T2), m,
                                     cpuConfig(2, 1, 64));
    PreparedWorkload mid = prepare(hw::serverSpec(ServerType::T2), m,
                                   cpuConfig(3, 2, 96));
    const double interval_s = 0.25;
    const std::vector<workload::Query> trace = flatThreeServiceTrace(1.5);
    // A crash after interval 4's last arrival, which the drive applies
    // before its harvest, not at a route().
    double last_before = 0.0;
    for (const workload::Query& q : trace)
        if (q.arrival_s < 5 * interval_s)
            last_before = q.arrival_s;
    // A crash and its recovery inside one interval, and a straggler.
    const std::vector<HealthEvent> health = {
        {0.31, 6, fault::HealthState::Failed, 1.0},
        {0.43, 6, fault::HealthState::Healthy, 1.0},
        {0.8, 3, fault::HealthState::Degraded, 2.5},
        {1.1, 3, fault::HealthState::Healthy, 1.0},
        {(last_before + 5 * interval_s) / 2, 0, fault::HealthState::Failed,
         1.0},
    };
    // Intervals 1 and 4 release shards 1 and 4.
    auto plan = [](int k, double) {
        IntervalPlan p;
        for (int id = 0; id < 7; ++id)
            if (k % 3 != 1 || (id != 1 && id != 4))
                p.active.push_back(id);
        p.provisioned_power_w = 100.0 * k;
        return p;
    };
    // run()'s interval-boundary telemetry sample.
    auto sample = [](ClusterSim& c, obs::Telemetry& tel,
                     const IntervalStats& st) {
        for (size_t i = 0; i < c.numShards(); ++i) {
            const int id = static_cast<int>(i);
            tel.setShardWindow(id, c.outstanding(id),
                               static_cast<int>(c.shardHealth(id)));
        }
        for (size_t v = 0; v < st.services.size(); ++v)
            tel.setServiceWindow(static_cast<int>(v), st.services[v].p50_ms,
                                 st.services[v].p99_ms,
                                 st.services[v].sla_violation_rate);
        tel.setClusterWindow(st.active_shards, st.consumed_power_w,
                             st.provisioned_power_w);
        tel.commitSample(st.t1_s);
    };

    for (auto [policy, admission] :
         {std::pair{RouterPolicy::HerculesWeighted, qos::AdmissionPolicy::None},
          std::pair{RouterPolicy::LatencyFeedback, qos::AdmissionPolicy::None},
          std::pair{RouterPolicy::LatencyFeedback,
                    qos::AdmissionPolicy::Deadline}}) {
        SCOPED_TRACE(std::string(routerPolicyName(policy)) + " admission " +
                     std::to_string(static_cast<int>(admission)));
        auto build = [&](obs::Telemetry* telemetry) {
            ClusterSim::Options copt;
            copt.router = policy;
            copt.sla_ms = 4.0;
            copt.admission.policy = admission;
            copt.telemetry = telemetry;
            auto c = std::make_unique<ClusterSim>(copt);
            c->addShard(big, 1200.0, 0);
            c->addShard(big, 1200.0, 0);
            c->addShard(small, 500.0, 0);
            c->addShard(small, 500.0, 1);
            c->addShard(mid, 900.0, 1);
            c->addShard(mid, 900.0, 2);
            c->addShard(big, 1200.0, 2);
            c->scheduleHealth(health);
            return c;
        };
        obs::ObsSpec spec;
        spec.trace_file = "parallel_replay_trace.jsonl";
        obs::Telemetry run_tel(spec), drive_tel(spec);
        const ClusterSimResult r =
            build(&run_tel)->run(trace, interval_s, plan);

        std::unique_ptr<ClusterSim> c = build(&drive_tel);
        std::vector<IntervalStats> windows;
        size_t next = 0;
        int k = 0;
        for (; next < trace.size(); ++k) {
            const double t0 = static_cast<double>(k) * interval_s;
            const double t1 = t0 + interval_s;
            c->applyHealthEventsUpTo(t0);
            const IntervalPlan p = plan(k, t0);
            std::vector<char> want(c->numShards(), 0);
            for (int id : p.active)
                want[static_cast<size_t>(id)] = 1;
            for (size_t id = 0; id < c->numShards(); ++id)
                c->setActive(static_cast<int>(id), want[id] != 0, t0);
            for (; next < trace.size() && trace[next].arrival_s < t1; ++next)
                c->route(trace[next]);
            c->applyHealthEventsUpTo(std::nextafter(t1, t0));
            c->advanceTo(t1);
            IntervalStats st = c->harvest(t0, t1);
            st.provisioned_power_w = p.provisioned_power_w;
            st.budget_power_w = p.budget_power_w;
            st.power_capped = p.power_capped;
            sample(*c, drive_tel, st);
            windows.push_back(st);
        }
        // The drain tail runs from the last interval's end to the last
        // shard clock, which the public API does not expose: take that
        // end from run()'s tail window.
        c->advanceTo(std::numeric_limits<double>::infinity());
        const double tail_start = static_cast<double>(k) * interval_s;
        ASSERT_EQ(r.intervals.size(), windows.size() + 1);
        ASSERT_EQ(r.intervals.back().t0_s, tail_start);
        IntervalStats tail = c->harvest(tail_start, r.intervals.back().t1_s);
        EXPECT_GT(tail.completions, 0u);
        sample(*c, drive_tel, tail);
        windows.push_back(tail);

        ASSERT_EQ(r.intervals.size(), windows.size());
        for (size_t i = 0; i < windows.size(); ++i) {
            SCOPED_TRACE("interval " + std::to_string(i));
            expectSameInterval(r.intervals[i], windows[i]);
        }
        expectSameTraceRecords(run_tel.traceRecords(),
                               drive_tel.traceRecords());
        const std::string run_metrics =
            ::testing::TempDir() + "parallel_replay_run_metrics.json";
        const std::string drive_metrics =
            ::testing::TempDir() + "parallel_replay_drive_metrics.json";
        ASSERT_TRUE(run_tel.metrics().writeFile(run_metrics));
        ASSERT_TRUE(drive_tel.metrics().writeFile(drive_metrics));
        const std::string exported = readFile(run_metrics);
        EXPECT_FALSE(exported.empty());
        EXPECT_EQ(exported, readFile(drive_metrics));
        std::remove(run_metrics.c_str());
        std::remove(drive_metrics.c_str());

        // Run-level slices: counts from the windows, which partition
        // the run, and tails from every traced completion.
        const size_t num_services = r.services.size();
        ASSERT_EQ(num_services, 3u);
        std::vector<Tally> tallies(num_services);
        for (const IntervalStats& w : windows)
            for (size_t v = 0; v < num_services; ++v) {
                const ServiceIntervalStats& s = w.services[v];
                const size_t shed = s.dropped + s.rejected + s.failed_inflight;
                tallies[v] += Tally{s.arrivals,        s.completions,
                                    s.dropped,         s.rejected,
                                    s.failed_inflight, s.sla_violations - shed};
            }
        std::vector<std::vector<double>> latencies(num_services);
        std::vector<double> all;
        for (const obs::TraceRecord& rec : run_tel.traceRecords())
            if (rec.outcome == obs::TraceOutcome::Completed) {
                const double ms = (rec.finish_s - rec.arrival_s) * 1e3;
                latencies[static_cast<size_t>(rec.service)].push_back(ms);
                all.push_back(ms);
            }
        for (size_t v = 0; v < num_services; ++v) {
            SCOPED_TRACE("service " + std::to_string(v));
            const ServiceRunStats& sv = r.services[v];
            const Tally& t = tallies[v];
            EXPECT_EQ(sv.injected, t.injected);
            EXPECT_EQ(sv.completed, t.completed);
            EXPECT_EQ(sv.dropped, t.dropped);
            EXPECT_EQ(sv.rejected, t.rejected);
            EXPECT_EQ(sv.failed_inflight, t.failed_inflight);
            EXPECT_EQ(sv.sla_violations, t.slaViolations());
            EXPECT_EQ(sv.sla_violation_rate, t.violationRate());
            EXPECT_EQ(sv.sla_ms, c->slaMs(static_cast<int>(v)));
            ASSERT_EQ(latencies[v].size(), sv.completed);
            EXPECT_EQ(sv.p50_ms, nearestRankPercentile(latencies[v], 50.0));
            EXPECT_EQ(sv.p99_ms, nearestRankPercentile(latencies[v], 99.0));
            EXPECT_EQ(sv.max_ms, *std::max_element(latencies[v].begin(),
                                                   latencies[v].end()));
        }
        ASSERT_EQ(all.size(), r.completed);
        EXPECT_EQ(r.p50_ms, nearestRankPercentile(all, 50.0));
        EXPECT_EQ(r.p95_ms, nearestRankPercentile(all, 95.0));
        EXPECT_EQ(r.p99_ms, nearestRankPercentile(all, 99.0));
        EXPECT_EQ(r.max_ms, *std::max_element(all.begin(), all.end()));
        EXPECT_GT(r.failed_inflight, 0u);
        if (admission == qos::AdmissionPolicy::Deadline) {
            EXPECT_GT(r.rejected, 0u);
        }
    }
}

/** sla_violations / (completed + dropped + rejected + failed), or 0. */
double
expectedRate(size_t violations, size_t completed, size_t dropped,
             size_t rejected, size_t failed_inflight)
{
    const size_t outcomes = completed + dropped + rejected + failed_inflight;
    return outcomes > 0 ? static_cast<double>(violations) /
                              static_cast<double>(outcomes)
                        : 0.0;
}

TEST(Tally, ArithmeticAndEmptyRate)
{
    EXPECT_EQ(Tally{}.violationRate(), 0.0);
    EXPECT_EQ(Tally{}.slaViolations(), 0u);
    const Tally a{10, 7, 1, 2, 1, 3};
    const Tally b{4, 3, 2, 0, 1, 1};
    EXPECT_EQ(a.slaViolations(), 3u + 1u + 2u + 1u);
    EXPECT_EQ(a.violationRate(), expectedRate(7, 7, 1, 2, 1));
    Tally c = a;
    const Tally d = (c += b) - b;
    for (auto field : {&Tally::injected, &Tally::completed, &Tally::dropped,
                       &Tally::rejected, &Tally::failed_inflight,
                       &Tally::late}) {
        EXPECT_EQ(d.*field, a.*field);
        EXPECT_EQ(c.*field, a.*field + b.*field);
    }
}

/*
 * The interval windows partition the run: for every service and for
 * the cluster, each outcome count summed over the windows equals the
 * run's count, and every rate follows the one violation rule. The
 * replay drops (a dark interval), rejects (deadline admission) and
 * kills (a scripted crash), so no count is vacuously zero.
 */
TEST(ClusterSim, WindowsPartitionTheRun)
{
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    PreparedWorkload big = prepare(hw::serverSpec(ServerType::T2), m,
                                   cpuConfig(4, 2, 128));
    PreparedWorkload small = prepare(hw::serverSpec(ServerType::T2), m,
                                     cpuConfig(2, 1, 64));
    ClusterSim::Options copt;
    copt.router = RouterPolicy::HerculesWeighted;
    copt.sla_ms = 4.0;
    copt.admission.policy = qos::AdmissionPolicy::Deadline;
    ClusterSim cluster(copt);
    cluster.addShard(big, 1200.0, 0);
    cluster.addShard(small, 500.0, 0);
    cluster.addShard(big, 1200.0, 0);
    cluster.addShard(small, 500.0, 1);
    cluster.addShard(big, 1200.0, 1);
    cluster.scheduleHealth({{0.31, 2, fault::HealthState::Failed, 1.0},
                            {0.6, 2, fault::HealthState::Healthy, 1.0}});
    auto plan = [](int k, double) {
        IntervalPlan p;
        if (k != 3)  // [0.75, 1.0) is dark: every arrival drops
            p.active = {0, 1, 2, 3, 4};
        return p;
    };
    const std::vector<workload::Query> trace = flatTwoServiceTrace(1.5);
    ClusterSimResult r = cluster.run(trace, 0.25, plan);
    EXPECT_GT(r.dropped, 0u);
    EXPECT_GT(r.rejected, 0u);
    EXPECT_GT(r.failed_inflight, 0u);
    EXPECT_EQ(r.injected + r.dropped + r.rejected, trace.size());

    using Counts = std::vector<size_t>;
    auto windowCounts = [](const ServiceIntervalStats& w) {
        return Counts{w.arrivals, w.completions, w.dropped,
                      w.rejected, w.failed_inflight, w.sla_violations};
    };
    auto runCounts = [](const RunStats& s) {
        return Counts{s.injected, s.completed, s.dropped,
                      s.rejected, s.failed_inflight, s.sla_violations};
    };
    auto add = [](Counts& acc, const Counts& x) {
        for (size_t i = 0; i < acc.size(); ++i)
            acc[i] += x[i];
    };
    auto expectRule = [](const auto& st, const Counts& c) {
        EXPECT_EQ(st.sla_violation_rate,
                  expectedRate(c[5], c[1], c[2], c[3], c[4]));
    };
    ASSERT_EQ(r.services.size(), 2u);
    Counts cluster_sum(6, 0);
    std::vector<Counts> service_sum(2, Counts(6, 0));
    for (const IntervalStats& iv : r.intervals) {
        add(cluster_sum, windowCounts(iv));
        expectRule(iv, windowCounts(iv));
        ASSERT_EQ(iv.services.size(), 2u);
        for (size_t v = 0; v < 2; ++v) {
            add(service_sum[v], windowCounts(iv.services[v]));
            expectRule(iv.services[v], windowCounts(iv.services[v]));
        }
    }
    EXPECT_EQ(cluster_sum, runCounts(r));
    expectRule(r, runCounts(r));
    for (size_t v = 0; v < 2; ++v) {
        SCOPED_TRACE("service " + std::to_string(v));
        EXPECT_EQ(service_sum[v], runCounts(r.services[v]));
        expectRule(r.services[v], runCounts(r.services[v]));
    }
}

}  // namespace
}  // namespace hercules::sim
