/**
 * @file
 * Streaming replay keeps live state bounded: ClusterSim::run holds one
 * interval's arrivals, each shard compacts its retired query state and
 * drops harvested completions, so the live per-query record count
 * (obs::DesProfile::peak_live_queries) tracks the arrival rate times
 * the interval, not the horizon.
 */
#include <gtest/gtest.h>

#include "sim/cluster_sim.h"
#include "sim/prepared.h"
#include "workload/trace_gen.h"

namespace hercules::sim {
namespace {

/** Replay `seconds` of a flat 2,000 QPS load on four shards. */
ClusterSimResult
replayFlat(const PreparedWorkload& w, double seconds)
{
    workload::DiurnalConfig dc;
    dc.peak_qps = 2000.0;
    dc.trough_frac = 1.0;  // flat: every interval carries the same rate
    dc.noise_frac = 0.0;
    workload::TraceOptions topt;
    topt.horizon_hours = seconds / 3600.0;
    topt.bucket_seconds = 5.0;
    topt.seed = 3;
    workload::TraceGenerator arrivals(workload::DiurnalLoad(dc), topt);

    ClusterSim::Options copt;
    copt.router = RouterPolicy::HerculesWeighted;
    ClusterSim cluster(copt);
    for (int i = 0; i < 4; ++i)
        cluster.addShard(w, 1000.0);
    return cluster.run(arrivals, 5.0);
}

TEST(ReplayMemory, LiveStateIsBoundedByIntervalNotHorizon)
{
    model::Model m = model::buildModel(model::ModelId::DlrmRmc1);
    sched::SchedulingConfig cfg;
    cfg.mapping = sched::Mapping::CpuModelBased;
    cfg.cpu_threads = 4;
    cfg.cores_per_thread = 2;
    cfg.batch = 128;
    PreparedWorkload w = prepare(hw::serverSpec(hw::ServerType::T2), m, cfg);

    const ClusterSimResult r1 = replayFlat(w, 40.0);
    const ClusterSimResult r2 = replayFlat(w, 80.0);
    const ClusterSimResult r4 = replayFlat(w, 160.0);
    const double q1 = static_cast<double>(r1.injected);
    const double q4 = static_cast<double>(r4.injected);
    ASSERT_GT(r1.injected, 70000u);  // > kCompactMinSlots per shard
    EXPECT_NEAR(q4 / q1, 4.0, 0.2);
    EXPECT_EQ(r4.completed, r4.injected);

    const double live1 = static_cast<double>(r1.des.peak_live_queries);
    const double live2 = static_cast<double>(r2.des.peak_live_queries);
    const double live4 = static_cast<double>(r4.des.peak_live_queries);
    RecordProperty("peak_live_1x", static_cast<int>(live1));
    RecordProperty("peak_live_2x", static_cast<int>(live2));
    RecordProperty("peak_live_4x", static_cast<int>(live4));
    // At least one interval's arrivals are live at its end...
    EXPECT_GE(live1, 2000.0 * 5.0 * 0.9);
    // ...but the count does not grow with the horizon.
    EXPECT_LE(live2, 1.25 * live1);
    EXPECT_LE(live4, 1.25 * live1);
    EXPECT_LT(live4, q4 / 4.0);
}

}  // namespace
}  // namespace hercules::sim
