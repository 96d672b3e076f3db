/**
 * @file
 * Tests of the roofline + list-scheduling cost model: monotonicity,
 * dependency-chain idling (the Fig 5 effect), bandwidth contention
 * (Fig 4), NMP offload, GPU batch efficiency (the fusion lever) and
 * PCIe accounting.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "hw/calibration.h"
#include "hw/cost_model.h"
#include "model/partition.h"

namespace hercules::hw {
namespace {

using model::Model;
using model::ModelId;

TEST(Bandwidth, InterferenceDegradesTotal)
{
    CostModel cost(serverSpec(ServerType::T2));
    EXPECT_GT(cost.effectiveHostBwGbps(1),
              cost.effectiveHostBwGbps(20));
}

TEST(Bandwidth, PerThreadShareShrinks)
{
    CostModel cost(serverSpec(ServerType::T2));
    EXPECT_GT(cost.perThreadBwGbps(2), cost.perThreadBwGbps(10));
    // More threads still deliver more aggregate bandwidth than one.
    EXPECT_GT(cost.effectiveHostBwGbps(10) / 10.0 * 10.0,
              cost.perThreadBwGbps(1) * 0.5);
}

TEST(Bandwidth, T1RankHandicap)
{
    // CPU-T1 has 4 ranks vs CPU-T2's 8: lower effective gather BW.
    CostModel t1(serverSpec(ServerType::T1));
    CostModel t2(serverSpec(ServerType::T2));
    EXPECT_LT(t1.effectiveHostBwGbps(1), t2.effectiveHostBwGbps(1));
}

TEST(CpuOp, FcLatencyScalesWithBatchAndWidth)
{
    CostModel cost(serverSpec(ServerType::T2));
    model::Graph g;
    int fc = g.addNode("fc", model::FcParams{256, 128},
                       model::Stage::Dense);
    int wide = g.addNode("wide", model::FcParams{2560, 512},
                         model::Stage::Dense);
    CpuExecContext cx;
    cx.mem_bw_gbps = 10.0;
    double small = cost.cpuOpLatencyUs(g.node(fc), 64, cx);
    double bigger_batch = cost.cpuOpLatencyUs(g.node(fc), 256, cx);
    double wider = cost.cpuOpLatencyUs(g.node(wide), 64, cx);
    EXPECT_GT(bigger_batch, small);
    EXPECT_GT(wider, small);
}

TEST(CpuOp, EmbeddingBandwidthBound)
{
    CostModel cost(serverSpec(ServerType::T2));
    model::EmbeddingParams e;
    e.rows = 1'000'000;
    e.emb_dim = 32;
    e.pooling_min = e.pooling_max = 80;
    e.pooled = true;
    model::Graph g;
    g.addNode("e", e, model::Stage::Sparse);
    CpuExecContext lo, hi;
    lo.mem_bw_gbps = 2.0;
    hi.mem_bw_gbps = 8.0;
    double slow = cost.cpuOpLatencyUs(g.node(0), 128, lo);
    double fast = cost.cpuOpLatencyUs(g.node(0), 128, hi);
    EXPECT_GT(slow, fast);
    // Roughly inverse in bandwidth (minus fixed overhead).
    EXPECT_NEAR((slow - calib::kCpuOpOverheadUs) /
                    (fast - calib::kCpuOpOverheadUs),
                4.0, 0.5);
}

TEST(CpuGraph, MoreWorkersNeverSlower)
{
    CostModel cost(serverSpec(ServerType::T2));
    Model m = model::buildModel(ModelId::DlrmRmc1);
    CpuExecContext cx;
    cx.mem_bw_gbps = 5.0;
    double prev = 1e300;
    for (int workers : {1, 2, 3, 4}) {
        cx.workers = workers;
        double lat = cost.cpuGraphTiming(m.graph, 64, cx).latency_us;
        EXPECT_LE(lat, prev + 1e-6) << workers << " workers";
        prev = lat;
    }
}

TEST(CpuGraph, IdleFractionGrowsWithWorkers)
{
    // Fig 5: operator dependencies leave op-workers idle; idle cycles
    // grow with the number of parallel workers.
    CostModel cost(serverSpec(ServerType::T2));
    Model m = model::buildModel(ModelId::DlrmRmc1);
    CpuExecContext cx;
    cx.mem_bw_gbps = 5.0;
    cx.workers = 1;
    double idle1 = cost.cpuGraphTiming(m.graph, 256, cx).idle_frac;
    cx.workers = 4;
    double idle4 = cost.cpuGraphTiming(m.graph, 256, cx).idle_frac;
    EXPECT_LT(idle1, 0.05);
    EXPECT_GT(idle4, idle1);
}

TEST(CpuGraph, Fig5IdleRangeAcrossModels)
{
    // Paper: 25%-74% idle with 2-4 workers across the six models. The
    // dense-chain-dominated models must show substantial idling.
    CostModel cost(serverSpec(ServerType::T2));
    CpuExecContext cx;
    cx.mem_bw_gbps = 5.0;
    cx.workers = 4;
    Model din = model::buildModel(ModelId::Din);
    double idle = cost.cpuGraphTiming(din.graph, 256, cx).idle_frac;
    EXPECT_GT(idle, 0.25);
    EXPECT_LT(idle, 0.95);
}

TEST(CpuGraph, SparseOpsParallelizeDenseChainDoesNot)
{
    CostModel cost(serverSpec(ServerType::T2));
    Model m = model::buildModel(ModelId::DlrmRmc2);  // 100 tables
    model::Graph sparse = model::sparseSubgraph(m.graph);
    model::Graph dense = model::denseSubgraph(m.graph);
    CpuExecContext cx;
    cx.mem_bw_gbps = 1e6;  // compute-only view
    cx.workers = 1;
    double s1 = cost.cpuGraphTiming(sparse, 64, cx).latency_us;
    double d1 = cost.cpuGraphTiming(dense, 64, cx).latency_us;
    cx.workers = 4;
    double s4 = cost.cpuGraphTiming(sparse, 64, cx).latency_us;
    double d4 = cost.cpuGraphTiming(dense, 64, cx).latency_us;
    // Independent lookups speed up nearly linearly...
    EXPECT_GT(s1 / s4, 2.5);
    // ...while the dependency-chained dense part barely improves.
    EXPECT_LT(d1 / d4, 1.7);
}

TEST(CpuGraph, BandwidthLowerBoundEnforced)
{
    // Scheduling 100 gathers on 4 workers cannot beat the bandwidth
    // serialization bound.
    CostModel cost(serverSpec(ServerType::T2));
    Model m = model::buildModel(ModelId::DlrmRmc2);
    model::Graph sparse = model::sparseSubgraph(m.graph);
    CpuExecContext cx;
    cx.mem_bw_gbps = 3.0;
    cx.workers = 4;
    GraphTiming t = cost.cpuGraphTiming(sparse, 128, cx);
    double bound_us = t.dram_bytes / (3.0 * 1e9) * 1e6;
    EXPECT_GE(t.latency_us + 1e-6, bound_us);
}

TEST(CpuGraph, NmpOffloadBeatsHostForPooled)
{
    Model m = model::buildModel(ModelId::DlrmRmc1);
    model::Graph sparse = model::sparseSubgraph(m.graph);
    CostModel ddr(serverSpec(ServerType::T2));
    CostModel nmp(serverSpec(ServerType::T3));
    CpuExecContext host_cx;
    host_cx.mem_bw_gbps = ddr.perThreadBwGbps(10);
    CpuExecContext nmp_cx;
    nmp_cx.mem_bw_gbps = nmp.perThreadBwGbps(10);
    nmp_cx.use_nmp = true;
    nmp_cx.nmp_share = 0.1;
    double host_us = ddr.cpuGraphTiming(sparse, 256, host_cx).latency_us;
    double nmp_us = nmp.cpuGraphTiming(sparse, 256, nmp_cx).latency_us;
    EXPECT_LT(nmp_us, host_us);
}

TEST(CpuGraph, NmpNoBenefitForOneHot)
{
    // Paper: one-hot models see no NMP gain (no Gather-Reduce to
    // offload) — lookups stay on the DDR path.
    Model m = model::buildModel(ModelId::MtWnd);
    model::Graph sparse = model::sparseSubgraph(m.graph);
    CostModel nmp(serverSpec(ServerType::T3));
    CpuExecContext cx;
    cx.mem_bw_gbps = 5.0;
    cx.use_nmp = true;
    GraphTiming with_nmp = nmp.cpuGraphTiming(sparse, 128, cx);
    cx.use_nmp = false;
    GraphTiming without = nmp.cpuGraphTiming(sparse, 128, cx);
    EXPECT_NEAR(with_nmp.latency_us, without.latency_us, 1e-6);
    EXPECT_DOUBLE_EQ(with_nmp.nmp_busy_us, 0.0);
}

TEST(GpuKernel, BatchEfficiencyDrivesFusionGain)
{
    // Per-item kernel cost falls sharply as fused batches grow — the
    // mechanism behind Fig 6's throughput gains.
    CostModel cost(serverSpec(ServerType::T7));
    model::Graph g;
    g.addNode("fc", model::FcParams{1920, 1024}, model::Stage::Dense);
    GpuExecContext cx;
    double per_item_150 =
        cost.gpuKernelLatencyUs(g.node(0), 150, cx) / 150.0;
    double per_item_6000 =
        cost.gpuKernelLatencyUs(g.node(0), 6000, cx) / 6000.0;
    EXPECT_GT(per_item_150 / per_item_6000, 4.0);
}

TEST(GpuKernel, ColocationSlowdown)
{
    CostModel cost(serverSpec(ServerType::T7));
    model::Graph g;
    g.addNode("fc", model::FcParams{512, 256}, model::Stage::Dense);
    GpuExecContext alone, shared;
    alone.colocated = 1;
    shared.colocated = 4;
    EXPECT_GT(cost.gpuKernelLatencyUs(g.node(0), 256, shared),
              cost.gpuKernelLatencyUs(g.node(0), 256, alone));
}

TEST(GpuKernel, P100SlowerThanV100)
{
    CostModel p100(serverSpec(ServerType::T6));
    CostModel v100(serverSpec(ServerType::T7));
    model::Graph g;
    g.addNode("fc", model::FcParams{1024, 1024}, model::Stage::Dense);
    GpuExecContext cx;
    EXPECT_GT(p100.gpuKernelLatencyUs(g.node(0), 2048, cx),
              v100.gpuKernelLatencyUs(g.node(0), 2048, cx));
}

TEST(GpuGraph, HotHitRateReducesWork)
{
    CostModel cost(serverSpec(ServerType::T7));
    Model m = model::buildModel(ModelId::DlrmRmc1, model::Variant::Small);
    GpuExecContext full, half;
    full.hot_hit_rate = 1.0;
    half.hot_hit_rate = 0.4;
    auto batchUs = [&](const GpuExecContext& cx) {
        double us = 0.0;
        for (int id : m.graph.topoOrder())
            us += cost.gpuKernelLatencyUs(m.graph.node(id), 256, cx);
        return us;
    };
    EXPECT_LT(batchUs(half), batchUs(full));
}

TEST(GpuInput, MultiHotIndicesDominateTransfers)
{
    // DLRM-RMC3 ships far more bytes per item than MT-WnD — the Fig 7
    // data-loading story.
    CostModel cost(serverSpec(ServerType::T7));
    Model rmc3 = model::buildModel(ModelId::DlrmRmc3);
    Model wnd = model::buildModel(ModelId::MtWnd);
    GpuExecContext cx;
    double rmc3_bytes =
        cost.gpuBatchPlan(rmc3.graph, cx).inputBytes(100, 1.0);
    double wnd_bytes = cost.gpuBatchPlan(wnd.graph, cx).inputBytes(100, 1.0);
    EXPECT_GT(rmc3_bytes, 2.0 * wnd_bytes);
}

TEST(GpuInput, ColdFractionAddsPsums)
{
    CostModel cost(serverSpec(ServerType::T7));
    Model m = model::buildModel(ModelId::DlrmRmc1);
    GpuExecContext resident, split;
    resident.hot_hit_rate = 1.0;
    split.hot_hit_rate = 0.5;
    double b_resident =
        cost.gpuBatchPlan(m.graph, resident).inputBytes(64, 1.0);
    double b_split = cost.gpuBatchPlan(m.graph, split).inputBytes(64, 1.0);
    // Fewer raw indices but extra psum vectors; for pooled models the
    // index reduction dominates.
    EXPECT_NE(b_resident, b_split);
}

TEST(GpuInput, SdPipelineSendsPooledVectors)
{
    CostModel cost(serverSpec(ServerType::T7));
    Model m = model::buildModel(ModelId::DlrmRmc1);
    model::Graph dense = model::denseSubgraph(m.graph);
    GpuExecContext cx;
    double bytes = cost.gpuBatchPlan(dense, cx).inputBytes(64, 1.0);
    // Severed interaction inputs: 10 pooled vectors x 32 floats.
    EXPECT_GE(bytes, 64.0 * 10 * 32 * 4);
}

TEST(Pcie, TransferLatencyModel)
{
    CostModel cost(serverSpec(ServerType::T7));
    double bw = cost.pcieBwGbps();
    EXPECT_NEAR(bw, 16.0 * calib::kPcieEff, 1e-9);
    double us = cost.pcieTransferUs(16e9 * calib::kPcieEff / 1e3, bw);
    // 1/1000 of a second of data -> 1000 us + setup.
    EXPECT_NEAR(us, 1000.0 + calib::kPcieSetupUs, 1.0);
}

TEST(PcieDeath, NoGpuIsFatal)
{
    CostModel cost(serverSpec(ServerType::T2));
    EXPECT_DEATH(cost.pcieBwGbps(), "no GPU");
}

TEST(NmpLutAccess, RequiresNmpServer)
{
    CostModel cost(serverSpec(ServerType::T2));
    EXPECT_DEATH(cost.nmpLut(32), "no NMP");
}

/** Latency monotone in batch for every model's full graph. */
class CostMonotoneBatch : public ::testing::TestWithParam<ModelId>
{
};

TEST_P(CostMonotoneBatch, CpuLatencyGrowsWithBatch)
{
    CostModel cost(serverSpec(ServerType::T2));
    Model m = model::buildModel(GetParam());
    CpuExecContext cx;
    cx.workers = 2;
    cx.mem_bw_gbps = 5.0;
    double prev = 0.0;
    for (int b : {8, 32, 128, 512}) {
        double lat = cost.cpuGraphTiming(m.graph, b, cx).latency_us;
        EXPECT_GT(lat, prev) << "batch " << b;
        prev = lat;
    }
}

INSTANTIATE_TEST_SUITE_P(AllModels, CostMonotoneBatch,
                         ::testing::ValuesIn(model::allModels()));

/** FNV-1a over the bytes of 64-bit words (doubles by their bits). */
struct Fnv1a
{
    uint64_t h = 1469598103934665603ull;

    void
    mix(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 1099511628211ull;
        }
    }

    void
    mix(double d)
    {
        uint64_t v;
        std::memcpy(&v, &d, sizeof(v));
        mix(v);
    }
};

/*
 * Every GraphTiming double of cpuGraphTiming, bit for bit, over RMC1-3
 * x {full, sparse, dense} on a DDR (T2) and an NMP (T3) server, 1 and 4
 * op workers, 1 and 8 memory-hungry threads, pooling scales {1, 2,
 * 0.37} and batches {1, 7, 64, 256, 4000}. The digest was captured
 * before cpuGraphTiming became a one-pass walk, so it pins that the
 * rewrite kept the arithmetic and its order.
 */
TEST(CpuGraphGolden, TimingBitsPinned)
{
    Fnv1a d;
    int cases = 0;
    for (ServerType st : {ServerType::T2, ServerType::T3}) {
        CostModel cost(serverSpec(st));
        for (ModelId id :
             {ModelId::DlrmRmc1, ModelId::DlrmRmc2, ModelId::DlrmRmc3}) {
            Model m = model::buildModel(id);
            const model::Graph graphs[] = {m.graph,
                                           model::sparseSubgraph(m.graph),
                                           model::denseSubgraph(m.graph)};
            for (const model::Graph& g : graphs)
                for (int workers : {1, 4})
                    for (int mem_threads : {1, 8})
                        for (double ps : {1.0, 2.0, 0.37})
                            for (int batch : {1, 7, 64, 256, 4000}) {
                                CpuExecContext cx;
                                cx.workers = workers;
                                cx.mem_bw_gbps =
                                    cost.perThreadBwGbps(mem_threads);
                                cx.use_nmp = cost.server().hasNmp();
                                cx.nmp_share = 1.0 / mem_threads;
                                cx.pooling_scale = ps;
                                GraphTiming t =
                                    cost.cpuGraphTiming(g, batch, cx);
                                d.mix(t.latency_us);
                                d.mix(t.busy_us);
                                d.mix(t.idle_frac);
                                d.mix(t.flops);
                                d.mix(t.dram_bytes);
                                d.mix(t.nmp_busy_us);
                                d.mix(t.nmp_energy_uj);
                                ++cases;
                            }
        }
    }
    EXPECT_EQ(cases, 1080);
    EXPECT_EQ(d.h, 0xcf7835ec77830eb9ull) << std::hex << d.h;

    // One NMP cell in the clear, so a drift shows which field moved.
    CostModel nmp(serverSpec(ServerType::T3));
    Model rmc1 = model::buildModel(ModelId::DlrmRmc1);
    CpuExecContext cx;
    cx.workers = 4;
    cx.mem_bw_gbps = nmp.perThreadBwGbps(8);
    cx.use_nmp = true;
    cx.nmp_share = 1.0 / 8;
    cx.pooling_scale = 0.37;
    GraphTiming t = nmp.cpuGraphTiming(rmc1.graph, 64, cx);
    EXPECT_EQ(t.latency_us, 0x1.491f80a23dfe3p+9);
    EXPECT_EQ(t.busy_us, 0x1.d3b3b19c28b42p+9);
    EXPECT_EQ(t.idle_frac, 0x1.3fe3e357b002cp-1);
    EXPECT_EQ(t.flops, 0x1.11008p+23);
    EXPECT_EQ(t.dram_bytes, 0.0);
    EXPECT_EQ(t.nmp_busy_us, 0x1.1ba1832b35f72p+8);
    EXPECT_EQ(t.nmp_energy_uj, 0x1.7f9db22d0e561p+8);
}

/*
 * Fig 5's (bench_paper fig05) two-worker RMC1 schedule, record by record,
 * captured before the op records became an out-parameter.
 */
TEST(CpuGraphGolden, Fig05OpRecordsPinned)
{
    CostModel cost(serverSpec(ServerType::T2));
    Model m = model::buildModel(ModelId::DlrmRmc1);
    CpuExecContext cx;
    cx.workers = 2;
    cx.mem_bw_gbps = 5.0;
    std::vector<OpRecord> ops = {{99, 9, 1.0, 2.0}};  // cleared first
    GraphTiming t = cost.cpuGraphTiming(m.graph, 256, cx, &ops);
    ASSERT_EQ(ops.size(), 20u);
    Fnv1a d;
    for (const OpRecord& r : ops) {
        d.mix(static_cast<uint64_t>(r.node));
        d.mix(static_cast<uint64_t>(r.worker));
        d.mix(r.start_us);
        d.mix(r.end_us);
    }
    EXPECT_EQ(d.h, 0x6064e93a7c3cb303ull) << std::hex << d.h;
    EXPECT_EQ(ops.front().node, 10);
    EXPECT_EQ(ops.front().end_us, 0x1.b158793dd97f6p+9);
    EXPECT_EQ(ops.back().node, 19);
    EXPECT_EQ(ops.back().worker, 1);
    EXPECT_EQ(ops.back().end_us, 0x1.23045ab9f559bp+12);
    EXPECT_EQ(t.latency_us, 0x1.72d3d70a3d70ap+12);
    EXPECT_EQ(t.idle_frac, 0x1.63a43c03d13a4p-3);

    // Without the out-parameter the timing is the same.
    GraphTiming bare = cost.cpuGraphTiming(m.graph, 256, cx);
    EXPECT_EQ(bare.latency_us, t.latency_us);
    EXPECT_EQ(bare.busy_us, t.busy_us);
}

}  // namespace
}  // namespace hercules::hw
