/**
 * @file
 * Focused tests of the accelerator serving path: query fusion
 * semantics, the PCIe DMA queue, double-buffered load/execute
 * pipelining, the hot-split cold path, and MPS co-location effects —
 * the mechanisms behind Fig 6/7.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "sim/measure.h"

namespace hercules::sim {
namespace {

using hw::ServerType;
using model::ModelId;
using model::Variant;

SchedulingConfig
gpuConfig(int g, int fusion, int host_threads = 2)
{
    SchedulingConfig cfg;
    cfg.mapping = Mapping::GpuModelBased;
    cfg.gpu_threads = g;
    cfg.fusion_limit = fusion;
    cfg.cpu_threads = host_threads;
    return cfg;
}

SimOptions
fastOptions(double qps)
{
    SimOptions opt;
    opt.offered_qps = qps;
    opt.num_queries = 300;
    opt.warmup_queries = 60;
    opt.seed = 42;
    return opt;
}

double
capacity(const model::Model& m, const SchedulingConfig& cfg)
{
    PreparedWorkload w = prepare(hw::serverSpec(ServerType::T7), m, cfg);
    SimOptions opt = fastOptions(1.0);
    opt.saturate = true;
    return simulateServer(w, opt).achieved_qps;
}

TEST(GpuFusion, CapacityGrowsWithFusionLimit)
{
    model::Model m = model::buildModel(ModelId::MtWnd, Variant::Small);
    double prev = 0.0;
    for (int fusion : {0, 1000, 4000}) {
        double cap = capacity(m, gpuConfig(1, fusion));
        EXPECT_GT(cap, prev) << "fusion " << fusion;
        prev = cap;
    }
}

TEST(GpuFusion, LargeQueriesChunkedAtLimit)
{
    // Queries larger than the fusion limit must still complete (they
    // split into limit-sized chunks).
    model::Model m = model::buildModel(ModelId::DlrmRmc3, Variant::Small);
    SchedulingConfig cfg = gpuConfig(1, 64);  // far below max query size
    SimOptions opt = fastOptions(300);
    ServerSimResult r =
        simulateServer(hw::serverSpec(ServerType::T7), m, cfg, opt);
    EXPECT_EQ(r.completed, 240u);
}

TEST(GpuFusion, NoFusionServesOneQueryPerBatch)
{
    // Without fusion the mean exec time tracks single-query batches:
    // fusing must raise per-batch exec but lower per-item cost.
    model::Model m = model::buildModel(ModelId::MtWnd, Variant::Small);
    SimOptions opt = fastOptions(100);
    ServerSimResult plain = simulateServer(
        hw::serverSpec(ServerType::T7), m, gpuConfig(1, 0), opt);
    SimOptions busy = fastOptions(800);
    ServerSimResult fused = simulateServer(
        hw::serverSpec(ServerType::T7), m, gpuConfig(1, 6000), busy);
    EXPECT_GT(fused.mean_exec_ms, plain.mean_exec_ms);
    EXPECT_GT(fused.achieved_qps, plain.achieved_qps);
}

TEST(GpuPipeline, PcieContentionSlowsLoading)
{
    // More co-located threads share the one DMA engine: per-batch
    // loading time (queue + transfer) grows.
    model::Model m = model::buildModel(ModelId::DlrmRmc3, Variant::Small);
    SimOptions opt = fastOptions(2500);
    ServerSimResult one = simulateServer(
        hw::serverSpec(ServerType::T7), m, gpuConfig(1, 2000), opt);
    ServerSimResult four = simulateServer(
        hw::serverSpec(ServerType::T7), m, gpuConfig(4, 2000), opt);
    EXPECT_GT(four.mean_load_ms, one.mean_load_ms * 0.9);
    EXPECT_GT(four.pcie_util, 0.0);
}

TEST(GpuPipeline, DoubleBufferingOverlapsLoadAndExec)
{
    // With load/execute overlap, capacity approaches
    // items / max(load, exec) rather than items / (load + exec): the
    // measured capacity must exceed the serial bound.
    model::Model m = model::buildModel(ModelId::DlrmRmc3, Variant::Small);
    SchedulingConfig cfg = gpuConfig(1, 2000);
    PreparedWorkload w = prepare(hw::serverSpec(ServerType::T7), m, cfg);
    SimOptions sat = fastOptions(1.0);
    sat.saturate = true;
    ServerSimResult r = simulateServer(w, sat);
    double serial_qps_bound =
        1e3 / (r.mean_load_ms + r.mean_exec_ms) *
        (r.achieved_qps * (r.mean_load_ms + r.mean_exec_ms) / 1e3);
    // Equivalent check expressed robustly: load and exec overlap, so
    // utilizations of PCIe and GPU can sum above 1.
    EXPECT_GT(r.pcie_util + r.gpu_util, 1.0);
    (void)serial_qps_bound;
}

TEST(HotSplitPath, ColdFractionEngagesHostStage)
{
    // Production RMC1 (3 GB) forced into a small per-thread budget by
    // heavy co-location: the cold path must show host-stage time.
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    SchedulingConfig cfg = gpuConfig(6, 2000, 4);
    PreparedWorkload w = prepare(hw::serverSpec(ServerType::T7), m, cfg);
    ASSERT_LT(w.gpu_cx.hot_hit_rate, 1.0);
    SimOptions opt = fastOptions(2000);
    ServerSimResult r = simulateServer(w, opt);
    EXPECT_EQ(r.completed, 240u);
    EXPECT_GT(r.mean_host_ms, 0.0);
    EXPECT_GT(r.cpu_util, 0.0);
}

TEST(HotSplitPath, FullResidencySkipsHostStage)
{
    model::Model m = model::buildModel(ModelId::DlrmRmc1, Variant::Small);
    SchedulingConfig cfg = gpuConfig(1, 2000, 2);
    PreparedWorkload w = prepare(hw::serverSpec(ServerType::T7), m, cfg);
    ASSERT_DOUBLE_EQ(w.gpu_cx.hot_hit_rate, 1.0);
    SimOptions opt = fastOptions(2000);
    ServerSimResult r = simulateServer(w, opt);
    EXPECT_DOUBLE_EQ(r.mean_host_ms, 0.0);
}

TEST(HotSplitPath, HigherHitRateHigherCapacity)
{
    // Fewer co-located threads -> bigger per-thread embedding budget ->
    // higher hit rate -> less cold-path work. Compare capacities at
    // matched co-location counts via the prepared hit rates.
    model::Model m = model::buildModel(ModelId::DlrmRmc2);  // 30 GB
    SchedulingConfig few = gpuConfig(1, 2000, 4);
    SchedulingConfig many = gpuConfig(4, 2000, 4);
    PreparedWorkload wf = prepare(hw::serverSpec(ServerType::T7), m, few);
    PreparedWorkload wm =
        prepare(hw::serverSpec(ServerType::T7), m, many);
    EXPECT_GT(wf.gpu_cx.hot_hit_rate, wm.gpu_cx.hot_hit_rate);
}

TEST(Colocation, SlowdownVisibleInExecTime)
{
    model::Model m = model::buildModel(ModelId::Din, Variant::Small);
    SimOptions opt = fastOptions(800);
    ServerSimResult g1 = simulateServer(hw::serverSpec(ServerType::T7), m,
                                        gpuConfig(1, 1000), opt);
    ServerSimResult g4 = simulateServer(hw::serverSpec(ServerType::T7), m,
                                        gpuConfig(4, 1000), opt);
    // Per-kernel slowdown under MPS interference.
    EXPECT_GT(g4.mean_exec_ms, g1.mean_exec_ms);
}

TEST(GpuSdPipeline, SparseOutputsFuseDownstream)
{
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    SchedulingConfig cfg;
    cfg.mapping = Mapping::GpuSdPipeline;
    cfg.cpu_threads = 8;
    cfg.cores_per_thread = 2;
    cfg.batch = 64;
    cfg.gpu_threads = 2;
    cfg.fusion_limit = 4000;
    SimOptions opt = fastOptions(1500);
    ServerSimResult r =
        simulateServer(hw::serverSpec(ServerType::T7), m, cfg, opt);
    EXPECT_EQ(r.completed, 240u);
    EXPECT_GT(r.cpu_util, 0.0);
    EXPECT_GT(r.gpu_util, 0.0);
    EXPECT_GT(r.mean_load_ms, 0.0);
}

TEST(GpuSdPipeline, TransfersPooledVectorsNotIndices)
{
    // The S-D pipeline ships pooled embedding outputs; for a pooled
    // model the dense-graph transfer is smaller than the full-model
    // index transfer at equal batch.
    hw::CostModel cost(hw::serverSpec(ServerType::T7));
    model::Model m = model::buildModel(ModelId::DlrmRmc3);
    model::Graph dense = model::denseSubgraph(m.graph);
    hw::GpuExecContext cx;
    double dense_bytes = cost.gpuBatchPlan(dense, cx).inputBytes(256, 1.0);
    double full_bytes =
        cost.gpuBatchPlan(m.graph, cx).inputBytes(256, 1.0);
    EXPECT_LT(dense_bytes, full_bytes);
}

/*
 * Golden pin of GPU batch service times: the latency_us the per-graph
 * GPU timing (kernel latencies summed in topological order) gave before
 * the per-batch-size kernel memo replaced it, for the accelerator graph
 * of a T7 GpuModelBased placement (graph 0: `full`, with the hot split)
 * and a T7 GpuSdPipeline one (graph 1: `dense`), at pooling scales
 * 0.5, 1 and 1.7. Each row is read on a cold memo row, then again on a
 * warm one.
 */
TEST(GpuBatchLatency, MatchesPinnedGraphTiming)
{
    struct Pin
    {
        ModelId model;
        int graph;
        int batch;
        double latency_us[3];
    };
    const Pin pins[] = {
        {ModelId::DlrmRmc1, 0, 1,
         {0x1.da3473cd7af08p+6, 0x1.dae13aa5142acp+6,
          0x1.dbd31dd2eaafcp+6}},
        {ModelId::DlrmRmc1, 0, 7,
         {0x1.deb39d9cfe1dep+6, 0x1.e36d0d822eb62p+6,
          0x1.ea0a43c30c576p+6}},
        {ModelId::DlrmRmc1, 0, 32,
         {0x1.f17021284b5bap+6, 0x1.03847e0db9526p+7,
          0x1.12a2b0eb219fp+7}},
        {ModelId::DlrmRmc1, 0, 500,
         {0x1.a8176f31219ddp+7, 0x1.2868cede62434p+8,
          0x1.9e84bc4021196p+8}},
        {ModelId::DlrmRmc1, 0, 4000,
         {0x1.b1e8d9d2101fap+9, 0x1.81ae9b74aaf88p+10,
          0x1.36f33b1c14527p+11}},
        {ModelId::DlrmRmc1, 1, 1,
         {0x1.d30f59ebc36c9p+5, 0x1.d30f59ebc36c9p+5,
          0x1.d30f59ebc36c9p+5}},
        {ModelId::DlrmRmc1, 1, 7,
         {0x1.d3f45b6f9b0c4p+5, 0x1.d3f45b6f9b0c4p+5,
          0x1.d3f45b6f9b0c4p+5}},
        {ModelId::DlrmRmc1, 1, 32,
         {0x1.d7ae8c6a4825fp+5, 0x1.d7ae8c6a4825fp+5,
          0x1.d7ae8c6a4825fp+5}},
        {ModelId::DlrmRmc1, 1, 500,
         {0x1.0eba814afd6a1p+6, 0x1.0eba814afd6a1p+6,
          0x1.0eba814afd6a1p+6}},
        {ModelId::DlrmRmc1, 1, 4000,
         {0x1.09d1f2eb2938bp+7, 0x1.09d1f2eb2938bp+7,
          0x1.09d1f2eb2938bp+7}},
        {ModelId::DlrmRmc2, 0, 1,
         {0x1.7480859b5aa56p+9, 0x1.753f23b40bd8bp+9,
          0x1.764a0109d0b9cp+9}},
        {ModelId::DlrmRmc2, 0, 7,
         {0x1.793cfac1883bp+9, 0x1.7e734d6e609f7p+9,
          0x1.85bf5ac6c2c4cp+9}},
        {ModelId::DlrmRmc2, 0, 32,
         {0x1.8cf8e2e09b7cep+9, 0x1.a4cca5f6c1d91p+9,
          0x1.c62850af5df45p+9}},
        {ModelId::DlrmRmc2, 0, 500,
         {0x1.7f324a413f68ap+10, 0x1.1cac572f258d9p+11,
          0x1.9efa6a1047566p+11}},
        {ModelId::DlrmRmc2, 0, 4000,
         {0x1.b924f0b020d2p+12, 0x1.96b8dc751c1acp+13,
          0x1.4daa811bafd67p+14}},
        {ModelId::DlrmRmc2, 1, 1,
         {0x1.1f079e0aa5cc8p+7, 0x1.1f079e0aa5cc8p+7,
          0x1.1f079e0aa5cc8p+7}},
        {ModelId::DlrmRmc2, 1, 7,
         {0x1.201aa052bf5a7p+7, 0x1.201aa052bf5a7p+7,
          0x1.201aa052bf5a7p+7}},
        {ModelId::DlrmRmc2, 1, 32,
         {0x1.24947f29d47f2p+7, 0x1.24947f29d47f2p+7,
          0x1.24947f29d47f2p+7}},
        {ModelId::DlrmRmc2, 1, 500,
         {0x1.785f31219dbccp+7, 0x1.785f31219dbccp+7,
          0x1.785f31219dbccp+7}},
        {ModelId::DlrmRmc2, 1, 4000,
         {0x1.f582876096e47p+8, 0x1.f582876096e47p+8,
          0x1.f582876096e47p+8}},
        {ModelId::DlrmRmc3, 0, 1,
         {0x1.49f21fc2f4cf5p+9, 0x1.49f9ecaf31eebp+9,
          0x1.4a04d860544e9p+9}},
        {ModelId::DlrmRmc3, 0, 7,
         {0x1.4b897a651f30ap+9, 0x1.4bc014dacb0d7p+9,
          0x1.4c0c86b2bba8dp+9}},
        {ModelId::DlrmRmc3, 0, 32,
         {0x1.522ac95e251c4p+9, 0x1.532466e5c90cap+9,
          0x1.5481dd0a14f68p+9}},
        {ModelId::DlrmRmc3, 0, 500,
         {0x1.ce4866c70ecb2p+9, 0x1.dd84a42e70558p+9,
          0x1.f2d8fa25927d2p+9}},
        {ModelId::DlrmRmc3, 0, 4000,
         {0x1.5b9fe5bd92dccp+11, 0x1.7a18608c55f0ep+11,
          0x1.a4c10c7a9a416p+11}},
        {ModelId::DlrmRmc3, 1, 1,
         {0x1.2bea52d6b7affp+9, 0x1.2bea52d6b7affp+9,
          0x1.2bea52d6b7affp+9}},
        {ModelId::DlrmRmc3, 1, 7,
         {0x1.2d52dfef73545p+9, 0x1.2d52dfef73545p+9,
          0x1.2d52dfef73545p+9}},
        {ModelId::DlrmRmc3, 1, 32,
         {0x1.33312bd6812bep+9, 0x1.33312bd6812bep+9,
          0x1.33312bd6812bep+9}},
        {ModelId::DlrmRmc3, 1, 500,
         {0x1.a10c295fad40cp+9, 0x1.a10c295fad40cp+9,
          0x1.a10c295fad40cp+9}},
        {ModelId::DlrmRmc3, 1, 4000,
         {0x1.35a76aeecfc8p+11, 0x1.35a76aeecfc8p+11,
          0x1.35a76aeecfc8p+11}},

    };
    const double scales[3] = {0.5, 1.0, 1.7};
    const hw::ServerSpec& t7 = hw::serverSpec(ServerType::T7);
    SchedulingConfig gsd;
    gsd.mapping = Mapping::GpuSdPipeline;
    gsd.gpu_threads = 2;
    gsd.cpu_threads = 8;
    gsd.cores_per_thread = 2;
    gsd.batch = 128;
    gsd.fusion_limit = 2000;
    for (ModelId id :
         {ModelId::DlrmRmc1, ModelId::DlrmRmc2, ModelId::DlrmRmc3}) {
        model::Model m = model::buildModel(id);
        const PreparedWorkload placements[2] = {
            prepare(t7, m, gpuConfig(2, 2000)), prepare(t7, m, gsd)};
        for (int pass = 0; pass < 2; ++pass)
            for (const Pin& pin : pins) {
                if (pin.model != id)
                    continue;
                for (int s = 0; s < 3; ++s)
                    EXPECT_EQ(gpuBatchLatencyUs(placements[pin.graph],
                                                pin.batch, scales[s]),
                              pin.latency_us[s])
                        << m.name << " graph " << pin.graph << " batch "
                        << pin.batch << " ps " << scales[s] << " pass "
                        << pass;
            }
    }
}

/*
 * The per-node input walk the batch plan replaced, kept as the oracle
 * of GpuBatchPlan::inputBytes(): every node's addend in node order.
 */
double
perNodeInputBytes(const model::Graph& g, int batch,
                  const hw::GpuExecContext& cx)
{
    using model::OpKind;
    double per_item = 0.0;
    for (const auto& n : g.nodes()) {
        model::OpCost cost = model::opCostPerItem(n);
        switch (n.kind()) {
          case OpKind::EmbeddingLookup: {
            const auto& p = std::get<model::EmbeddingParams>(n.params);
            double pooling =
                std::max(1.0, p.avgPooling() * cx.pooling_scale);
            per_item += pooling * cx.hot_hit_rate * 8.0;
            if (cx.hot_hit_rate < 1.0) {
                if (p.pooled)
                    per_item += p.emb_dim * 4.0;
                else
                    per_item += (1.0 - cx.hot_hit_rate) * pooling *
                                p.emb_dim * 4.0;
            }
            break;
          }
          case OpKind::Fc:
            if (n.deps.empty())
                per_item += cost.input_bytes;
            break;
          case OpKind::Interaction: {
            const auto& p = std::get<model::InteractionParams>(n.params);
            int missing = p.num_features - static_cast<int>(n.deps.size());
            if (missing > 0)
                per_item += static_cast<double>(missing) *
                            p.feature_dim * 4.0;
            break;
          }
          case OpKind::Attention: {
            const auto& p = std::get<model::AttentionParams>(n.params);
            bool has_seq_producer = false;
            for (int d : n.deps) {
                OpKind k = g.node(d).kind();
                if (k == OpKind::EmbeddingLookup || k == OpKind::Gru)
                    has_seq_producer = true;
            }
            if (!has_seq_producer)
                per_item += p.avgSeqLen() * cx.pooling_scale *
                            p.behavior_dim * 4.0;
            break;
          }
          case OpKind::Gru: {
            const auto& p = std::get<model::GruParams>(n.params);
            if (n.deps.empty())
                per_item += p.avgSeqLen() * cx.pooling_scale *
                            p.input_dim * 4.0;
            break;
          }
          case OpKind::Concat: {
            const auto& p = std::get<model::ConcatParams>(n.params);
            double missing = static_cast<double>(p.total_dim) * 4.0;
            if (missing > 0.0 && n.deps.empty())
                per_item += missing;
            break;
          }
          default:
            break;
        }
    }
    return per_item * static_cast<double>(batch);
}

/** A batch's kernels summed one node at a time, in topological order. */
double
perNodeLatencyUs(const hw::CostModel& cost, const model::Graph& g,
                 int batch, const hw::GpuExecContext& cx)
{
    double us = 0.0;
    for (int id : g.topoOrder())
        us += cost.gpuKernelLatencyUs(g.node(id), batch, cx);
    return us;
}

/** FNV-1a over the bits of a sequence of doubles. */
struct BitDigest
{
    uint64_t h = 14695981039346656037ull;
    void
    add(double v)
    {
        uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        for (int i = 0; i < 8; ++i) {
            h ^= (bits >> (8 * i)) & 0xffu;
            h *= 1099511628211ull;
        }
    }
};

/** One costed case of the plan grids below. */
struct PlanCase
{
    std::string what;
    const model::Graph* graph;
    hw::GpuExecContext cx;  ///< carries the case's pooling scale
    int batch;
};

/**
 * Visit every (colocated {1, 3}) x (hot hit rate `hots`) x (pooling
 * scale {0.37, 1, 1.7}) x (batch {1, 7, 64, 500, 4000}) case of one
 * graph, in that nesting order.
 */
template <class Fn>
void
forEachPlanCase(const std::string& what, const model::Graph& g,
                const std::vector<double>& hots, Fn fn)
{
    for (int colocated : {1, 3})
        for (double hot : hots)
            for (double ps : {0.37, 1.0, 1.7})
                for (int batch : {1, 7, 64, 500, 4000}) {
                    hw::GpuExecContext cx;
                    cx.colocated = colocated;
                    cx.hot_hit_rate = hot;
                    cx.pooling_scale = ps;
                    fn(PlanCase{what, &g, cx, batch});
                }
}

/** Cost one case through a plan: (latency us, input bytes). */
std::pair<double, double>
planCost(const hw::CostModel& cost, const PlanCase& c)
{
    hw::GpuBatchPlan plan = cost.gpuBatchPlan(*c.graph, c.cx);
    std::vector<double> kernels;
    plan.batchOnlyKernelsUs(c.batch, kernels);
    return {plan.latencyUs(c.batch, c.cx.pooling_scale, kernels.data()),
            plan.inputBytes(c.batch, c.cx.pooling_scale)};
}

/**
 * The accelerator graphs of T7 placements of RMC1/2/3 (GpuModelBased
 * `full` with the hot split, GpuSdPipeline `dense`), each with hot hit
 * rates {1, the model's split}.
 */
template <class Fn>
void
forEachPlacementCase(Fn fn)
{
    const hw::ServerSpec& t7 = hw::serverSpec(ServerType::T7);
    SchedulingConfig gsd;
    gsd.mapping = Mapping::GpuSdPipeline;
    gsd.gpu_threads = 2;
    gsd.cpu_threads = 8;
    gsd.cores_per_thread = 2;
    gsd.batch = 128;
    gsd.fusion_limit = 2000;
    for (ModelId id :
         {ModelId::DlrmRmc1, ModelId::DlrmRmc2, ModelId::DlrmRmc3}) {
        model::Model m = model::buildModel(id);
        const PreparedWorkload placements[2] = {
            prepare(t7, m, gpuConfig(2, 2000)), prepare(t7, m, gsd)};
        const double split = placements[0].hot.hit_rate;
        for (int graph = 0; graph < 2; ++graph)
            forEachPlanCase(m.name + " graph " + std::to_string(graph),
                            placements[graph].gpuGraph(), {1.0, split},
                            fn);
    }
}

/**
 * Every zoo model's whole graph and DenseNet, at hot hit rates
 * {1, 0.7}: 0.7 is not a power of two, so the order of the pooling
 * product matters in some cases.
 */
template <class Fn>
void
forEachZooCase(Fn fn)
{
    for (ModelId id : model::allModels()) {
        model::Model m = model::buildModel(id);
        const model::Graph graphs[2] = {m.graph,
                                        model::denseSubgraph(m.graph)};
        for (int graph = 0; graph < 2; ++graph)
            forEachPlanCase(m.name + " graph " + std::to_string(graph),
                            graphs[graph], {1.0, 0.7}, fn);
    }
}

/*
 * Digest pins of GPU batch costing, captured on the per-node code the
 * plan replaced (bytes: the per-node input walk; latency: kernels
 * summed in topological order), over the grids above: 360 placement
 * cases and 720 zoo cases.
 */
TEST(GpuBatchPlan, PinnedOnPlacements)
{
    const hw::CostModel cost(hw::serverSpec(ServerType::T7));
    BitDigest bytes, latency;
    forEachPlacementCase([&](const PlanCase& c) {
        auto [us, b] = planCost(cost, c);
        latency.add(us);
        bytes.add(b);
    });
    EXPECT_EQ(bytes.h, 0xa59e3ebcbed54ab5ull);
    EXPECT_EQ(latency.h, 0x305031e9edd312f5ull);
}

TEST(GpuBatchPlan, PinnedOnEveryModel)
{
    const hw::CostModel cost(hw::serverSpec(ServerType::T7));
    BitDigest bytes, latency;
    forEachZooCase([&](const PlanCase& c) {
        auto [us, b] = planCost(cost, c);
        latency.add(us);
        bytes.add(b);
    });
    EXPECT_EQ(bytes.h, 0x21ca3b114858ae29ull);
    EXPECT_EQ(latency.h, 0x085d5f69c0d1639cull);
}

/* The plan against the per-node sums it compiles, case by case. */
TEST(GpuBatchPlan, MatchesPerNodeSums)
{
    const hw::CostModel cost(hw::serverSpec(ServerType::T7));
    size_t cases = 0;
    auto check = [&](const PlanCase& c) {
        auto [us, b] = planCost(cost, c);
        EXPECT_EQ(us, perNodeLatencyUs(cost, *c.graph, c.batch, c.cx))
            << c.what << " batch " << c.batch << " ps "
            << c.cx.pooling_scale << " hot " << c.cx.hot_hit_rate;
        EXPECT_EQ(b, perNodeInputBytes(*c.graph, c.batch, c.cx))
            << c.what << " batch " << c.batch << " ps "
            << c.cx.pooling_scale << " hot " << c.cx.hot_hit_rate;
        ++cases;
    };
    forEachPlacementCase(check);
    forEachZooCase(check);
    EXPECT_EQ(cases, 1080u);
}

/** Fusion capacity monotonicity across the three Fig 7 models. */
class FusionEveryModel : public ::testing::TestWithParam<ModelId>
{
};

TEST_P(FusionEveryModel, FusionNeverHurtsCapacity)
{
    model::Model m = model::buildModel(GetParam(), Variant::Small);
    double plain = capacity(m, gpuConfig(1, 0));
    double fused = capacity(m, gpuConfig(1, 4000));
    EXPECT_GE(fused, plain * 0.95) << m.name;
}

INSTANTIATE_TEST_SUITE_P(Fig7Models, FusionEveryModel,
                         ::testing::Values(ModelId::DlrmRmc3,
                                           ModelId::MtWnd, ModelId::Din));

}  // namespace
}  // namespace hercules::sim
