/**
 * @file
 * Tests of the discrete-event server simulator: event ordering, work
 * conservation, queueing behaviour, mapping-specific paths (model-based
 * / S-D pipeline / accelerator fusion), utilization bounds and power
 * integration.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "hw/power.h"
#include "sim/server_sim.h"
#include "util/rng.h"

namespace hercules::sim {
namespace {

using hw::ServerType;
using model::ModelId;
using model::Variant;

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
fastOptions(double qps)
{
    SimOptions opt;
    opt.offered_qps = qps;
    opt.num_queries = 300;
    opt.warmup_queries = 60;
    opt.seed = 42;
    return opt;
}

TEST(EventQueue, FifoWithinEqualTimestamps)
{
    EventQueue<int> eq;
    eq.schedule(1.0, 1);
    eq.schedule(1.0, 2);
    eq.schedule(0.5, 0);
    eq.schedule(1.0, 3);
    std::vector<int> order;
    while (!eq.empty())
        order.push_back(eq.pop());
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(eq.eventsExecuted(), 4u);
    EXPECT_EQ(eq.peakDepth(), 4u);
}

TEST(EventQueue, NowAdvances)
{
    EventQueue<int> eq;
    eq.schedule(2.5, 7);
    eq.schedule(4.0, 8);
    EXPECT_DOUBLE_EQ(eq.nextTime(), 2.5);
    EXPECT_EQ(eq.pop(), 7);
    EXPECT_DOUBLE_EQ(eq.now(), 2.5);
    EXPECT_EQ(eq.pop(), 8);
    EXPECT_DOUBLE_EQ(eq.now(), 4.0);
}

TEST(EventQueue, SchedulingWhileDraining)
{
    // An event scheduled at the current time after a pop still runs
    // after every earlier-scheduled event at that time.
    EventQueue<int> eq;
    eq.schedule(1.0, 1);
    eq.schedule(1.0, 2);
    EXPECT_EQ(eq.pop(), 1);
    eq.schedule(1.0, 3);
    eq.schedule(2.0, 4);
    std::vector<int> order;
    while (!eq.empty())
        order.push_back(eq.pop());
    EXPECT_EQ(order, (std::vector<int>{2, 3, 4}));
}

TEST(EventQueue, ClearKeepsClockAndTieOrder)
{
    struct Payload
    {
        int kind;
        double x;
    };
    EventQueue<Payload> eq;
    eq.schedule(1.0, {0, 0.5});
    eq.schedule(3.0, {1, 1.5});
    EXPECT_EQ(eq.pop().kind, 0);
    eq.clear();
    EXPECT_TRUE(eq.empty());
    EXPECT_DOUBLE_EQ(eq.now(), 1.0);
    eq.schedule(1.0, {2, 2.5});
    eq.schedule(1.0, {3, 3.5});
    EXPECT_EQ(eq.pop().kind, 2);
    Payload last = eq.pop();
    EXPECT_EQ(last.kind, 3);
    EXPECT_DOUBLE_EQ(last.x, 3.5);
    EXPECT_EQ(eq.eventsExecuted(), 3u);
}

TEST(EventQueueDeath, PastSchedulingPanics)
{
    EventQueue<int> eq;
    eq.schedule(5.0, 0);
    eq.pop();
    EXPECT_DEATH(eq.schedule(1.0, 1), "past");
}

TEST(EventQueueDeath, PopOnEmptyPanics)
{
    EventQueue<int> eq;
    EXPECT_DEATH(eq.pop(), "empty");
    eq.schedule(1.0, 0);
    eq.pop();
    EXPECT_DEATH(eq.pop(), "empty");
}

/*
 * The sorted arrival lane must be invisible to pop order: any mix of
 * lane and heap pushes pops exactly as a single heap holding every
 * event. Timestamps sit on a 0.25 s grid so ties across the two lanes
 * are common, and clear() lands mid-run.
 */
TEST(EventQueue, ArrivalLaneMatchesSingleHeap)
{
    for (uint64_t seed = 1; seed <= 40; ++seed) {
        Rng rng(seed);
        EventQueue<int> lanes;  // lane + heap under test
        EventQueue<int> ref;    // every event in the heap
        double lane_back = 0.0;
        int next_id = 0;
        for (int op = 0; op < 600; ++op) {
            const int64_t roll = rng.uniformInt(0, 99);
            const double step = 0.25 * static_cast<double>(
                                           rng.uniformInt(0, 3));
            if (roll < 35) {
                lane_back = std::max(lane_back, lanes.now()) + step;
                lanes.scheduleInOrder(lane_back, next_id);
                ref.schedule(lane_back, next_id++);
            } else if (roll < 65) {
                const double t = lanes.now() + step;
                lanes.schedule(t, next_id);
                ref.schedule(t, next_id++);
            } else if (roll < 98) {
                ASSERT_EQ(lanes.empty(), ref.empty());
                if (ref.empty())
                    continue;
                ASSERT_EQ(lanes.nextTime(), ref.nextTime());
                ASSERT_EQ(lanes.pop(), ref.pop()) << "seed " << seed;
                ASSERT_EQ(lanes.now(), ref.now());
            } else {
                lanes.clear();
                ref.clear();
                lane_back = lanes.now();
            }
            ASSERT_EQ(lanes.peakDepth(), ref.peakDepth());
        }
        while (!ref.empty()) {
            ASSERT_FALSE(lanes.empty());
            ASSERT_EQ(lanes.pop(), ref.pop()) << "seed " << seed;
        }
        EXPECT_TRUE(lanes.empty());
        EXPECT_EQ(lanes.eventsExecuted(), ref.eventsExecuted());
        EXPECT_EQ(lanes.peakDepth(), ref.peakDepth());
    }
}

/*
 * An oracle independent of EventQueue: a sorted std::map keyed by
 * (t, seq) holds every pending event. Seeded random schedule,
 * scheduleInOrder, pop and clear ops must agree with it on every pop,
 * now(), nextTime(), empty() and peakDepth(). Times sit on a 0.25 s
 * grid (exact ties within and across the lanes), bursts push the
 * heap past 64 pending events, and pops and clear() free payload
 * slots that later schedules reuse.
 */
TEST(EventQueue, MatchesSortedModel)
{
    struct Payload
    {
        int id;
        double x;
    };
    for (uint64_t seed = 1; seed <= 30; ++seed) {
        Rng rng(seed);
        EventQueue<Payload> eq;
        std::map<std::pair<double, uint64_t>, int> model;
        uint64_t seq = 0;
        size_t peak = 0;
        uint64_t popped = 0;
        double now = 0.0;
        double lane_back = 0.0;
        int next_id = 0;
        size_t max_pending = 0;
        auto step = [&rng]() {
            return 0.25 * static_cast<double>(rng.uniformInt(0, 3));
        };
        auto push = [&](bool in_order) {
            double t;
            if (in_order) {
                lane_back = std::max(lane_back, now) + step();
                t = lane_back;
                eq.scheduleInOrder(t, Payload{next_id, 0.5 * next_id});
            } else {
                t = now + step();
                eq.schedule(t, Payload{next_id, 0.5 * next_id});
            }
            model.emplace(std::make_pair(t, seq++), next_id++);
            peak = std::max(peak, model.size());
            max_pending = std::max(max_pending, model.size());
        };
        for (int op = 0; op < 2000; ++op) {
            const int64_t roll = rng.uniformInt(0, 199);
            if (roll < 2) {
                // A burst: the heap grows well past 64 entries.
                const int64_t n = rng.uniformInt(65, 120);
                for (int64_t i = 0; i < n; ++i)
                    push(rng.uniformInt(0, 3) == 0);
            } else if (roll < 50) {
                push(true);
            } else if (roll < 100) {
                push(false);
            } else if (roll < 197) {
                ASSERT_EQ(eq.empty(), model.empty());
                if (model.empty())
                    continue;
                auto front = model.begin();
                ASSERT_EQ(eq.nextTime(), front->first.first);
                const Payload p = eq.pop();
                ASSERT_EQ(p.id, front->second) << "seed " << seed;
                ASSERT_EQ(p.x, 0.5 * front->second);
                now = front->first.first;
                model.erase(front);
                ++popped;
                ASSERT_EQ(eq.now(), now);
            } else {
                eq.clear();
                model.clear();
                lane_back = now;
                ASSERT_TRUE(eq.empty());
                ASSERT_EQ(eq.now(), now);
            }
            ASSERT_EQ(eq.peakDepth(), peak);
        }
        while (!model.empty()) {
            ASSERT_FALSE(eq.empty());
            ASSERT_EQ(eq.pop().id, model.begin()->second);
            model.erase(model.begin());
            ++popped;
        }
        EXPECT_TRUE(eq.empty());
        EXPECT_EQ(eq.eventsExecuted(), popped);
        EXPECT_GT(max_pending, 64u);
    }
}

TEST(EventQueueDeath, KeyOverflowPanics)
{
    using Queue = EventQueue<int>;
    const uint64_t max_slot = (uint64_t{1} << Queue::kSlotBits) - 1;
    const uint64_t max_seq = (uint64_t{1} << (64 - Queue::kSlotBits)) - 1;
    EXPECT_EQ(Queue::packKey(max_seq, max_slot), ~uint64_t{0});
    EXPECT_EQ(Queue::packKey(3, 5), (uint64_t{3} << Queue::kSlotBits) | 5);
    EXPECT_DEATH(Queue::packKey(0, max_slot + 1), "slot");
    EXPECT_DEATH(Queue::packKey(max_seq + 1, 0), "sequence number");
}

TEST(EventQueue, ArrivalLaneTiesPopInSchedulingOrder)
{
    EventQueue<int> eq;
    eq.scheduleInOrder(1.0, 0);
    eq.schedule(1.0, 1);
    eq.scheduleInOrder(1.0, 2);
    eq.schedule(0.5, 3);
    eq.scheduleInOrder(2.0, 4);
    eq.schedule(1.0, 5);
    std::vector<int> order;
    while (!eq.empty())
        order.push_back(eq.pop());
    EXPECT_EQ(order, (std::vector<int>{3, 0, 1, 2, 5, 4}));
}

TEST(EventQueue, PeakDepthCountsBothLanes)
{
    EventQueue<int> eq;
    eq.scheduleInOrder(1.0, 0);
    eq.scheduleInOrder(2.0, 1);
    eq.scheduleInOrder(3.0, 2);
    eq.schedule(1.5, 3);
    EXPECT_EQ(eq.peakDepth(), 4u);
    EXPECT_EQ(eq.pop(), 0);
    eq.schedule(4.0, 4);
    EXPECT_EQ(eq.peakDepth(), 4u);
    eq.schedule(5.0, 5);
    EXPECT_EQ(eq.peakDepth(), 5u);
    eq.clear();
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.peakDepth(), 5u);  // survives clear()
    // After clear() the lane is empty: only now() bounds the next push.
    eq.scheduleInOrder(1.0, 6);
    EXPECT_DOUBLE_EQ(eq.nextTime(), 1.0);
    EXPECT_EQ(eq.pop(), 6);
}

TEST(EventQueueDeath, ArrivalLaneBackwardsPanics)
{
    EventQueue<int> eq;
    eq.scheduleInOrder(2.0, 0);
    eq.schedule(0.5, 1);  // the heap does not constrain the lane
    EXPECT_DEATH(eq.scheduleInOrder(1.0, 2), "backwards");
}

TEST(EventQueueDeath, ArrivalLanePastSchedulingPanics)
{
    EventQueue<int> eq;
    eq.schedule(5.0, 0);
    eq.pop();
    EXPECT_DEATH(eq.scheduleInOrder(4.0, 1), "past");
}

TEST(Validate, CoreOversubscriptionRejected)
{
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    auto err = validateConfig(hw::serverSpec(ServerType::T2), m,
                              cpuConfig(21, 1, 64));
    ASSERT_TRUE(err.has_value());
    EXPECT_NE(err->find("cores"), std::string::npos);
}

TEST(Validate, HostMemoryRejected)
{
    // The 38 GB DLRM-RMC2 cannot be placed twice... but a single copy
    // always fits; instead check a small host with an artificially huge
    // model by validating DIN on T1 (39 GB of 64 GB: fits), so craft an
    // oversized model directly.
    model::Model m = model::buildModel(ModelId::DlrmRmc2);
    model::EmbeddingParams huge;
    huge.rows = 3'000'000'000ll;
    huge.emb_dim = 32;
    huge.pooled = true;
    huge.pooling_min = huge.pooling_max = 10;
    m.graph.addNode("huge", huge, model::Stage::Sparse);
    auto err = validateConfig(hw::serverSpec(ServerType::T1), m,
                              cpuConfig(4, 1, 64));
    ASSERT_TRUE(err.has_value());
    EXPECT_NE(err->find("memory"), std::string::npos);
}

TEST(Validate, GpuMappingNeedsGpu)
{
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    SchedulingConfig cfg;
    cfg.mapping = Mapping::GpuModelBased;
    cfg.gpu_threads = 1;
    cfg.cpu_threads = 1;
    auto err =
        validateConfig(hw::serverSpec(ServerType::T2), m, cfg);
    ASSERT_TRUE(err.has_value());
}

TEST(Validate, AcceptsReasonableConfigs)
{
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    EXPECT_FALSE(validateConfig(hw::serverSpec(ServerType::T2), m,
                                cpuConfig(10, 2, 128))
                     .has_value());
}

TEST(Prepare, HotSplitComputedForGpuModelBased)
{
    model::Model m = model::buildModel(ModelId::DlrmRmc1);  // 3 GB prod
    SchedulingConfig cfg;
    cfg.mapping = Mapping::GpuModelBased;
    cfg.gpu_threads = 1;
    cfg.fusion_limit = 2000;
    cfg.cpu_threads = 2;
    PreparedWorkload w =
        prepare(hw::serverSpec(ServerType::T7), m, cfg);
    // 3 GB of embeddings fit a 16 GB V100 minus reserve: fully hot.
    EXPECT_DOUBLE_EQ(w.gpu_cx.hot_hit_rate, 1.0);

    cfg.gpu_threads = 6;  // per-thread budget ~2.2 GB: partial split
    PreparedWorkload w6 =
        prepare(hw::serverSpec(ServerType::T7), m, cfg);
    EXPECT_LT(w6.gpu_cx.hot_hit_rate, 1.0);
    EXPECT_GT(w6.gpu_cx.hot_hit_rate, 0.0);
    EXPECT_NEAR(w6.cold_cx.pooling_scale, 1.0 - w6.gpu_cx.hot_hit_rate,
                1e-12);
}

TEST(Prepare, ElementwiseFusionToggle)
{
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    SchedulingConfig cfg = cpuConfig(4, 1, 64);
    cfg.fuse_elementwise = true;
    PreparedWorkload fused =
        prepare(hw::serverSpec(ServerType::T2), m, cfg);
    cfg.fuse_elementwise = false;
    PreparedWorkload raw =
        prepare(hw::serverSpec(ServerType::T2), m, cfg);
    EXPECT_LT(fused.full.size(), raw.full.size());
}

TEST(Engine, AllQueriesComplete)
{
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    ServerSimResult r =
        simulateServer(hw::serverSpec(ServerType::T2), m,
                       cpuConfig(10, 2, 128), fastOptions(500));
    // Work conservation: every post-warmup query completes.
    EXPECT_EQ(r.completed, 300u - 60u);
    EXPECT_GT(r.achieved_qps, 0.0);
    EXPECT_GT(r.duration_s, 0.0);
}

TEST(Engine, Deterministic)
{
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    ServerSimResult a =
        simulateServer(hw::serverSpec(ServerType::T2), m,
                       cpuConfig(10, 2, 128), fastOptions(500));
    ServerSimResult b =
        simulateServer(hw::serverSpec(ServerType::T2), m,
                       cpuConfig(10, 2, 128), fastOptions(500));
    EXPECT_DOUBLE_EQ(a.p95_ms, b.p95_ms);
    EXPECT_DOUBLE_EQ(a.achieved_qps, b.achieved_qps);
    EXPECT_DOUBLE_EQ(a.avg_power_w, b.avg_power_w);
}

TEST(Engine, LatencyGrowsWithLoad)
{
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    SchedulingConfig cfg = cpuConfig(10, 2, 128);
    double light =
        simulateServer(hw::serverSpec(ServerType::T2), m, cfg,
                       fastOptions(200))
            .p95_ms;
    double heavy =
        simulateServer(hw::serverSpec(ServerType::T2), m, cfg,
                       fastOptions(2500))
            .p95_ms;
    EXPECT_GT(heavy, light);
}

TEST(Engine, SaturationModeMeasuresCapacity)
{
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    SimOptions opt = fastOptions(1.0);
    opt.saturate = true;
    ServerSimResult r = simulateServer(
        hw::serverSpec(ServerType::T2), m, cpuConfig(10, 2, 128), opt);
    EXPECT_GT(r.achieved_qps, 100.0);
    // Under saturation the dispatcher queue dominates latency.
    EXPECT_GT(r.mean_queue_ms, 0.0);
}

TEST(Engine, UtilizationsBounded)
{
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    ServerSimResult r =
        simulateServer(hw::serverSpec(ServerType::T2), m,
                       cpuConfig(20, 1, 64), fastOptions(1500));
    EXPECT_GE(r.cpu_util, 0.0);
    EXPECT_LE(r.cpu_util, 1.0);
    EXPECT_GE(r.mem_bw_util, 0.0);
    EXPECT_LE(r.mem_bw_util, 1.0);
    EXPECT_DOUBLE_EQ(r.gpu_util, 0.0);
    EXPECT_GT(r.cpu_util, 0.05);
}

TEST(Engine, PowerWithinPhysicalBounds)
{
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    const hw::ServerSpec& server = hw::serverSpec(ServerType::T2);
    ServerSimResult r = simulateServer(server, m, cpuConfig(10, 2, 128),
                                       fastOptions(1000));
    hw::PowerModel pm(server);
    EXPECT_GE(r.avg_power_w, pm.idlePowerW() - 1e-9);
    EXPECT_LE(r.peak_power_w, pm.peakPowerW() + 1e-9);
    EXPECT_GE(r.peak_power_w, r.avg_power_w);
}

TEST(Engine, SdPipelineCompletesAndUsesDenseThreads)
{
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    SchedulingConfig cfg;
    cfg.mapping = Mapping::CpuSdPipeline;
    cfg.cpu_threads = 6;
    cfg.cores_per_thread = 2;
    cfg.dense_threads = 4;
    cfg.batch = 128;
    ServerSimResult r = simulateServer(hw::serverSpec(ServerType::T2), m,
                                       cfg, fastOptions(800));
    EXPECT_EQ(r.completed, 240u);
    EXPECT_GT(r.mean_exec_ms, 0.0);
}

TEST(Engine, GpuFusionCompletes)
{
    model::Model m = model::buildModel(ModelId::DlrmRmc3, Variant::Small);
    SchedulingConfig cfg;
    cfg.mapping = Mapping::GpuModelBased;
    cfg.gpu_threads = 2;
    cfg.fusion_limit = 2000;
    cfg.cpu_threads = 2;
    ServerSimResult r = simulateServer(hw::serverSpec(ServerType::T7), m,
                                       cfg, fastOptions(2000));
    EXPECT_EQ(r.completed, 240u);
    EXPECT_GT(r.gpu_util, 0.0);
    EXPECT_GT(r.pcie_util, 0.0);
    EXPECT_GT(r.mean_load_ms, 0.0);
}

TEST(Engine, GpuSdPipelineCompletes)
{
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    SchedulingConfig cfg;
    cfg.mapping = Mapping::GpuSdPipeline;
    cfg.cpu_threads = 8;
    cfg.cores_per_thread = 2;
    cfg.batch = 128;
    cfg.gpu_threads = 2;
    cfg.fusion_limit = 2000;
    ServerSimResult r = simulateServer(hw::serverSpec(ServerType::T7), m,
                                       cfg, fastOptions(1000));
    EXPECT_EQ(r.completed, 240u);
    EXPECT_GT(r.gpu_util, 0.0);
    EXPECT_GT(r.cpu_util, 0.0);
}

TEST(Engine, FusionReducesDispatches)
{
    // With fusion, the same load is served in fewer, larger batches:
    // per-query exec time rises but throughput capacity grows.
    model::Model m = model::buildModel(ModelId::MtWnd, Variant::Small);
    SchedulingConfig no_fusion;
    no_fusion.mapping = Mapping::GpuModelBased;
    no_fusion.gpu_threads = 1;
    no_fusion.fusion_limit = 0;
    no_fusion.cpu_threads = 1;
    SchedulingConfig fused = no_fusion;
    fused.fusion_limit = 6000;

    SimOptions sat = fastOptions(1.0);
    sat.saturate = true;
    double cap_plain = simulateServer(hw::serverSpec(ServerType::T7), m,
                                      no_fusion, sat)
                           .achieved_qps;
    double cap_fused = simulateServer(hw::serverSpec(ServerType::T7), m,
                                      fused, sat)
                           .achieved_qps;
    EXPECT_GT(cap_fused, 2.0 * cap_plain);
}

TEST(Engine, NmpUtilizationReported)
{
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    ServerSimResult r =
        simulateServer(hw::serverSpec(ServerType::T3), m,
                       cpuConfig(10, 2, 128), fastOptions(2000));
    EXPECT_GT(r.nmp_util, 0.0);
}

TEST(EngineDeath, WarmupMustBeBelowTotal)
{
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    SimOptions opt;
    opt.num_queries = 10;
    opt.warmup_queries = 10;
    EXPECT_DEATH(simulateServer(hw::serverSpec(ServerType::T2), m,
                                cpuConfig(4, 1, 64), opt),
                 "exceed");
}

TEST(EngineDeath, NonPositiveRateIsFatal)
{
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    PreparedWorkload w = prepare(hw::serverSpec(ServerType::T2), m,
                                 cpuConfig(4, 1, 64));
    SimOptions opt = fastOptions(0.0);
    EXPECT_DEATH(simulateServer(w, opt), "non-positive");
    opt.offered_qps = -5.0;
    EXPECT_DEATH(simulateServer(w, opt), "non-positive");
    // A capacity probe ignores the rate.
    opt.saturate = true;
    EXPECT_GT(simulateServer(w, opt).achieved_qps, 0.0);
}

/** Conservation across mappings and models (property sweep). */
class EngineConservation
    : public ::testing::TestWithParam<std::tuple<ModelId, int>>
{
};

TEST_P(EngineConservation, EveryQueryCompletesOnce)
{
    auto [mid, threads] = GetParam();
    model::Model m = model::buildModel(mid);
    SimOptions opt = fastOptions(300);
    opt.num_queries = 200;
    opt.warmup_queries = 40;
    ServerSimResult r = simulateServer(hw::serverSpec(ServerType::T2), m,
                                       cpuConfig(threads, 2, 128), opt);
    EXPECT_EQ(r.completed, 160u);
}

INSTANTIATE_TEST_SUITE_P(
    ModelsAndThreads, EngineConservation,
    ::testing::Combine(::testing::ValuesIn(model::allModels()),
                       ::testing::Values(2, 6, 10)));

}  // namespace
}  // namespace hercules::sim
