/**
 * @file
 * Tests of the latency-bounded throughput measurement: monotonicity in
 * the SLA target, power-budget enforcement, infeasibility detection and
 * consistency with the saturation capacity.
 */
#include <gtest/gtest.h>

#include "sim/measure.h"

namespace hercules::sim {
namespace {

using hw::ServerType;
using model::ModelId;

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

MeasureOptions
fastMeasure()
{
    MeasureOptions mo;
    mo.sim.num_queries = 300;
    mo.sim.warmup_queries = 60;
    mo.sim.seed = 42;
    mo.bisect_iters = 5;
    return mo;
}

TEST(Measure, SaturationPositive)
{
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    PreparedWorkload w = prepare(hw::serverSpec(ServerType::T2), m,
                                 cpuConfig(10, 2, 128));
    double cap = saturationQps(w, fastMeasure().sim);
    EXPECT_GT(cap, 100.0);
}

TEST(Measure, OperatingPointMeetsSla)
{
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    PreparedWorkload w = prepare(hw::serverSpec(ServerType::T2), m,
                                 cpuConfig(10, 2, 128));
    auto point = measureLatencyBoundedQps(w, 20.0, fastMeasure());
    ASSERT_TRUE(point.has_value());
    EXPECT_LE(point->result.tail_ms, 20.0);
    EXPECT_GT(point->qps, 0.0);
}

TEST(Measure, QpsBelowSaturation)
{
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    PreparedWorkload w = prepare(hw::serverSpec(ServerType::T2), m,
                                 cpuConfig(10, 2, 128));
    double cap = saturationQps(w, fastMeasure().sim);
    auto point = measureLatencyBoundedQps(w, 20.0, fastMeasure());
    ASSERT_TRUE(point.has_value());
    EXPECT_LE(point->qps, cap * 1.10);
}

TEST(Measure, MonotoneInSla)
{
    // A looser SLA can never lower the latency-bounded throughput
    // (within bisection noise).
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    PreparedWorkload w = prepare(hw::serverSpec(ServerType::T2), m,
                                 cpuConfig(10, 2, 64));
    double prev = 0.0;
    for (double sla : {8.0, 20.0, 100.0}) {
        auto point = measureLatencyBoundedQps(w, sla, fastMeasure());
        ASSERT_TRUE(point.has_value()) << "SLA " << sla;
        EXPECT_GE(point->qps, prev * 0.93) << "SLA " << sla;
        prev = point->qps;
    }
}

TEST(Measure, ImpossibleSlaIsInfeasible)
{
    // Sub-service-time SLA: even one query misses the target.
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    PreparedWorkload w = prepare(hw::serverSpec(ServerType::T2), m,
                                 cpuConfig(1, 1, 1024));
    auto point = measureLatencyBoundedQps(w, 0.05, fastMeasure());
    EXPECT_FALSE(point.has_value());
}

TEST(Measure, PowerBudgetConstrains)
{
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    PreparedWorkload w = prepare(hw::serverSpec(ServerType::T2), m,
                                 cpuConfig(10, 2, 128));
    MeasureOptions unconstrained = fastMeasure();
    auto free_point = measureLatencyBoundedQps(w, 20.0, unconstrained);
    ASSERT_TRUE(free_point.has_value());

    MeasureOptions tight = fastMeasure();
    // A budget below the free operating point's peak forces a lower
    // (cooler) operating point.
    tight.power_budget_w = free_point->result.peak_power_w - 3.0;
    auto tight_point = measureLatencyBoundedQps(w, 20.0, tight);
    if (tight_point) {
        EXPECT_LE(tight_point->result.peak_power_w,
                  tight.power_budget_w + 1e-9);
        EXPECT_LE(tight_point->qps, free_point->qps);
    }
    // An absurd budget (below idle) must be infeasible.
    MeasureOptions absurd = fastMeasure();
    absurd.power_budget_w = 1.0;
    EXPECT_FALSE(measureLatencyBoundedQps(w, 20.0, absurd).has_value());
}

TEST(Measure, DeterministicAcrossCalls)
{
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    PreparedWorkload w = prepare(hw::serverSpec(ServerType::T2), m,
                                 cpuConfig(8, 2, 128));
    auto a = measureLatencyBoundedQps(w, 20.0, fastMeasure());
    auto b = measureLatencyBoundedQps(w, 20.0, fastMeasure());
    ASSERT_TRUE(a && b);
    EXPECT_DOUBLE_EQ(a->qps, b->qps);
}

TEST(MeasureDeath, NonPositiveSla)
{
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    PreparedWorkload w = prepare(hw::serverSpec(ServerType::T2), m,
                                 cpuConfig(4, 1, 64));
    EXPECT_DEATH(measureLatencyBoundedQps(w, 0.0, fastMeasure()),
                 "non-positive");
}

/**
 * Fig 4 headline: 10 threads x 2 cores beats DeepRecSys's 20 x 1 on
 * DLRM-RMC1 at tight SLAs.
 */
TEST(Fig4Shape, TenByTwoBeatsTwentyByOne)
{
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    const hw::ServerSpec& t2 = hw::serverSpec(ServerType::T2);
    MeasureOptions mo = fastMeasure();
    mo.sim.num_queries = 500;
    mo.sim.warmup_queries = 100;
    auto drs = measureLatencyBoundedQps(
        prepare(t2, m, cpuConfig(20, 1, 64)), 20.0, mo);
    auto ten_two = measureLatencyBoundedQps(
        prepare(t2, m, cpuConfig(10, 2, 64)), 20.0, mo);
    ASSERT_TRUE(drs && ten_two);
    EXPECT_GT(ten_two->qps, drs->qps);
    // Paper: up to ~1.35x; accept anything in (1.0, 1.8).
    EXPECT_LT(ten_two->qps / drs->qps, 1.8);
}

/** SLA monotonicity as a property over models. */
class MeasureEveryModel : public ::testing::TestWithParam<ModelId>
{
};

TEST_P(MeasureEveryModel, FeasibleAtDefaultSla)
{
    // Small batches keep per-batch service time well under every
    // model's SLA target on the CPU-T2 host.
    model::Model m = model::buildModel(GetParam());
    PreparedWorkload w = prepare(hw::serverSpec(ServerType::T2), m,
                                 cpuConfig(10, 2, 32));
    auto point = measureLatencyBoundedQps(w, m.sla_ms, fastMeasure());
    ASSERT_TRUE(point.has_value()) << m.name;
    EXPECT_LE(point->result.tail_ms, m.sla_ms) << m.name;
}

INSTANTIATE_TEST_SUITE_P(AllModels, MeasureEveryModel,
                         ::testing::ValuesIn(model::allModels()));

}  // namespace
}  // namespace hercules::sim
