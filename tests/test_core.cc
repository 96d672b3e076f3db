/**
 * @file
 * Tests of the Hercules core: efficiency-table bookkeeping, server
 * ranking (workload classification), CSV persistence and the offline
 * profiler / online-setup flows.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <string>

#include "core/profiler.h"

namespace hercules::core {
namespace {

using hw::ServerType;
using model::ModelId;

EfficiencyEntry
entry(ServerType s, ModelId m, double qps, double power)
{
    EfficiencyEntry e;
    e.server = s;
    e.model = m;
    e.feasible = qps > 0.0;
    e.qps = qps;
    e.power_w = power;
    e.avg_power_w = power * 0.8;
    e.qps_per_watt = power > 0.0 ? qps / (power * 0.8) : 0.0;
    return e;
}

TEST(EfficiencyTable, SetAndGet)
{
    EfficiencyTable t;
    t.set(entry(ServerType::T2, ModelId::DlrmRmc1, 1000, 150));
    const EfficiencyEntry* e =
        t.get(ServerType::T2, ModelId::DlrmRmc1);
    ASSERT_NE(e, nullptr);
    EXPECT_DOUBLE_EQ(e->qps, 1000.0);
    EXPECT_EQ(t.get(ServerType::T3, ModelId::DlrmRmc1), nullptr);
}

TEST(EfficiencyTable, SetReplacesExisting)
{
    EfficiencyTable t;
    t.set(entry(ServerType::T2, ModelId::DlrmRmc1, 1000, 150));
    t.set(entry(ServerType::T2, ModelId::DlrmRmc1, 2000, 150));
    EXPECT_EQ(t.entries().size(), 1u);
    EXPECT_DOUBLE_EQ(t.get(ServerType::T2, ModelId::DlrmRmc1)->qps,
                     2000.0);
}

TEST(EfficiencyTable, RankByEnergyEfficiency)
{
    EfficiencyTable t;
    t.set(entry(ServerType::T2, ModelId::DlrmRmc1, 2500, 160));  // 19.5
    t.set(entry(ServerType::T3, ModelId::DlrmRmc1, 4400, 165));  // 33.3
    t.set(entry(ServerType::T7, ModelId::DlrmRmc1, 3200, 250));  // 16.0
    auto ranked = t.rank(ModelId::DlrmRmc1, true);
    ASSERT_EQ(ranked.size(), 3u);
    EXPECT_EQ(ranked[0], ServerType::T3);
    EXPECT_EQ(ranked[1], ServerType::T2);
    EXPECT_EQ(ranked[2], ServerType::T7);
}

TEST(EfficiencyTable, RankByQps)
{
    EfficiencyTable t;
    t.set(entry(ServerType::T2, ModelId::DlrmRmc1, 2500, 160));
    t.set(entry(ServerType::T3, ModelId::DlrmRmc1, 4400, 165));
    auto ranked = t.rank(ModelId::DlrmRmc1, false);
    EXPECT_EQ(ranked[0], ServerType::T3);
}

TEST(EfficiencyTable, RankExcludesInfeasible)
{
    EfficiencyTable t;
    t.set(entry(ServerType::T2, ModelId::Din, 1000, 150));
    t.set(entry(ServerType::T6, ModelId::Din, 0, 0));  // infeasible
    auto ranked = t.rank(ModelId::Din);
    EXPECT_EQ(ranked.size(), 1u);
}

TEST(EfficiencyTable, RankPerModelIndependent)
{
    EfficiencyTable t;
    t.set(entry(ServerType::T2, ModelId::DlrmRmc1, 1000, 100));
    t.set(entry(ServerType::T3, ModelId::DlrmRmc2, 1000, 100));
    EXPECT_EQ(t.rank(ModelId::DlrmRmc1).size(), 1u);
    EXPECT_EQ(t.rank(ModelId::DlrmRmc2).size(), 1u);
    EXPECT_EQ(t.rank(ModelId::Din).size(), 0u);
}

TEST(EfficiencyTable, CsvRoundtrip)
{
    EfficiencyTable t;
    EfficiencyEntry a = entry(ServerType::T2, ModelId::DlrmRmc1, 2500,
                              160);
    a.config.mapping = sched::Mapping::CpuSdPipeline;
    a.config.cpu_threads = 7;
    a.config.cores_per_thread = 2;
    a.config.dense_threads = 6;
    a.config.batch = 64;
    t.set(a);
    EfficiencyEntry b = entry(ServerType::T10, ModelId::Dien, 900, 380);
    b.config.mapping = sched::Mapping::GpuModelBased;
    b.config.gpu_threads = 2;
    b.config.fusion_limit = 4000;
    b.config.cpu_threads = 1;
    b.config.fuse_elementwise = false;
    t.set(b);
    std::string path = ::testing::TempDir() + "/hercules_eff.csv";
    t.writeCsv(path, "roundtrip");
    EfficiencyTable back = EfficiencyTable::readCsv(path);
    ASSERT_EQ(back.entries().size(), 2u);
    const EfficiencyEntry* e =
        back.get(ServerType::T10, ModelId::Dien);
    ASSERT_NE(e, nullptr);
    EXPECT_NEAR(e->qps, 900.0, 1e-6);
    EXPECT_NEAR(e->power_w, 380.0, 1e-6);
    // The task-scheduling config must survive persistence: cached
    // tuples are re-prepared and simulated by the serving layer.
    EXPECT_EQ(e->config.key(), b.config.key());
    EXPECT_EQ(back.get(ServerType::T2, ModelId::DlrmRmc1)->config.key(),
              a.config.key());
    std::remove(path.c_str());
}

TEST(EfficiencyTable, StaleCacheIsRejectedNotMisread)
{
    // Caches from older builds stored config.str() ("cpu-model 10x2
    // b128") instead of the canonical key; silently defaulting the
    // config would under-provision every simulated shard.
    std::string path = ::testing::TempDir() + "/hercules_stale.csv";
    FILE* f = fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fprintf(f, "server,model,feasible,qps,power_w,avg_power_w,"
               "qps_per_watt,config\n");
    fprintf(f, "T2,DLRM-RMC1,1,2500,160,128,19.5,cpu-model 10x2 b128\n");
    fclose(f);
    std::string provenance;
    EXPECT_FALSE(EfficiencyTable::tryReadCsv(path, &provenance).has_value());
    EXPECT_DEATH(EfficiencyTable::readCsv(path), "older build");
    std::remove(path.c_str());
}

TEST(EfficiencyTable, ConfigKeyRoundtrip)
{
    sched::SchedulingConfig cfg;
    cfg.mapping = sched::Mapping::GpuSdPipeline;
    cfg.cpu_threads = 9;
    cfg.cores_per_thread = 3;
    cfg.dense_threads = 0;
    cfg.batch = 128;
    cfg.gpu_threads = 4;
    cfg.fusion_limit = 6000;
    cfg.fuse_elementwise = false;
    auto parsed = sched::SchedulingConfig::fromKey(cfg.key());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->key(), cfg.key());
    EXPECT_FALSE(sched::SchedulingConfig::fromKey("").has_value());
    EXPECT_FALSE(
        sched::SchedulingConfig::fromKey("cpu-sd 7x2::6 b64").has_value());
    EXPECT_FALSE(sched::SchedulingConfig::fromKey("m=1;t=4").has_value());
    // Duplicate fields and negative counts are corruption, not configs.
    EXPECT_FALSE(sched::SchedulingConfig::fromKey(
                     "m=0;t=4;t=4;t=4;t=4;t=4;t=4;t=4")
                     .has_value());
    EXPECT_FALSE(sched::SchedulingConfig::fromKey(
                     "m=0;t=-3;o=1;dt=0;b=64;g=0;f=0;fe=1")
                     .has_value());
}

sched::SearchOptions
fastSearch()
{
    sched::SearchOptions opt;
    opt.measure.sim.num_queries = 250;
    opt.measure.sim.warmup_queries = 50;
    opt.measure.bisect_iters = 5;
    opt.space.batches = {64, 256};
    opt.space.fusion_limits = {0, 2000};
    opt.space.max_gpu_threads = 2;
    opt.space.host_helper_threads = {2};
    return opt;
}

TEST(Profiler, ProfilePairProducesTuple)
{
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    EfficiencyEntry e = profilePair(hw::serverSpec(ServerType::T2), m,
                                    20.0, fastSearch());
    EXPECT_TRUE(e.feasible);
    EXPECT_GT(e.qps, 0.0);
    EXPECT_GT(e.power_w, 0.0);
    EXPECT_GT(e.qps_per_watt, 0.0);
    EXPECT_EQ(e.server, ServerType::T2);
    EXPECT_EQ(e.model, ModelId::DlrmRmc1);
}

TEST(Profiler, OfflineProfileSubset)
{
    ProfilerOptions opt;
    opt.search = fastSearch();
    opt.servers = {ServerType::T2, ServerType::T3};
    opt.models = {ModelId::DlrmRmc1};
    EfficiencyTable t = offlineProfile(opt);
    EXPECT_EQ(t.entries().size(), 2u);
    const EfficiencyEntry* t2 = t.get(ServerType::T2, ModelId::DlrmRmc1);
    const EfficiencyEntry* t3 = t.get(ServerType::T3, ModelId::DlrmRmc1);
    ASSERT_TRUE(t2 && t3);
    // Fig 8(a): the NMP server is the better RMC1 machine.
    EXPECT_GT(t3->qps, t2->qps);
    EXPECT_GT(t3->qps_per_watt, t2->qps_per_watt);
}

/*
 * A profiled table read back from its CSV is the table that was
 * profiled, every double bit for bit: a scenario that reuses its
 * table cache serves the tuples its cold run measured.
 */
TEST(Profiler, ProfiledTableSurvivesCsvRoundTrip)
{
    ProfilerOptions opt;
    opt.search = fastSearch();
    opt.servers = {ServerType::T2, ServerType::T3};
    opt.models = {ModelId::DlrmRmc1, ModelId::DlrmRmc2};
    const EfficiencyTable t = offlineProfile(opt);
    ASSERT_EQ(t.entries().size(), 4u);
    const std::string path = ::testing::TempDir() + "/hercules_profiled.csv";
    t.writeCsv(path, "fp=test");
    std::string provenance;
    const std::optional<EfficiencyTable> back =
        EfficiencyTable::tryReadCsv(path, &provenance);
    std::remove(path.c_str());
    ASSERT_TRUE(back.has_value());
    EXPECT_TRUE(*back == t);
    EXPECT_EQ(provenance, "fp=test");
}

TEST(Profiler, OnlineSetupHonoursPowerBudget)
{
    model::Model m = model::buildModel(ModelId::DlrmRmc1);
    EfficiencyEntry unconstrained = profilePair(
        hw::serverSpec(ServerType::T2), m, 20.0, fastSearch());
    ASSERT_TRUE(unconstrained.feasible);
    double budget = unconstrained.power_w - 4.0;
    EfficiencyEntry constrained =
        onlineSetup(hw::serverSpec(ServerType::T2), m, 20.0, budget,
                    fastSearch());
    if (constrained.feasible) {
        EXPECT_LE(constrained.power_w, budget + 1e-9);
        EXPECT_LE(constrained.qps, unconstrained.qps + 1e-6);
    }
}

TEST(Profiler, SlaOverrideApplies)
{
    ProfilerOptions opt;
    opt.search = fastSearch();
    opt.servers = {ServerType::T2};
    opt.models = {ModelId::DlrmRmc1};
    opt.sla_ms_override = 100.0;
    EfficiencyTable loose = offlineProfile(opt);
    opt.sla_ms_override = 5.0;
    EfficiencyTable tight = offlineProfile(opt);
    const auto* l = loose.get(ServerType::T2, ModelId::DlrmRmc1);
    const auto* t = tight.get(ServerType::T2, ModelId::DlrmRmc1);
    ASSERT_TRUE(l && t);
    if (l->feasible && t->feasible) {
        EXPECT_GE(l->qps, t->qps * 0.9);
    }
}

}  // namespace
}  // namespace hercules::core
