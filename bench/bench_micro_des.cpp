/**
 * @file
 * google-benchmark microbenchmarks of the serving simulator: one DES
 * run per mapping, a latency-bounded measurement, one gradient-search
 * step cost, and the NMP LUT pre-simulation — the building blocks whose
 * cost bounds offline-profiling time. The custom main additionally runs
 * a DES self-profiling probe and emits BENCH_micro_des.json with the
 * raw engine throughput (events executed, median/min/max wall time over
 * repeated runs, events/sec, peak event-queue depth) so the
 * event-engine trajectory is tracked across changes.
 */
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "bench_common.h"
#include "hw/nmp.h"
#include "obs/self_profile.h"
#include "sched/gradient_search.h"
#include "sim/measure.h"

using namespace hercules;

namespace {

sim::SimOptions
probeOptions()
{
    sim::SimOptions opt;
    opt.num_queries = 400;
    opt.warmup_queries = 80;
    opt.offered_qps = 800.0;
    return opt;
}

void
BM_DesCpuModelBased(benchmark::State& state)
{
    model::Model m = model::buildModel(model::ModelId::DlrmRmc1);
    sched::SchedulingConfig cfg;
    cfg.mapping = sched::Mapping::CpuModelBased;
    cfg.cpu_threads = 10;
    cfg.cores_per_thread = 2;
    cfg.batch = 128;
    sim::PreparedWorkload w =
        sim::prepare(hw::serverSpec(hw::ServerType::T2), m, cfg);
    sim::SimOptions opt = probeOptions();
    for (auto _ : state) {
        sim::ServerSimResult r = sim::simulateServer(w, opt);
        benchmark::DoNotOptimize(r.p95_ms);
    }
}
BENCHMARK(BM_DesCpuModelBased);

void
BM_DesCpuSdPipeline(benchmark::State& state)
{
    model::Model m = model::buildModel(model::ModelId::DlrmRmc1);
    sched::SchedulingConfig cfg;
    cfg.mapping = sched::Mapping::CpuSdPipeline;
    cfg.cpu_threads = 6;
    cfg.cores_per_thread = 2;
    cfg.dense_threads = 4;
    cfg.batch = 128;
    sim::PreparedWorkload w =
        sim::prepare(hw::serverSpec(hw::ServerType::T2), m, cfg);
    sim::SimOptions opt = probeOptions();
    for (auto _ : state) {
        sim::ServerSimResult r = sim::simulateServer(w, opt);
        benchmark::DoNotOptimize(r.p95_ms);
    }
}
BENCHMARK(BM_DesCpuSdPipeline);

void
BM_DesGpuFusion(benchmark::State& state)
{
    model::Model m =
        model::buildModel(model::ModelId::DlrmRmc3, model::Variant::Small);
    sched::SchedulingConfig cfg;
    cfg.mapping = sched::Mapping::GpuModelBased;
    cfg.gpu_threads = 2;
    cfg.fusion_limit = static_cast<int>(state.range(0));
    cfg.cpu_threads = 2;
    sim::PreparedWorkload w =
        sim::prepare(hw::serverSpec(hw::ServerType::T7), m, cfg);
    sim::SimOptions opt = probeOptions();
    opt.offered_qps = 2000.0;
    for (auto _ : state) {
        sim::ServerSimResult r = sim::simulateServer(w, opt);
        benchmark::DoNotOptimize(r.p95_ms);
    }
}
BENCHMARK(BM_DesGpuFusion)->Arg(0)->Arg(2000)->Arg(6000);

void
BM_MeasureLatencyBounded(benchmark::State& state)
{
    model::Model m = model::buildModel(model::ModelId::DlrmRmc1);
    sched::SchedulingConfig cfg;
    cfg.mapping = sched::Mapping::CpuModelBased;
    cfg.cpu_threads = 10;
    cfg.cores_per_thread = 2;
    cfg.batch = 128;
    sim::PreparedWorkload w =
        sim::prepare(hw::serverSpec(hw::ServerType::T2), m, cfg);
    sim::MeasureOptions mo;
    mo.sim = probeOptions();
    mo.bisect_iters = 5;
    for (auto _ : state) {
        auto point = sim::measureLatencyBoundedQps(w, 20.0, mo);
        benchmark::DoNotOptimize(point.has_value());
    }
}
BENCHMARK(BM_MeasureLatencyBounded);

void
BM_GradientSearchCpu(benchmark::State& state)
{
    model::Model m = model::buildModel(model::ModelId::DlrmRmc1);
    sched::SearchOptions opt;
    opt.measure.sim = probeOptions();
    opt.measure.bisect_iters = 4;
    for (auto _ : state) {
        sched::SearchResult r = sched::gradientSearchMapping(
            hw::serverSpec(hw::ServerType::T2), m,
            sched::Mapping::CpuModelBased, 20.0, opt);
        benchmark::DoNotOptimize(r.best_qps);
    }
}
BENCHMARK(BM_GradientSearchCpu)->Unit(benchmark::kMillisecond);

void
BM_NmpLutBuild(benchmark::State& state)
{
    hw::MemSpec mem = hw::nmpX(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        hw::NmpLut lut(mem, 32);
        benchmark::DoNotOptimize(lut.lookup(256, 80).latency_us);
    }
}
BENCHMARK(BM_NmpLutBuild)->Arg(2)->Arg(8);

void
BM_CpuGraphTiming(benchmark::State& state)
{
    model::Model m = model::buildModel(model::ModelId::DlrmRmc2);
    hw::CostModel cost(hw::serverSpec(hw::ServerType::T2));
    hw::CpuExecContext cx;
    cx.workers = 2;
    cx.mem_bw_gbps = 5.0;
    for (auto _ : state) {
        hw::GraphTiming t = cost.cpuGraphTiming(m.graph, 256, cx);
        benchmark::DoNotOptimize(t.latency_us);
    }
}
BENCHMARK(BM_CpuGraphTiming);

/**
 * DES self-profiling probe: one long simulateServer run per mapping,
 * timed end to end and repeated kProbeReps times. Events/sec here is
 * raw event-engine throughput — the number the ROADMAP gates the DES
 * trajectory on. A single short run is too noisy to show an engine
 * change, so the probe reports the median wall time (and the events/sec
 * it implies) together with the fastest and slowest repetition.
 */
constexpr int kProbeReps = 5;

struct DesProbe
{
    const char* name;
    uint64_t events_executed;
    size_t peak_event_queue_depth;
    double wall_ms;  ///< median over kProbeReps
    double wall_ms_min;
    double wall_ms_max;
    double events_per_sec;  ///< at the median wall time
};

DesProbe
runDesProbe(const char* name, hw::ServerType st, model::ModelId model,
            model::Variant variant, const sched::SchedulingConfig& cfg,
            double offered_qps)
{
    model::Model m = model::buildModel(model, variant);
    sim::PreparedWorkload w = sim::prepare(hw::serverSpec(st), m, cfg);
    sim::SimOptions opt;
    opt.num_queries = bench::fastMode() ? 2000 : 20000;
    opt.warmup_queries = opt.num_queries / 10;
    opt.offered_qps = offered_qps;

    std::vector<double> walls;
    sim::ServerSimResult r;
    for (int rep = 0; rep < kProbeReps; ++rep) {
        obs::WallTimer timer;
        r = sim::simulateServer(w, opt);
        walls.push_back(timer.elapsedMs());
    }
    std::sort(walls.begin(), walls.end());

    DesProbe p;
    p.name = name;
    p.events_executed = r.events_executed;
    p.peak_event_queue_depth = r.peak_event_queue_depth;
    p.wall_ms = walls[walls.size() / 2];
    p.wall_ms_min = walls.front();
    p.wall_ms_max = walls.back();
    p.events_per_sec =
        p.wall_ms > 0.0 ? static_cast<double>(p.events_executed) /
                              (p.wall_ms * 1e-3)
                        : 0.0;
    return p;
}

void
writeDesProbeJson(const std::vector<DesProbe>& probes)
{
    const char* path = "BENCH_micro_des.json";
    util::JsonWriter w(path);
    w.beginObject();
    w.key("git_sha").str(bench::gitSha());
    w.key("generated_at").str(isoUtcTimestamp());
    w.key("experiment").str("micro_des");
    w.key("probes").beginArray();
    for (const DesProbe& p : probes) {
        w.beginObject();
        w.key("name").str(p.name);
        w.key("events_executed").integer(p.events_executed);
        w.key("peak_event_queue_depth").integer(p.peak_event_queue_depth);
        w.key("repetitions").integer(kProbeReps);
        w.key("wall_ms").fixed(p.wall_ms, 3);
        w.key("wall_ms_min").fixed(p.wall_ms_min, 3);
        w.key("wall_ms_max").fixed(p.wall_ms_max, 3);
        w.key("events_per_sec").fixed(p.events_per_sec, 0);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    bench::closeJson(w, path);
}

}  // namespace

int
main(int argc, char** argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    sched::SchedulingConfig cpu_mb;
    cpu_mb.mapping = sched::Mapping::CpuModelBased;
    cpu_mb.cpu_threads = 10;
    cpu_mb.cores_per_thread = 2;
    cpu_mb.batch = 128;
    // The placement the efficiency table picks for DLRM-RMC1 on the NMP
    // server: shard_crash_recovery's busiest shard, which runs 82% of
    // that replay's events.
    sched::SchedulingConfig cpu_sd;
    cpu_sd.mapping = sched::Mapping::CpuSdPipeline;
    cpu_sd.cpu_threads = 5;
    cpu_sd.cores_per_thread = 3;
    cpu_sd.dense_threads = 5;
    cpu_sd.batch = 128;
    // Small variant, as in BM_DesGpuFusion, so it fits T7 device memory.
    sched::SchedulingConfig gpu_mb;
    gpu_mb.mapping = sched::Mapping::GpuModelBased;
    gpu_mb.gpu_threads = 2;
    gpu_mb.cpu_threads = 2;
    // The table's DLRM-RMC3 placement on T7.
    sched::SchedulingConfig gpu_sd;
    gpu_sd.mapping = sched::Mapping::GpuSdPipeline;
    gpu_sd.cpu_threads = 5;
    gpu_sd.cores_per_thread = 2;
    gpu_sd.batch = 256;
    gpu_sd.gpu_threads = 1;
    gpu_sd.fusion_limit = 4000;

    using model::ModelId;
    using model::Variant;
    std::vector<DesProbe> probes;
    probes.push_back(runDesProbe("des_cpu_model_based", hw::ServerType::T2,
                                 ModelId::DlrmRmc1, Variant::Prod, cpu_mb,
                                 800.0));
    probes.push_back(runDesProbe("des_gpu_model_based", hw::ServerType::T7,
                                 ModelId::DlrmRmc3, Variant::Small, gpu_mb,
                                 2000.0));
    probes.push_back(runDesProbe("des_cpu_sd_pipeline", hw::ServerType::T3,
                                 ModelId::DlrmRmc1, Variant::Prod, cpu_sd,
                                 4000.0));
    probes.push_back(runDesProbe("des_gpu_sd_pipeline", hw::ServerType::T7,
                                 ModelId::DlrmRmc3, Variant::Prod, gpu_sd,
                                 4000.0));
    for (const DesProbe& p : probes)
        std::printf("%-22s %10llu events  peak depth %6zu  "
                    "%8.1f ms median of %d [%.1f, %.1f]  %.0f events/s\n",
                    p.name,
                    static_cast<unsigned long long>(p.events_executed),
                    p.peak_event_queue_depth, p.wall_ms, kProbeReps,
                    p.wall_ms_min, p.wall_ms_max, p.events_per_sec);
    writeDesProbeJson(probes);
    return 0;
}
