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
runDesProbe(const char* name, sched::Mapping mapping, hw::ServerType st,
            model::ModelId model, double offered_qps)
{
    // The GPU probe mirrors BM_DesGpuFusion's Small-variant setup so it
    // fits T7 device memory.
    model::Model m = model::buildModel(
        model, mapping == sched::Mapping::GpuModelBased
                   ? model::Variant::Small
                   : model::Variant::Prod);
    sched::SchedulingConfig cfg;
    cfg.mapping = mapping;
    if (mapping == sched::Mapping::GpuModelBased) {
        cfg.gpu_threads = 2;
        cfg.cpu_threads = 2;
    } else {
        cfg.cpu_threads = 10;
        cfg.cores_per_thread = 2;
        cfg.batch = 128;
    }
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
    FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
        std::fprintf(stderr, "bench: cannot open %s\n", path);
        return;
    }
    std::fprintf(f, "{\n");
    bench::writeJsonProvenance(f);
    std::fprintf(f, "  \"experiment\": \"micro_des\",\n");
    std::fprintf(f, "  \"probes\": [\n");
    for (size_t i = 0; i < probes.size(); ++i) {
        const DesProbe& p = probes[i];
        std::fprintf(f, "    {\n");
        std::fprintf(f, "      \"name\": \"%s\",\n", p.name);
        std::fprintf(f, "      \"events_executed\": %llu,\n",
                     static_cast<unsigned long long>(p.events_executed));
        std::fprintf(f, "      \"peak_event_queue_depth\": %zu,\n",
                     p.peak_event_queue_depth);
        std::fprintf(f, "      \"repetitions\": %d,\n", kProbeReps);
        std::fprintf(f, "      \"wall_ms\": %.3f,\n", p.wall_ms);
        std::fprintf(f, "      \"wall_ms_min\": %.3f,\n", p.wall_ms_min);
        std::fprintf(f, "      \"wall_ms_max\": %.3f,\n", p.wall_ms_max);
        std::fprintf(f, "      \"events_per_sec\": %.0f\n",
                     p.events_per_sec);
        std::fprintf(f, "    }%s\n", i + 1 < probes.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", path);
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

    std::vector<DesProbe> probes;
    probes.push_back(runDesProbe("des_cpu_model_based",
                                 sched::Mapping::CpuModelBased,
                                 hw::ServerType::T2,
                                 model::ModelId::DlrmRmc1, 800.0));
    probes.push_back(runDesProbe("des_gpu_model_based",
                                 sched::Mapping::GpuModelBased,
                                 hw::ServerType::T7,
                                 model::ModelId::DlrmRmc3, 2000.0));
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
