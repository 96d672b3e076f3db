/**
 * @file
 * The paper's figures and tables, and the serving experiments that
 * stand for its online stage, one function each:
 * `bench_paper NAME... | all` (HERCULES_BENCH_FAST=1 shrinks sweeps).
 * Each named item runs once, in catalog order. Items turn their paper
 * targets into directional claims on the values they print (who wins,
 * which way a ratio points), not matches to the paper's numbers. The
 * claims table follows the items and goes to BENCH_paper.json, with
 * every serving arm's run summary; a failing claim that is not a known
 * miss exits 1, an unknown name exits 2.
 */
#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "cluster/cluster_manager.h"
#include "cluster/evolution.h"
#include "hw/cost_model.h"
#include "hw/power.h"
#include "model/footprint.h"
#include "model/model_zoo.h"
#include "obs/self_profile.h"
#include "sched/baselines.h"
#include "sim/measure.h"
#include "util/stats.h"
#include "util/table.h"
#include "workload/diurnal.h"
#include "workload/querygen.h"

using namespace hercules;

namespace {

/** One directional check of a paper finding against a measured value. */
struct Claim
{
    std::string figure, what, paper, measured;  ///< paper: reference only
    bool holds = false;
    bool known_miss = false;  ///< fails on this code: reported, not gating
};

/**
 * What one run's items share: their claims, BENCH_paper.json (each
 * serving experiment writes its arms there as it finishes), and the
 * full-catalog table of Figs 13-17 and the serving experiments,
 * profiled on first use and never written to disk.
 */
struct Paper
{
    const char* figure = "";  ///< the item running, named as on the CLI
    std::vector<Claim> claims;
    std::optional<core::EfficiencyTable> full_table;
    util::JsonWriter json{"BENCH_paper.json"};

    void
    claim(const std::string& what, const std::string& paper,
          const std::string& measured, bool holds, bool known_miss = false)
    {
        claims.push_back({figure, what, paper, measured, holds, known_miss});
    }

    const core::EfficiencyTable&
    table()
    {
        if (!full_table) {
            core::ProfilerOptions popt;
            popt.search = bench::benchSearchOptions();
            full_table = core::offlineProfile(popt);
        }
        return *full_table;
    }
};

/** "a / b / c" */
std::string
joined(const std::vector<std::string>& parts)
{
    std::string s;
    for (const std::string& p : parts)
        s += (s.empty() ? "" : " / ") + p;
    return s;
}

/** A model-based CPU config: `threads` x `cores`, sub-batch `batch`. */
sched::SchedulingConfig
cpuModel(int threads, int cores, int batch)
{
    sched::SchedulingConfig cfg;
    cfg.mapping = sched::Mapping::CpuModelBased;
    cfg.cpu_threads = threads;
    cfg.cores_per_thread = cores;
    cfg.batch = batch;
    return cfg;
}

/** A model-based accelerator config with two host threads. */
sched::SchedulingConfig
gpuModel(int gpu_threads, int fusion_limit)
{
    sched::SchedulingConfig cfg;
    cfg.mapping = sched::Mapping::GpuModelBased;
    cfg.gpu_threads = gpu_threads;
    cfg.fusion_limit = fusion_limit;
    cfg.cpu_threads = 2;
    return cfg;
}

/**
 * Table I — state-of-the-art production-scale recommendation model
 * configurations, as instantiated by the model zoo.
 */
void
table1(Paper&)
{
    bench::banner("Table I",
                  "Production-scale recommendation model configurations");

    TablePrinter t({"Model", "Service", "#Embs", "Rows (min-max)",
                    "Lookups/item", "Pooling", "Emb GB (prod)",
                    "Emb GB (small)", "Dense MB", "SLA (ms)"});
    for (model::ModelId id : model::allModels()) {
        model::Model prod = model::buildModel(id, model::Variant::Prod);
        model::Model small = model::buildModel(id, model::Variant::Small);
        // Lookup counts vary per table (DIN/DIEN mix one-hot candidate
        // lookups with 100-1000-element behaviour gathers).
        double pool_lo = 1e18, pool_hi = 0.0;
        for (const auto& n : prod.graph.nodes()) {
            if (n.kind() != model::OpKind::EmbeddingLookup)
                continue;
            const auto& p = std::get<model::EmbeddingParams>(n.params);
            pool_lo = std::min(pool_lo, p.pooling_min);
            pool_hi = std::max(pool_hi, p.pooling_max);
        }
        t.addRow({
            model::modelName(id),
            model::modelService(id),
            std::to_string(prod.num_tables),
            fmtEng(static_cast<double>(prod.rows_min), 1) + " - " +
                fmtEng(static_cast<double>(prod.rows_max), 1),
            fmtDouble(pool_lo, 0) + " - " + fmtDouble(pool_hi, 0),
            prod.pooled ? "Yes" : "No",
            fmtDouble(static_cast<double>(prod.embeddingBytes()) /
                          (1ll << 30), 1),
            fmtDouble(static_cast<double>(small.embeddingBytes()) /
                          (1ll << 30), 1),
            fmtDouble(static_cast<double>(prod.denseParamBytes()) /
                          (1 << 20), 1),
            fmtDouble(prod.sla_ms, 0),
        });
    }
    t.print();

    std::printf("\nNotes: rows capped for MT-WnD (20M) and DIN/DIEN "
                "(300M) vs Table I so production\nvariants fit the 64 GB "
                "T1 host.\n");
}

/**
 * Table II — system parameters and the T1–T10 heterogeneous server
 * catalog with availabilities.
 */
void
table2(Paper&)
{
    bench::banner("Table II", "System parameters and configurations");

    TablePrinter t({"Th", "Nh", "CPU", "Cores", "GHz", "Memory", "GB",
                    "BW GB/s", "Ranks", "GPU", "TFLOPs", "Idle W",
                    "Peak W"});
    for (const auto& s : hw::serverCatalog()) {
        hw::PowerModel pm(s);
        t.addRow({
            hw::serverTypeName(s.type),
            std::to_string(s.availability),
            s.cpu.name,
            std::to_string(s.cpu.cores),
            fmtDouble(s.cpu.freq_ghz, 1),
            s.mem.name,
            std::to_string(s.mem.capacity_gb),
            fmtDouble(s.mem.peakBwGbps(), 1),
            std::to_string(s.mem.totalRanks()),
            s.gpu ? s.gpu->name : "-",
            s.gpu ? fmtDouble(s.gpu->peakTflops(), 1) : "-",
            fmtDouble(pm.idlePowerW(), 0),
            fmtDouble(pm.peakPowerW(), 0),
        });
    }
    t.print();
}

/**
 * Fig 1 (left) — compute vs memory footprint per query across the six
 * models. Reproduction target (shape): DLRM-RMC1/RMC2 land in the
 * memory-dominated region (low arithmetic intensity), DLRM-RMC3 /
 * MT-WnD / DIN / DIEN in the compute-dominated region; the spread spans
 * one to two orders of magnitude on both axes.
 */
void
fig01(Paper& paper)
{
    bench::banner("Figure 1 (left)",
                  "Avg compute FLOPs vs memory bytes per query");

    // Mean query size of the Fig 2(b) distribution.
    workload::QueryGenerator gen(1000.0, 42);
    double mean_size = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        mean_size += gen.next().size;
    mean_size /= n;
    std::printf("mean query size: %.1f items\n\n", mean_size);

    TablePrinter t({"Model", "MFLOPs/query", "MB/query", "KB PCIe/item",
                    "FLOP per DRAM byte", "Region"});
    std::vector<std::string> memory_bound;
    std::string top_bytes, top_flops;
    double max_mbytes = 0.0, max_mflops = 0.0;
    for (model::ModelId id : model::allModels()) {
        model::Model m = model::buildModel(id);
        model::ModelFootprint f = model::analyzeModel(m);
        double mflops = f.flops_per_item * mean_size / 1e6;
        double mbytes = f.dram_bytes_per_item * mean_size / 1e6;
        const char* region =
            f.intensity() < 10.0 ? "memory-dominated" : "compute-dominated";
        t.addRow({model::modelName(id), fmtDouble(mflops, 1),
                  fmtDouble(mbytes, 2),
                  fmtDouble(f.input_bytes_per_item / 1e3, 2),
                  fmtDouble(f.intensity(), 1), region});
        if (f.intensity() < 10.0)
            memory_bound.push_back(model::modelName(id));
        if (mbytes > max_mbytes) {
            max_mbytes = mbytes;
            top_bytes = model::modelName(id);
        }
        if (mflops > max_mflops) {
            max_mflops = mflops;
            top_flops = model::modelName(id);
        }
    }
    t.print();

    std::string memory = joined(memory_bound);
    paper.claim("only RMC1, RMC2 are memory-dominated", "RMC1 / RMC2",
                memory, memory == "DLRM-RMC1 / DLRM-RMC2");
    paper.claim("RMC2 has the most memory traffic per query", "RMC2",
                top_bytes, top_bytes == "DLRM-RMC2");
    paper.claim("MT-WnD has the most compute per query", "MT-WnD",
                top_flops, top_flops == "MT-WnD");
}

void
querySizeHistogram()
{
    std::printf("-- Fig 2(b): query size distribution --\n");
    workload::QueryGenerator gen(1000.0, 42);
    Histogram h(0.0, 1000.0, 20);
    PercentileTracker p;
    for (int i = 0; i < 50000; ++i) {
        int s = gen.next().size;
        h.add(s);
        p.add(s);
    }
    TablePrinter t({"Size bin", "Fraction", "Bar"});
    for (size_t b = 0; b < h.bins(); ++b) {
        int stars = static_cast<int>(h.fraction(b) * 120);
        t.addRow({fmtDouble(h.binLo(b), 0) + "-" +
                      fmtDouble(h.binHi(b), 0),
                  fmtPercent(h.fraction(b), 1),
                  std::string(static_cast<size_t>(stars), '#')});
    }
    t.print();
    std::printf("p50=%.0f  p75=%.0f  p95=%.0f  p99=%.0f "
                "(heavy tail within [10, 1000])\n\n",
                p.p50(), p.p75(), p.p95(), p.p99());
}

void
poolingFactors()
{
    std::printf("-- Fig 2(c): pooling factors across embedding tables "
                "(DLRM-RMC1, 500 queries) --\n");
    model::Model m = model::buildModel(model::ModelId::DlrmRmc1);
    TablePrinter t({"EmbID", "Mean pooling", "p5", "p95"});
    int emb_id = 0;
    for (const auto& n : m.graph.nodes()) {
        if (n.kind() != model::OpKind::EmbeddingLookup)
            continue;
        const auto& p = std::get<model::EmbeddingParams>(n.params);
        PercentileTracker samples;
        workload::QueryGenerator qgen(1000.0,
                                      100 + static_cast<uint64_t>(emb_id));
        for (int q = 0; q < 500; ++q)
            samples.add(p.avgPooling() * qgen.next().pooling_scale);
        t.addRow({std::to_string(emb_id), fmtDouble(samples.mean(), 1),
                  fmtDouble(samples.percentile(5), 1),
                  fmtDouble(samples.percentile(95), 1)});
        ++emb_id;
    }
    t.print();
    std::printf("\n");
}

void
diurnalLoads(Paper& paper)
{
    std::printf("-- Fig 2(d): diurnal load of two services across four "
                "datacenters (one week) --\n");
    TablePrinter t({"Hour", "S1/DC1", "S1/DC2", "S1/DC3", "S1/DC4",
                    "S2/DC1", "S2/DC2"});
    std::vector<workload::DiurnalLoad> curves;
    for (int svc = 0; svc < 2; ++svc) {
        for (int dc = 0; dc < 4; ++dc) {
            workload::DiurnalConfig cfg;
            cfg.peak_qps = svc == 0 ? 50'000 : 35'000;
            cfg.peak_hour = 20.0 + 0.3 * dc;
            cfg.seed = static_cast<uint64_t>(svc * 10 + dc);
            curves.emplace_back(cfg);
        }
    }
    for (int hour = 0; hour < 24 * 7; hour += 6) {
        t.addRow({std::to_string(hour),
                  fmtEng(curves[0].loadAt(hour), 1),
                  fmtEng(curves[1].loadAt(hour), 1),
                  fmtEng(curves[2].loadAt(hour), 1),
                  fmtEng(curves[3].loadAt(hour), 1),
                  fmtEng(curves[4].loadAt(hour), 1),
                  fmtEng(curves[5].loadAt(hour), 1)});
    }
    t.print();

    double lo = 1e18, hi = 0.0;
    for (double h = 0.0; h < 24.0; h += 0.1) {
        double total = 0.0;
        for (const auto& c : curves)
            total += c.loadAt(h);
        lo = std::min(lo, total);
        hi = std::max(hi, total);
    }
    paper.claim("aggregated diurnal load swings > 50% peak to trough",
                ">50%", fmtPercent((hi - lo) / hi, 1), (hi - lo) / hi > 0.5);
}

/**
 * Fig 2(b)(c)(d) — workload characterization: heavy-tailed query sizes,
 * pooling-factor distribution across embedding tables, and the
 * synchronized diurnal load of two services across four datacenters.
 */
void
fig02(Paper& paper)
{
    bench::banner("Figure 2", "Workload characterization");
    querySizeHistogram();
    poolingFactors();
    diurnalLoads(paper);
}

struct ConfigResult
{
    double qps = 0.0;
    double qps_per_watt = 0.0;
    double cpu_util = 0.0;
};

/** Best over the batch axis for a fixed (threads x cores) allocation —
 *  the whole axis fans onto the evaluation engine at once. */
ConfigResult
bestOverBatches(core::EvalEngine& engine, const hw::ServerSpec& server,
                const model::Model& m, int threads, int cores,
                double sla_ms)
{
    sched::SearchOptions opt = bench::benchSearchOptions();
    std::vector<core::EvalRequest> reqs;
    for (int b : opt.space.batches)
        reqs.push_back({&server, &m, cpuModel(threads, cores, b), sla_ms,
                        opt.measure});
    ConfigResult best;
    for (const core::EvalResult& res : engine.evaluateMany(reqs)) {
        if (res.valid && res.point && res.point->qps > best.qps) {
            best.qps = res.point->qps;
            best.qps_per_watt = res.point->result.qps_per_watt;
            best.cpu_util = res.point->result.cpu_util;
        }
    }
    return best;
}

/**
 * Fig 4 — host-side task scheduling of DLRM-RMC1 on CPU-T2: the fixed
 * DeepRecSys allocation (20 threads x 1 core) vs 10 threads x 2 cores
 * across SLA targets. Reproduction targets: 10x2 wins up to ~1.35x
 * latency-bounded QPS and ~1.33x QPS/W, and average CPU utilization is
 * NOT correlated with performance (the 10x2 winner shows *lower* util).
 */
void
fig04(Paper& paper)
{
    bench::banner("Figure 4",
                  "Host-side parallelism: 20x1 (DeepRecSys) vs 10x2 on "
                  "DLRM-RMC1 / CPU-T2");

    model::Model m = model::buildModel(model::ModelId::DlrmRmc1);
    const hw::ServerSpec& server = hw::serverSpec(hw::ServerType::T2);
    core::EvalEngine engine;

    TablePrinter t({"SLA (ms)", "QPS 20x1", "QPS 10x2", "gain",
                    "QPS/W 20x1", "QPS/W 10x2", "gain",
                    "util 20x1", "util 10x2"});
    double qps_lo = 1e18, eff_lo = 1e18;
    int lower_util = 0;
    for (double sla : {4.0, 8.0, 16.0, 64.0, 256.0, 512.0}) {
        ConfigResult drs = bestOverBatches(engine, server, m, 20, 1, sla);
        ConfigResult ten2 =
            bestOverBatches(engine, server, m, 10, 2, sla);
        double qgain = drs.qps > 0 ? ten2.qps / drs.qps : 0.0;
        double egain = drs.qps_per_watt > 0
                           ? ten2.qps_per_watt / drs.qps_per_watt
                           : 0.0;
        qps_lo = std::min(qps_lo, qgain);
        eff_lo = std::min(eff_lo, egain);
        lower_util += ten2.cpu_util < drs.cpu_util;
        t.addRow({fmtDouble(sla, 0), fmtDouble(drs.qps, 0),
                  fmtDouble(ten2.qps, 0), fmtSpeedup(qgain),
                  fmtDouble(drs.qps_per_watt, 2),
                  fmtDouble(ten2.qps_per_watt, 2), fmtSpeedup(egain),
                  fmtPercent(drs.cpu_util), fmtPercent(ten2.cpu_util)});
    }
    t.print();

    paper.claim("10x2 >= 20x1 in QPS and QPS/W at every SLA",
                "up to 1.35x / 1.33x",
                "min " + joined({fmtSpeedup(qps_lo), fmtSpeedup(eff_lo)}),
                qps_lo >= 1.0 && eff_lo >= 1.0);
    paper.claim("faster 10x2 runs at lower CPU util, every SLA",
                "util is no performance proxy",
                "lower at " + std::to_string(lower_util) + "/6 SLAs",
                lower_util == 6);
}

void
scheduleDetail(const hw::CostModel& cost, const model::Model& m,
               int workers)
{
    std::printf("-- DLRM-RMC1 schedule with %d op worker(s) --\n",
                workers);
    hw::CpuExecContext cx;
    cx.workers = workers;
    cx.mem_bw_gbps = 5.0;
    std::vector<hw::OpRecord> ops;
    hw::GraphTiming t = cost.cpuGraphTiming(m.graph, 256, cx, &ops);
    TablePrinter tab({"Op", "Kind", "Worker", "Start (us)", "End (us)"});
    std::sort(ops.begin(), ops.end(),
              [](const auto& a, const auto& b) {
                  return a.start_us < b.start_us;
              });
    for (const auto& rec : ops) {
        const model::Node& n = m.graph.node(rec.node);
        tab.addRow({n.name, model::opKindName(n.kind()),
                    std::to_string(rec.worker),
                    fmtDouble(rec.start_us, 0),
                    fmtDouble(rec.end_us, 0)});
    }
    tab.print();
    std::printf("makespan %.0f us, idle fraction %.1f%%\n\n",
                t.latency_us, t.idle_frac * 100.0);
}

/**
 * Fig 5 — operator-dependency idling: per-thread schedules of
 * DLRM-RMC1 with 1 vs 2 op-workers, and the idle-cycle fraction of all
 * six models with 1-4 parallel operator workers (batch 256).
 * Reproduction target: idle cycles grow with worker count, spanning
 * roughly 25-74% at 2-4 workers.
 */
void
fig05(Paper& paper)
{
    bench::banner("Figure 5",
                  "Op-worker schedules and idle cycles (batch 256)");

    const hw::ServerSpec& server = hw::serverSpec(hw::ServerType::T2);
    hw::CostModel cost(server);

    model::Model rmc1 = model::buildModel(model::ModelId::DlrmRmc1);
    scheduleDetail(cost, rmc1, 1);
    scheduleDetail(cost, rmc1, 2);

    std::printf("-- Idle fraction per model vs op-workers --\n");
    TablePrinter t({"Model", "1 worker", "2 workers", "3 workers",
                    "4 workers", "Sparse ops", "Dense chain"});
    bool growing = true;  // idle share rises with every added worker
    for (model::ModelId id : model::allModels()) {
        model::Model m = model::buildModel(id);
        std::vector<std::string> row = {model::modelName(id)};
        hw::CpuExecContext cx;
        cx.mem_bw_gbps = 5.0;
        double prev = -1.0;
        for (int w = 1; w <= 4; ++w) {
            cx.workers = w;
            hw::GraphTiming gt = cost.cpuGraphTiming(m.graph, 256, cx);
            row.push_back(fmtPercent(gt.idle_frac, 1));
            growing = growing && gt.idle_frac > prev;
            prev = gt.idle_frac;
        }
        auto sparse = m.graph.stageNodes(model::Stage::Sparse);
        auto dense = m.graph.stageNodes(model::Stage::Dense);
        row.push_back(std::to_string(sparse.size()));
        row.push_back(std::to_string(m.graph.criticalPathLength(dense)));
        t.addRow(row);
    }
    t.print();

    paper.claim("idle cycles grow with op workers", "25%-74% at 2-4 workers",
                growing ? "every model" : "not every model", growing);
}

/**
 * Fig 6 — accelerator-side scheduling policies on the small model
 * variants (the paper's V100 characterization): (1) DeepRecSys — one
 * model, no fusion; (2) Baymax — model co-location only; (3) model
 * co-location + query fusion.
 *
 * Reproduction targets: Baymax >= DeepRecSys (up to 1.66x / 1.03x /
 * 1.36x for RMC3 / MT-WnD / DIN), co-location + fusion far ahead of
 * Baymax (2.95x / 7.87x / 6.0x QPS; 2.29x / 3.14x / 3.36x QPS/W).
 */
void
fig06(Paper& paper)
{
    bench::banner("Figure 6",
                  "Accelerator policies: DeepRecSys vs Baymax vs "
                  "co-location + fusion (V100, small variants)");

    const hw::ServerSpec& server = hw::serverSpec(hw::ServerType::T7);
    sched::SearchOptions opt = bench::benchSearchOptions();

    const std::vector<model::ModelId> models = {
        model::ModelId::DlrmRmc3, model::ModelId::MtWnd,
        model::ModelId::Din};

    TablePrinter t({"Model", "SLA (ms)", "DRS QPS", "Baymax QPS",
                    "Fusion QPS", "Bay/DRS", "Fus/Bay", "DRS QPS/W",
                    "Bay QPS/W", "Fus QPS/W", "winning config"});

    std::vector<std::string> bay_gains, fus_gains;
    bool bay_wins = true, fus_wins = true;
    for (model::ModelId id : models) {
        model::Model m = model::buildModel(id, model::Variant::Small);
        double bay_best = 0.0, fus_best = 0.0;
        for (double sla : {25.0, 50.0, 100.0}) {
            sched::SearchResult drs =
                sched::deepRecSysGpuSearch(server, m, sla, opt);
            sched::SearchResult bay =
                sched::baymaxSearch(server, m, sla, opt);
            sched::SearchResult fus = sched::gradientSearchMapping(
                server, m, sched::Mapping::GpuModelBased, sla, opt);
            double d = drs.best ? drs.best_qps : 0.0;
            double b = bay.best ? bay.best_qps : 0.0;
            double f = fus.best ? fus.best_qps : 0.0;
            if (d > 0.0)
                bay_best = std::max(bay_best, b / d);
            if (b > 0.0)
                fus_best = std::max(fus_best, f / b);
            bay_wins = bay_wins && b >= d;
            fus_wins = fus_wins && f > b;
            t.addRow({
                model::modelName(id), fmtDouble(sla, 0), fmtDouble(d, 0),
                fmtDouble(b, 0), fmtDouble(f, 0),
                d > 0 ? fmtSpeedup(b / d) : "-",
                b > 0 ? fmtSpeedup(f / b) : "-",
                drs.best ? fmtDouble(drs.best_point.result.qps_per_watt, 1)
                         : "-",
                bay.best ? fmtDouble(bay.best_point.result.qps_per_watt, 1)
                         : "-",
                fus.best ? fmtDouble(fus.best_point.result.qps_per_watt, 1)
                         : "-",
                fus.best ? fus.best->str() : "-",
            });
        }
        bay_gains.push_back(fmtSpeedup(bay_best));
        fus_gains.push_back(fmtSpeedup(fus_best));
    }
    t.print();

    paper.claim("Baymax >= DeepRecSys, every model and SLA",
                "1.66x / 1.03x / 1.36x", joined(bay_gains), bay_wins);
    paper.claim("co-location + fusion > Baymax, every row",
                "2.95x / 7.87x / 6.0x", joined(fus_gains), fus_wins);
}

/**
 * Fig 7 — latency breakdown (queuing / data loading / model inference)
 * and GPU utilization vs the query-fusion limit, for DLRM-RMC3, MT-WnD
 * and DIN (small variants, one inference thread on the V100).
 *
 * Reproduction targets: DLRM-RMC3 is data-loading-dominated (65-83% of
 * latency) with low GPU utilization (~25%); MT-WnD and DIN keep the
 * device busier (one-hot lookups / compute-heavy attention).
 */
void
fig07(Paper& paper)
{
    bench::banner("Figure 7",
                  "Latency breakdown vs fusion limit (1 GPU thread)");

    const hw::ServerSpec& server = hw::serverSpec(hw::ServerType::T7);
    sim::MeasureOptions mo = bench::benchSearchOptions().measure;

    for (model::ModelId id : {model::ModelId::DlrmRmc3,
                              model::ModelId::MtWnd, model::ModelId::Din}) {
        model::Model m = model::buildModel(id, model::Variant::Small);
        std::printf("-- %s --\n", model::modelName(id));
        TablePrinter t({"Fusion limit", "QPS @92% cap", "Queuing %",
                        "Loading %", "Inference %", "Load/(L+I)",
                        "GPU util"});
        double rmc3_loading = 0.0;
        for (int fusion : {0, 500, 1000, 2000, 4000, 6000}) {
            sim::PreparedWorkload w =
                sim::prepare(server, m, gpuModel(1, fusion));
            double cap = sim::saturationQps(w, mo.sim);
            sim::SimOptions probe = mo.sim;
            probe.offered_qps = 0.92 * cap;
            sim::ServerSimResult r = sim::simulateServer(w, probe);
            double total = r.mean_queue_ms + r.mean_host_ms +
                           r.mean_load_ms + r.mean_exec_ms;
            double queue_frac =
                total > 0 ? (r.mean_queue_ms + r.mean_host_ms) / total
                          : 0.0;
            double load_frac = total > 0 ? r.mean_load_ms / total : 0.0;
            double exec_frac = total > 0 ? r.mean_exec_ms / total : 0.0;
            double li = r.mean_load_ms + r.mean_exec_ms;
            double load_of_li = li > 0 ? r.mean_load_ms / li : 0.0;
            if (id == model::ModelId::DlrmRmc3)
                rmc3_loading = std::max(rmc3_loading, load_of_li);
            t.addRow({fusion == 0 ? "no fusion" : std::to_string(fusion),
                      fmtDouble(r.achieved_qps, 0),
                      fmtPercent(queue_frac, 1), fmtPercent(load_frac, 1),
                      fmtPercent(exec_frac, 1),
                      fmtPercent(load_of_li, 1),
                      fmtPercent(r.gpu_util, 1)});
        }
        t.print();
        if (id == model::ModelId::DlrmRmc3)
            paper.claim("RMC3 loading > inference at some fusion limit",
                        "65-83% of latency", fmtPercent(rmc3_loading, 1),
                        rmc3_loading > 0.5);
        std::printf("\n");
    }
}

/**
 * Fig 8 — heterogeneity-aware cluster characterization:
 *  (a) latency-bounded energy efficiency of DLRM-RMC1 (20 ms SLA) and
 *      DLRM-RMC2 (50 ms) on CPU / CPU+NMP / CPU+GPU servers;
 *  (b) the two diurnal loads;
 *  (c) provisioned power of the NH, greedy and priority-aware
 *      schedulers over one day (availability 70 / 15 / 5).
 *
 * Reproduction targets: CPU+NMP ranks first for both models with a
 * larger efficiency margin on RMC2 (paper annotates 1.75x/2.04x over
 * CPU); greedy saves up to ~41.6% provisioned power over NH at peak;
 * priority-aware adds up to ~11.4% at peak over greedy; the LP-based
 * Hercules scheduler wins either way (a global objective).
 */
void
fig08(Paper& paper)
{
    bench::banner("Figure 8",
                  "Cluster characterization: NH vs greedy vs "
                  "priority-aware");

    const std::vector<hw::ServerType> servers = {
        hw::ServerType::T2, hw::ServerType::T3, hw::ServerType::T7};
    const std::vector<model::ModelId> models = {
        model::ModelId::DlrmRmc1, model::ModelId::DlrmRmc2};

    // ---- (a) efficiency of the three server classes ------------------
    core::ProfilerOptions popt;
    popt.search = bench::benchSearchOptions();
    popt.servers = servers;
    popt.models = models;
    core::EfficiencyTable table = core::offlineProfile(popt);

    std::printf("-- Fig 8(a): latency-bounded energy efficiency --\n");
    TablePrinter ta({"Model", "Server", "QPS", "Power (W)", "QPS/W",
                     "vs CPU"});
    for (model::ModelId mid : models) {
        const core::EfficiencyEntry* cpu =
            table.get(hw::ServerType::T2, mid);
        for (hw::ServerType st : servers) {
            const core::EfficiencyEntry* e = table.get(st, mid);
            if (!e || !e->feasible)
                continue;
            double ratio = cpu && cpu->qps_per_watt > 0
                               ? e->qps_per_watt / cpu->qps_per_watt
                               : 0.0;
            ta.addRow({model::modelName(mid),
                       hw::serverSpec(st).name, fmtDouble(e->qps, 0),
                       fmtDouble(e->power_w, 0),
                       fmtDouble(e->qps_per_watt, 2),
                       fmtSpeedup(ratio)});
        }
    }
    ta.print();
    std::printf("\n");

    // A claim that server a beats b in QPS/W for RMC1 and RMC2.
    using hw::ServerType;
    auto effClaim = [&](ServerType a, ServerType b, const char* what,
                        const char* paper_value, bool known_miss = false) {
        std::vector<double> g;
        for (model::ModelId mid : models)
            g.push_back(table.get(a, mid)->qps_per_watt /
                        table.get(b, mid)->qps_per_watt);
        paper.claim(what, paper_value,
                    joined({fmtSpeedup(g[0]), fmtSpeedup(g[1])}),
                    g[0] > 1.0 && g[1] > 1.0, known_miss);
        return g;
    };
    auto nmp = effClaim(ServerType::T3, ServerType::T2,
                        "CPU+NMP > CPU in QPS/W, RMC1 / RMC2",
                        "1.75x / 2.04x");
    effClaim(ServerType::T7, ServerType::T2,
             "CPU+GPU > CPU in QPS/W, RMC1 / RMC2", "GPU > CPU");
    effClaim(ServerType::T3, ServerType::T7,
             "CPU+NMP > CPU+GPU in QPS/W, RMC1 / RMC2", "NMP > GPU", true);
    paper.claim("RMC2 gains more QPS/W from NMP than RMC1", "2.04x / 1.75x",
                joined({fmtSpeedup(nmp[1]), fmtSpeedup(nmp[0])}),
                nmp[1] > nmp[0]);

    // ---- (b) + (c) one-day provisioning ------------------------------
    cluster::ProvisionProblem problem =
        cluster::ProvisionProblem::fromTable(table, servers, models,
                                             {70, 15, 5});
    std::vector<cluster::ClusterWorkload> workloads(2);
    workloads[0].model = models[0];
    workloads[0].load.peak_qps = 50'000;
    workloads[0].load.seed = 1;
    workloads[1].model = models[1];
    workloads[1].load.peak_qps = 15'000;
    workloads[1].load.seed = 2;

    cluster::ClusterManagerOptions copt;
    cluster::NhProvisioner nh(3);
    cluster::GreedyProvisioner greedy;
    cluster::PriorityAwareProvisioner priority;
    cluster::HerculesProvisioner hercules;
    auto rn = cluster::runCluster(problem, workloads, nh, copt);
    auto rg = cluster::runCluster(problem, workloads, greedy, copt);
    auto rp = cluster::runCluster(problem, workloads, priority, copt);
    auto rh = cluster::runCluster(problem, workloads, hercules, copt);

    std::printf("-- Fig 8(b)(c): loads and provisioned power over one "
                "day --\n");
    TablePrinter tc({"Hour", "RMC1 load", "RMC2 load", "NH (kW)",
                     "Greedy (kW)", "Priority (kW)", "Hercules (kW)"});
    for (size_t i = 0; i < rn.intervals.size(); i += 4) {
        tc.addRow({fmtDouble(rn.intervals[i].t_hours, 1),
                   fmtEng(rn.intervals[i].loads[0], 1),
                   fmtEng(rn.intervals[i].loads[1], 1),
                   fmtDouble(rn.intervals[i].provisioned_power_w / 1e3, 1),
                   fmtDouble(rg.intervals[i].provisioned_power_w / 1e3, 1),
                   fmtDouble(rp.intervals[i].provisioned_power_w / 1e3, 1),
                   fmtDouble(rh.intervals[i].provisioned_power_w / 1e3,
                             1)});
    }
    tc.print();

    // A claim that a provisions no more power than b, peak and avg.
    auto powerClaim = [&](const cluster::ClusterRunResult& a,
                          const cluster::ClusterRunResult& b,
                          const char* what, const char* paper_value,
                          bool known_miss = false) {
        double peak = 1.0 - a.peak_power_w / b.peak_power_w;
        double avg = 1.0 - a.avg_power_w / b.avg_power_w;
        paper.claim(what, paper_value,
                    fmtPercent(peak, 1) + " / " + fmtPercent(avg, 1),
                    peak >= 0.0 && avg >= 0.0, known_miss);
    };
    powerClaim(rg, rn, "greedy <= NH in power, peak and avg",
               "up to 41.6% / 21.5%");
    powerClaim(rp, rg, "priority-aware <= greedy in power, peak and avg",
               "up to 11.4% / 4.2%", true);
    powerClaim(rh, rg, "Hercules <= greedy in power, peak and avg",
               "the LP wins either way");
}

void
cpuGrid(core::EvalEngine& engine, const hw::ServerSpec& server,
        const model::Model& m, double sla_ms)
{
    sim::MeasureOptions mo = bench::benchSearchOptions().measure;
    const std::vector<int> threads = {1, 2, 4, 6, 8, 10, 14, 20};
    const std::vector<int> batches = {16, 64, 256, 1024};

    for (int o : {1, 2}) {
        std::printf("-- CPU Psp(M+D), %d core(s) per thread "
                    "(SLA %.0f ms): QPS [tail ms] --\n",
                    o, sla_ms);
        std::vector<std::string> header = {"threads \\ batch"};
        for (int b : batches)
            header.push_back(std::to_string(b));

        // The whole grid fans onto the engine pool; rows are then
        // printed from the ordered result vector.
        std::vector<core::EvalRequest> reqs;
        std::vector<int> row_threads;
        for (int th : threads) {
            if (th * o > server.cpu.cores)
                continue;
            row_threads.push_back(th);
            for (int b : batches)
                reqs.push_back({&server, &m, cpuModel(th, o, b), sla_ms, mo});
        }
        std::vector<core::EvalResult> results =
            engine.evaluateMany(reqs);

        TablePrinter t(header);
        size_t i = 0;
        for (int th : row_threads) {
            std::vector<std::string> row = {std::to_string(th)};
            for (size_t bi = 0; bi < batches.size(); ++bi) {
                const auto& point = results[i++].point;
                row.push_back(point
                                  ? fmtDouble(point->qps, 0) + " [" +
                                        fmtDouble(point->result.tail_ms,
                                                  1) +
                                        "]"
                                  : "viol.");
            }
            t.addRow(row);
        }
        t.print();
        std::printf("\n");
    }
}

void
gpuGrid(core::EvalEngine& engine, const hw::ServerSpec& server,
        const model::Model& m, double sla_ms)
{
    sim::MeasureOptions mo = bench::benchSearchOptions().measure;
    std::printf("-- GPU Psp(M+D) (SLA %.0f ms): QPS [peak W] --\n",
                sla_ms);
    const std::vector<int> fusions = {0, 500, 1000, 2000, 4000, 6000};
    const std::vector<int> colocs = {1, 2, 3, 4};
    std::vector<std::string> header = {"coloc \\ fusion"};
    for (int f : fusions)
        header.push_back(f == 0 ? "none" : std::to_string(f));

    std::vector<core::EvalRequest> reqs;
    for (int g : colocs)
        for (int f : fusions)
            reqs.push_back({&server, &m, gpuModel(g, f), sla_ms, mo});
    std::vector<core::EvalResult> results = engine.evaluateMany(reqs);

    TablePrinter t(header);
    size_t i = 0;
    for (int g : colocs) {
        std::vector<std::string> row = {std::to_string(g)};
        for (size_t fi = 0; fi < fusions.size(); ++fi) {
            const core::EvalResult& res = results[i++];
            if (!res.valid) {
                row.push_back("invalid");
                continue;
            }
            const auto& point = res.point;
            row.push_back(
                point ? fmtDouble(point->qps, 0) + " [" +
                            fmtDouble(point->result.peak_power_w, 0) + "]"
                      : "viol.");
        }
        t.addRow(row);
    }
    t.print();
    std::printf("\n");
}

void
searchPath(const hw::ServerSpec& server, const model::Model& m,
           sched::Mapping mapping, double sla_ms)
{
    sched::SearchOptions opt = bench::benchSearchOptions();
    sched::SearchResult r =
        sched::gradientSearchMapping(server, m, mapping, sla_ms, opt);
    std::printf("-- gradient-search trace (%s, %d evals) --\n",
                sched::mappingName(mapping), r.evals);
    TablePrinter t({"Step", "Config", "QPS", "Tail (ms)", "Accepted"});
    int step = 0;
    for (const auto& s : r.trace) {
        t.addRow({std::to_string(step++), s.cfg.str(),
                  s.qps >= 0 ? fmtDouble(s.qps, 0) : "infeasible",
                  s.qps >= 0 ? fmtDouble(s.tail_ms, 1) : "-",
                  s.accepted ? "<= move" : ""});
    }
    t.print();
    if (r.best)
        std::printf("optimum: %s at %.0f QPS\n\n", r.best->str().c_str(),
                    r.best_qps);
}

/**
 * Fig 11 — the model-based scheduling space of DLRM-RMC1 on (a-c) the
 * CPU and (d-f) the accelerator: latency-bounded throughput,
 * tail-latency and peak power over the (model-parallelism x
 * data-parallelism) grid, plus the gradient-search path.
 *
 * Reproduction target (shape): throughput over Psp(M + D) is convex —
 * it rises with threads/batch, then falls (interference, SLA
 * violations); the gradient search path walks monotonically to the
 * peak and terminates there.
 */
void
fig11(Paper&)
{
    bench::banner("Figure 11",
                  "Model-based scheduling space + gradient search "
                  "(DLRM-RMC1)");

    model::Model m = model::buildModel(model::ModelId::DlrmRmc1);
    const hw::ServerSpec& t2 = hw::serverSpec(hw::ServerType::T2);
    const hw::ServerSpec& t7 = hw::serverSpec(hw::ServerType::T7);
    core::EvalEngine engine;

    cpuGrid(engine, t2, m, 20.0);
    searchPath(t2, m, sched::Mapping::CpuModelBased, 20.0);

    model::Model small =
        model::buildModel(model::ModelId::DlrmRmc1, model::Variant::Small);
    gpuGrid(engine, t7, small, 20.0);
    searchPath(t7, small, sched::Mapping::GpuModelBased, 20.0);
}

/**
 * Fig 12 — balancing the sparse-dense pipeline:
 *  (a) CPU: throughput vs the SparseNet/DenseNet thread split — rises
 *      while parallelism grows, falls once the pipeline unbalances
 *      (claim: the best split lies strictly inside both sweeps);
 *  (b) CPU+GPU: host-side SparseNet search with the accelerator-side
 *      (co-location x fusion) search after each host move.
 */
void
fig12(Paper& paper)
{
    bench::banner("Figure 12", "S-D pipeline balancing (DLRM-RMC1)");

    model::Model m = model::buildModel(model::ModelId::DlrmRmc1);
    const hw::ServerSpec& t2 = hw::serverSpec(hw::ServerType::T2);
    sim::MeasureOptions mo = bench::benchSearchOptions().measure;
    core::EvalEngine engine;

    // ---- (a) CPU: sweep the sparse/dense split ------------------------
    std::printf("-- Fig 12(a): CPU S-D split (batch 128, SLA 20 ms) --\n");
    std::vector<core::EvalRequest> split_reqs;
    for (int o : {1, 2}) {
        for (int s = 1; s * o + 1 <= t2.cpu.cores; ++s) {
            int d = sched::balancedDenseThreads(t2, m, s, o, 128);
            if (d < 1)
                continue;
            sched::SchedulingConfig cfg = cpuModel(s, o, 128);
            cfg.mapping = sched::Mapping::CpuSdPipeline;
            cfg.dense_threads = d;
            split_reqs.push_back({&t2, &m, cfg, 20.0, mo});
        }
    }
    std::vector<core::EvalResult> split_results =
        engine.evaluateMany(split_reqs);
    TablePrinter ta({"Config (SxO::D)", "QPS", "Tail (ms)"});
    // Per o: the sweep's length and its best row (1-based; 0 = none).
    int rows[3] = {0, 0, 0}, best_at[3] = {0, 0, 0};
    double best_qps[3] = {-1.0, -1.0, -1.0};
    std::string best_cfg[3];
    for (size_t i = 0; i < split_reqs.size(); ++i) {
        const sched::SchedulingConfig& cfg = split_reqs[i].cfg;
        const auto& point = split_results[i].point;
        const int o = cfg.cores_per_thread;
        const std::string name = std::to_string(cfg.cpu_threads) + "x" +
                                 std::to_string(o) + "::" +
                                 std::to_string(cfg.dense_threads);
        ++rows[o];
        if (point && point->qps > best_qps[o]) {
            best_qps[o] = point->qps;
            best_at[o] = rows[o];
            best_cfg[o] = name;
        }
        ta.addRow({name, point ? fmtDouble(point->qps, 0) : "viol.",
                   point ? fmtDouble(point->result.tail_ms, 1) : "-"});
    }
    ta.print();
    std::printf("\n");
    std::vector<std::string> at;
    bool inside = true;
    for (int o : {1, 2}) {
        inside = inside && best_at[o] > 1 && best_at[o] < rows[o];
        at.push_back(best_cfg[o] + " (" + std::to_string(best_at[o]) +
                     " of " + std::to_string(rows[o]) + ")");
    }
    paper.claim("best S-D split lies inside the sweep, o = 1 / 2",
                "climbs, then falls", joined(at), inside);

    // ---- (b) CPU-GPU: host sweep with nested accelerator search -------
    const hw::ServerSpec& t7 = hw::serverSpec(hw::ServerType::T7);
    std::printf("-- Fig 12(b): CPU-side SparseNet -> GPU DenseNet "
                "(SLA 20 ms) --\n");
    TablePrinter tb({"Host threads x cores", "Best GPU side", "QPS"});
    sched::SearchOptions opt = bench::benchSearchOptions();
    for (int s : {2, 4, 6, 8, 10, 14, 18}) {
        // All nine accelerator-side candidates of one host split are
        // independent: fan them out, reduce in request order.
        std::vector<core::EvalRequest> reqs;
        for (int g : {1, 2, 4}) {
            for (int f : {0, 1000, 4000}) {
                sched::SchedulingConfig cfg = gpuModel(g, f);
                cfg.mapping = sched::Mapping::GpuSdPipeline;
                cfg.cpu_threads = s;
                cfg.batch = 128;
                reqs.push_back({&t7, &m, cfg, 20.0, mo});
            }
        }
        std::vector<core::EvalResult> results = engine.evaluateMany(reqs);
        double best_qps = -1.0;
        std::string best_gpu = "-";
        for (size_t i = 0; i < reqs.size(); ++i) {
            const core::EvalResult& res = results[i];
            if (res.valid && res.point && res.point->qps > best_qps) {
                best_qps = res.point->qps;
                best_gpu =
                    "g" + std::to_string(reqs[i].cfg.gpu_threads) +
                    " f" + std::to_string(reqs[i].cfg.fusion_limit);
            }
        }
        tb.addRow({std::to_string(s) + "x1", best_gpu,
                   best_qps >= 0 ? fmtDouble(best_qps, 0) : "viol."});
    }
    tb.print();

    // The full nested gradient search for reference.
    sched::SearchResult r = sched::gradientSearchMapping(
        t7, m, sched::Mapping::GpuSdPipeline, 20.0, opt);
    if (r.best)
        std::printf("\ngradient search optimum: %s at %.0f QPS "
                    "(%d evals)\n",
                    r.best->str().c_str(), r.best_qps, r.evals);
}

/**
 * Fig 13 — the online cluster manager's capacity view: two diurnal
 * services (RMC1, RMC2) on a T2+T3+T7 fleet over 24 h, re-provisioned
 * every 0.5 h from the efficiency tuples with the over-provision rate R
 * estimated from RMC1's load history (paper §IV-C), under each cluster
 * scheduler in turn.
 */
void
fig13(Paper& paper)
{
    bench::banner("Figure 13",
                  "Online cluster manager: servers on and provisioned "
                  "power over a day (analytic)");

    const std::vector<hw::ServerType> fleet = {
        hw::ServerType::T2, hw::ServerType::T3, hw::ServerType::T7};
    const std::vector<model::ModelId> services = {
        model::ModelId::DlrmRmc1, model::ModelId::DlrmRmc2};
    cluster::ProvisionProblem problem =
        cluster::ProvisionProblem::fromTable(paper.table(), fleet,
                                             services);
    std::vector<cluster::ClusterWorkload> workloads(2);
    workloads[0].model = services[0];
    workloads[0].load.peak_qps = 60'000;
    workloads[0].load.seed = 5;
    workloads[1].model = services[1];
    workloads[1].load.peak_qps = 12'000;
    workloads[1].load.seed = 6;

    cluster::ClusterManagerOptions opt;
    opt.overprovision_rate = cluster::estimateOverprovisionRate(
        workload::DiurnalLoad(workloads[0].load), opt.interval_hours);
    std::printf("estimated over-provision rate R = %.1f%%\n\n",
                opt.overprovision_rate * 100.0);

    cluster::HerculesProvisioner hercules;
    cluster::GreedyProvisioner greedy;
    cluster::NhProvisioner nh(17);
    cluster::Provisioner* const policies[] = {&hercules, &greedy, &nh};
    for (cluster::Provisioner* policy : policies) {
        cluster::ClusterRunResult run =
            cluster::runCluster(problem, workloads, *policy, opt);
        std::printf("-- %s scheduler --\n", policy->name());
        TablePrinter t({"Hour", "RMC1 load", "RMC2 load", "T2 on",
                        "T3 on", "T7 on", "Power (kW)", "OK"});
        for (size_t i = 0; i < run.intervals.size(); i += 3) {
            const auto& iv = run.intervals[i];
            t.addRow({fmtDouble(iv.t_hours, 1), fmtEng(iv.loads[0], 1),
                      fmtEng(iv.loads[1], 1),
                      std::to_string(iv.alloc.activatedOfType(0)),
                      std::to_string(iv.alloc.activatedOfType(1)),
                      std::to_string(iv.alloc.activatedOfType(2)),
                      fmtDouble(iv.provisioned_power_w / 1e3, 2),
                      iv.satisfied ? "y" : "N"});
        }
        t.print();
        std::printf("peak: %d servers / %.1f kW;  average: %.1f servers "
                    "/ %.1f kW;  unsatisfied intervals: %d\n\n",
                    run.peak_servers, run.peak_power_w / 1e3,
                    run.avg_servers, run.avg_power_w / 1e3,
                    run.unsatisfied_intervals);
    }
}

/**
 * Fig 14 — SLA-aware task schedulers compared: the baseline
 * (DeepRecSys on the CPU, Baymax on the accelerator) vs Hercules, for
 * all six models on T2 (CPU), T3 (CPU+NMP), T7 (CPU+GPU) and T8
 * (CPU+NMP+GPU), across a sweep of SLA targets.
 *
 * Reproduction targets (who wins, roughly by how much): Hercules wins
 * everywhere (1.03x-9x). Sparse-heavy DLRMs gain ~1.3-2.7x on
 * CPU-centric servers (S-D pipelining + op-parallelism); compute-heavy
 * models gain up to ~6-9x on GPU servers (co-location + fusion).
 */
void
fig14(Paper& paper)
{
    bench::banner("Figure 14",
                  "Baseline vs Hercules task scheduler, 6 models x 4 "
                  "server types x SLA sweep");

    sched::SearchOptions opt = bench::benchSearchOptions();
    const std::vector<hw::ServerType> servers = {
        hw::ServerType::T2, hw::ServerType::T3, hw::ServerType::T7,
        hw::ServerType::T8};
    const std::vector<double> sla_scale =
        bench::fastMode() ? std::vector<double>{1.0, 2.0}
                          : std::vector<double>{0.5, 1.0, 2.0, 4.0};

    int rows = 0;
    double min_speedup = 1e18;
    // Each compute-heavy model's best speedup on the GPU servers.
    std::vector<std::string> gpu_best;
    bool gpu_wins = true;
    for (model::ModelId mid : model::allModels()) {
        model::Model m = model::buildModel(mid);
        std::printf("-- %s (default SLA %.0f ms) --\n",
                    model::modelName(mid), m.sla_ms);
        TablePrinter t({"Server", "SLA (ms)", "Baseline QPS",
                        "Hercules QPS", "Speedup", "Hercules config"});
        double gpu_hi = 0.0;
        for (hw::ServerType st : servers) {
            const hw::ServerSpec& server = hw::serverSpec(st);
            double lo = 1e18, hi = 0.0;
            for (double scale : sla_scale) {
                double sla = m.sla_ms * scale;
                sched::SearchResult base =
                    sched::baselineSearch(server, m, sla, opt);
                sched::SearchResult herc =
                    sched::herculesTaskSearch(server, m, sla, opt);
                double b = base.best ? base.best_qps : 0.0;
                double h = herc.best ? herc.best_qps : 0.0;
                double speedup = b > 0.0 ? h / b : 0.0;
                if (speedup > 0.0) {
                    lo = std::min(lo, speedup);
                    hi = std::max(hi, speedup);
                }
                ++rows;
                if (b > 0.0)
                    min_speedup = std::min(min_speedup, speedup);
                if (server.hasGpu())
                    gpu_hi = std::max(gpu_hi, speedup);
                t.addRow({hw::serverTypeName(st), fmtDouble(sla, 0),
                          fmtDouble(b, 0), fmtDouble(h, 0),
                          speedup > 0 ? fmtSpeedup(speedup) : "-",
                          herc.best ? herc.best->str() : "-"});
            }
            if (hi > 0.0)
                std::printf("  %s on %s: speedup range %.2fx - %.2fx\n",
                            model::modelName(mid), hw::serverTypeName(st),
                            lo, hi);
        }
        t.print();
        std::printf("\n");

        if (mid != model::ModelId::DlrmRmc1 &&
            mid != model::ModelId::DlrmRmc2) {
            gpu_best.push_back(fmtSpeedup(gpu_hi));
            gpu_wins = gpu_wins && gpu_hi >= 1.5;
        }
    }
    paper.claim("Hercules >= baseline in every row", "1.03x - 9.0x",
                "min " + fmtSpeedup(min_speedup) + " over " +
                    std::to_string(rows) + " rows",
                min_speedup >= 1.0);
    paper.claim("RMC3, MT-WnD, DIN, DIEN: >= 1.5x on T7/T8",
                "6.71x / 9.0x / 6.95x / 6.0x", joined(gpu_best), gpu_wins);
}

/**
 * Fig 15 — server-architecture exploration: normalized latency-bounded
 * throughput and energy efficiency of all six production models across
 * the ten server types (SLA targets 20/50/50/50/100/100 ms).
 *
 * Reproduction targets: NMP servers dominate the pooled DLRMs (RMC1 /
 * RMC2) in both metrics and scale with rank parallelism; GPU servers
 * dominate the compute-heavy models (RMC3 / MT-WnD / DIN / DIEN); NMP
 * brings no throughput gain — and an efficiency *loss* — for one-hot
 * models (extra idle power).
 */
void
fig15(Paper& paper)
{
    bench::banner("Figure 15",
                  "6 models x 10 server architectures (offline "
                  "profiling)");

    const core::EfficiencyTable& table = paper.table();

    for (bool energy : {false, true}) {
        std::printf("-- normalized %s (T1 = 1.0) --\n",
                    energy ? "energy efficiency (QPS/W)"
                           : "throughput (QPS)");
        std::vector<std::string> header = {"Server"};
        for (model::ModelId mid : model::allModels())
            header.push_back(model::modelName(mid));
        TablePrinter t(header);
        for (hw::ServerType st : hw::allServerTypes()) {
            std::vector<std::string> row = {
                hw::serverSpec(st).name};
            for (model::ModelId mid : model::allModels()) {
                const core::EfficiencyEntry* e = table.get(st, mid);
                const core::EfficiencyEntry* base =
                    table.get(hw::ServerType::T1, mid);
                if (!e || !e->feasible || !base || !base->feasible) {
                    row.push_back("-");
                    continue;
                }
                double v = energy ? e->qps_per_watt / base->qps_per_watt
                                  : e->qps / base->qps;
                row.push_back(fmtDouble(v, 2));
            }
            t.addRow(row);
        }
        t.print();
        std::printf("\n");
    }

    // The per-model architecture winners.
    TablePrinter w({"Model", "Best QPS server", "Best QPS/W server"});
    for (model::ModelId mid : model::allModels()) {
        auto by_qps = table.rank(mid, false);
        auto by_eff = table.rank(mid, true);
        w.addRow({model::modelName(mid),
                  by_qps.empty() ? "-" : hw::serverSpec(by_qps[0]).name,
                  by_eff.empty() ? "-" : hw::serverSpec(by_eff[0]).name});
    }
    w.print();

    auto best = [&](model::ModelId m, bool energy) -> const hw::ServerSpec& {
        return hw::serverSpec(table.rank(m, energy).at(0));
    };
    const hw::ServerSpec& rmc1 = best(model::ModelId::DlrmRmc1, true);
    const hw::ServerSpec& rmc2 = best(model::ModelId::DlrmRmc2, true);
    paper.claim("an NMP server has the best QPS/W for RMC1, RMC2",
                "NMP-rich servers", rmc1.name + " / " + rmc2.name,
                rmc1.hasNmp() && rmc2.hasNmp());
    // One-hot models: fastest on a V100 server; NMP only costs QPS/W.
    std::vector<std::string> fastest, nmp_gain;
    bool v100 = true, nmp_costs = true;
    for (model::ModelId mid : {model::ModelId::MtWnd, model::ModelId::Din,
                               model::ModelId::Dien}) {
        const hw::ServerSpec& s = best(mid, false);
        v100 = v100 && s.gpu && s.gpu->name == "NVIDIA V100";
        fastest.push_back(s.name);
        double r = table.get(hw::ServerType::T3, mid)->qps_per_watt /
                   table.get(hw::ServerType::T2, mid)->qps_per_watt;
        nmp_costs = nmp_costs && r < 1.0;
        nmp_gain.push_back(fmtSpeedup(r));
    }
    paper.claim("a V100 server has the best QPS for MT-WnD, DIN, DIEN",
                "V100 servers", joined(fastest), v100);
    paper.claim("NMP lowers QPS/W of MT-WnD, DIN, DIEN (T3/T2)",
                "adds only idle power", joined(nmp_gain), nmp_costs);
}

/**
 * The evolution services with each peak load scaled to a fraction of
 * the CPU-only (T1+T2) fleet capacity for its legacy model. The paper's
 * absolute 50K-QPS peaks are calibrated to its measured tuples; against
 * our simulated tuples the same fractions-of-fleet reproduce the
 * Fig 16 capacity-growth story without saturating the cluster on day
 * one. The fraction gives the three services together ~36% of the fleet
 * at the Day-D1 peak, leaving the headroom the paper's Day-D2 snapshot
 * consumes.
 */
std::vector<cluster::EvolutionService>
evolutionServices(const core::EfficiencyTable& table)
{
    const double fleet_fraction = 0.12;
    auto services = cluster::defaultEvolutionServices();
    for (auto& svc : services) {
        double capacity = 0.0;
        for (hw::ServerType st : {hw::ServerType::T1, hw::ServerType::T2}) {
            const core::EfficiencyEntry* e = table.get(st, svc.legacy);
            if (e && e->feasible)
                capacity += e->qps * hw::serverSpec(st).availability;
        }
        if (capacity > 0.0)
            svc.load.peak_qps = fleet_fraction * capacity;
    }
    return services;
}

/**
 * Fig 16 — model evolution: traffic migrates linearly from the DLRM
 * workloads to the higher-complexity DIN / DIEN / MT-WnD models.
 *  (a) the synthetic mix per update cycle;
 *  (b) peak/average provisioned power on the CPU-only cluster vs the
 *      accelerated cluster across the evolution;
 *  (c)(d) Day-D1 vs Day-D2 capacity snapshots (20% of traffic moved).
 *
 * Reproduction targets: on the CPU-only cluster, D2 needs ~2.27x the
 * capacity and ~1.77x the power of D1 at peak; deploying the
 * accelerated servers recovers 22-52% of peak provisioned power during
 * the evolution.
 */
void
fig16(Paper& paper)
{
    bench::banner("Figure 16", "Model evolution and cluster capacity");

    const core::EfficiencyTable& table = paper.table();
    auto services = evolutionServices(table);

    const std::vector<hw::ServerType> cpu_only = {hw::ServerType::T1,
                                                  hw::ServerType::T2};
    const std::vector<hw::ServerType> accelerated =
        hw::allServerTypes();

    cluster::ClusterManagerOptions copt;
    cluster::HerculesProvisioner policy;

    std::printf("-- Fig 16(a)(b): evolution stages --\n");
    // The CPU-only column is a *projection* (unbounded T1/T2 supply),
    // exactly as the paper projects the 5.4x capacity / 3.54x power
    // growth the baseline fleet would need by the end of evolution.
    TablePrinter t({"Stage", "Legacy %", "CPU-only proj. peak kW",
                    "CPU-only proj. srv", "Accel peak kW",
                    "Accel avg kW", "Peak saving vs proj."});
    std::vector<double> stages = bench::fastMode()
                                     ? std::vector<double>{0.0, 0.5, 1.0}
                                     : std::vector<double>{0.0, 0.2, 0.4,
                                                           0.6, 0.8, 1.0};
    std::vector<cluster::ClusterRunResult> proj;  // CPU-only, per stage
    double min_saving = 1e18;
    for (double s : stages) {
        auto workloads = cluster::evolutionWorkloads(services, s);
        auto models = cluster::evolutionModels(services, s);
        auto p_proj = cluster::ProvisionProblem::fromTable(
            table, cpu_only, models, {1'000'000, 1'000'000});
        auto p_acc = cluster::ProvisionProblem::fromTable(
            table, accelerated, models);
        auto r_proj = cluster::runCluster(p_proj, workloads, policy, copt);
        auto r_acc = cluster::runCluster(p_acc, workloads, policy, copt);
        double saving = 1.0 - r_acc.peak_power_w /
                                  std::max(r_proj.peak_power_w, 1.0);
        min_saving = std::min(min_saving, saving);
        t.addRow({fmtDouble(s, 1), fmtPercent(1.0 - s, 0),
                  fmtDouble(r_proj.peak_power_w / 1e3, 1),
                  std::to_string(r_proj.peak_servers),
                  fmtDouble(r_acc.peak_power_w / 1e3, 1),
                  fmtDouble(r_acc.avg_power_w / 1e3, 1),
                  fmtPercent(saving, 1)});
        proj.push_back(r_proj);
    }
    t.print();
    std::printf("\n");
    double proj_srv = static_cast<double>(proj.back().peak_servers) /
                      std::max(proj.front().peak_servers, 1);
    double proj_kw = proj.back().peak_power_w / 1e3 /
                     std::max(proj.front().peak_power_w / 1e3, 1e-9);
    paper.claim("CPU-only projection grows: capacity / power", "5.4x / 3.54x",
                joined({fmtSpeedup(proj_srv), fmtSpeedup(proj_kw)}),
                proj_srv > 1.0 && proj_kw > 1.0);
    paper.claim("accelerated < projected peak power, every stage",
                "22-52% saving", "min " + fmtPercent(min_saving, 1),
                min_saving > 0.0);

    // ---- (c)(d) Day-D1 vs Day-D2 snapshots on the CPU-only cluster ---
    std::printf("-- Fig 16(c)(d): Day-D1 (stage 0) vs Day-D2 (stage 0.2) "
                "on the CPU-only cluster --\n");
    auto w1 = cluster::evolutionWorkloads(services, 0.0);
    auto w2 = cluster::evolutionWorkloads(services, 0.2);
    auto p1 = cluster::ProvisionProblem::fromTable(
        table, cpu_only, cluster::evolutionModels(services, 0.0));
    auto p2 = cluster::ProvisionProblem::fromTable(
        table, cpu_only, cluster::evolutionModels(services, 0.2));
    auto r1 = cluster::runCluster(p1, w1, policy, copt);
    auto r2 = cluster::runCluster(p2, w2, policy, copt);

    TablePrinter td({"Hour", "D1 servers", "D1 kW", "D2 servers",
                     "D2 kW"});
    for (size_t i = 0; i < r1.intervals.size(); i += 4) {
        td.addRow({fmtDouble(r1.intervals[i].t_hours, 1),
                   std::to_string(r1.intervals[i].activated_servers),
                   fmtDouble(r1.intervals[i].provisioned_power_w / 1e3,
                             1),
                   std::to_string(r2.intervals[i].activated_servers),
                   fmtDouble(r2.intervals[i].provisioned_power_w / 1e3,
                             1)});
    }
    td.print();
    if (r1.unsatisfied_intervals || r2.unsatisfied_intervals)
        std::printf("note: %d/%d intervals exceeded CPU-only fleet "
                    "capacity (best-effort allocation)\n",
                    r1.unsatisfied_intervals + r2.unsatisfied_intervals,
                    static_cast<int>(r1.intervals.size() +
                                     r2.intervals.size()));

    double cap_peak = static_cast<double>(r2.peak_servers) /
                      std::max(r1.peak_servers, 1);
    double cap_avg = r2.avg_servers / std::max(r1.avg_servers, 1.0);
    double pow_peak = r2.peak_power_w / std::max(r1.peak_power_w, 1.0);
    double pow_avg = r2.avg_power_w / std::max(r1.avg_power_w, 1.0);
    paper.claim("D2/D1 > 1: capacity peak / avg, power peak / avg",
                "2.27x / 2.09x / 1.77x / 1.64x",
                joined({fmtSpeedup(cap_peak), fmtSpeedup(cap_avg),
                        fmtSpeedup(pow_peak), fmtSpeedup(pow_avg)}),
                std::min({cap_peak, cap_avg, pow_peak, pow_avg}) > 1.0);
}

/**
 * Fig 17 — the three cluster schedulers on the accelerated Day-D2
 * cluster (20% of traffic on the successor models; accelerated servers
 * T3-T10 with Table II availabilities):
 * heterogeneity-oblivious (NH), greedy [8,9], and Hercules (Eq. 1-3).
 *
 * Reproduction targets: greedy saves 75.8% (peak) / 67.4% (avg)
 * capacity and 50.8% / 42.7% power over NH; Hercules saves a further
 * 47.7% / 22.8% capacity and 23.7% / 9.1% power over greedy.
 */
void
fig17(Paper& paper)
{
    bench::banner("Figure 17",
                  "NH vs greedy vs Hercules cluster scheduling "
                  "(Day-D2, accelerated cluster)");

    const core::EfficiencyTable& table = paper.table();
    auto services = evolutionServices(table);
    auto workloads = cluster::evolutionWorkloads(services, 0.2);
    auto models = cluster::evolutionModels(services, 0.2);
    auto problem = cluster::ProvisionProblem::fromTable(
        table, hw::allServerTypes(), models);

    cluster::ClusterManagerOptions copt;
    cluster::NhProvisioner nh(11);
    cluster::GreedyProvisioner greedy;
    cluster::HerculesProvisioner hercules;

    auto rn = cluster::runCluster(problem, workloads, nh, copt);
    auto rg = cluster::runCluster(problem, workloads, greedy, copt);
    auto rh = cluster::runCluster(problem, workloads, hercules, copt);

    std::printf("-- hourly capacity and provisioned power --\n");
    TablePrinter t({"Hour", "NH srv", "NH kW", "Greedy srv", "Greedy kW",
                    "Hercules srv", "Hercules kW"});
    for (size_t i = 0; i < rn.intervals.size(); i += 2) {
        t.addRow({fmtDouble(rn.intervals[i].t_hours, 1),
                  std::to_string(rn.intervals[i].activated_servers),
                  fmtDouble(rn.intervals[i].provisioned_power_w / 1e3, 1),
                  std::to_string(rg.intervals[i].activated_servers),
                  fmtDouble(rg.intervals[i].provisioned_power_w / 1e3, 1),
                  std::to_string(rh.intervals[i].activated_servers),
                  fmtDouble(rh.intervals[i].provisioned_power_w / 1e3,
                            1)});
    }
    t.print();

    auto saving = [](double better, double worse) {
        return worse > 0 ? (1.0 - better / worse) : 0.0;
    };
    std::printf("\n-- savings --\n");
    TablePrinter s({"Comparison", "Capacity peak", "Capacity avg",
                    "Power peak", "Power avg", "Paper (peak)"});
    s.addRow({"Greedy vs NH",
              fmtPercent(saving(rg.peak_servers, rn.peak_servers), 1),
              fmtPercent(saving(rg.avg_servers, rn.avg_servers), 1),
              fmtPercent(saving(rg.peak_power_w, rn.peak_power_w), 1),
              fmtPercent(saving(rg.avg_power_w, rn.avg_power_w), 1),
              "75.8% cap / 50.8% pow"});
    s.addRow({"Hercules vs Greedy",
              fmtPercent(saving(rh.peak_servers, rg.peak_servers), 1),
              fmtPercent(saving(rh.avg_servers, rg.avg_servers), 1),
              fmtPercent(saving(rh.peak_power_w, rg.peak_power_w), 1),
              fmtPercent(saving(rh.avg_power_w, rg.avg_power_w), 1),
              "47.7% cap / 23.7% pow"});
    s.print();

    double gn_cap = saving(rg.peak_servers, rn.peak_servers);
    double gn_pow = saving(rg.peak_power_w, rn.peak_power_w);
    double hg_cap = saving(rh.peak_servers, rg.peak_servers);
    double hg_pow = saving(rh.peak_power_w, rg.peak_power_w);
    paper.claim("greedy < NH in peak capacity", "75.8% saving",
                fmtPercent(gn_cap, 1), gn_cap > 0.0);
    paper.claim("greedy < NH in peak power", "50.8% saving",
                fmtPercent(gn_pow, 1), gn_pow > 0.0);
    paper.claim("Hercules <= greedy in peak power", "23.7% saving",
                fmtPercent(hg_pow, 1), hg_pow >= 0.0);
    paper.claim("Hercules <= greedy in peak capacity", "47.7% saving",
                fmtPercent(hg_cap, 1), hg_cap >= 0.0, true);
}

double
qpsOf(core::EvalEngine& engine, const hw::ServerSpec& server,
      const model::Model& m, const sched::SchedulingConfig& cfg,
      double sla_ms)
{
    sim::MeasureOptions mo = bench::benchSearchOptions().measure;
    core::EvalResult res =
        engine.evaluate(core::EvalRequest{&server, &m, cfg, sla_ms, mo});
    return res.valid && res.point ? res.point->qps : -1.0;
}

std::string
cell(double v)
{
    return v >= 0 ? fmtDouble(v, 0) : std::string("viol.");
}

/**
 * Ablations of the Hercules design choices: what each mechanism is
 * worth on its own, measured as latency-bounded QPS with everything
 * else held fixed.
 *
 *  1. elementwise operator fusion (on/off) — dispatch-overhead saving;
 *  2. S-D pipeline vs model-based scheduling at equal core budget —
 *     the value of separating the dependency-free SparseNet;
 *  3. op-parallelism (cores per thread) at a fixed core budget — the
 *     Psp(O) dimension the baselines never search;
 *  4. query fusion vs model co-location on the accelerator — which
 *     lever does the heavy lifting in Fig 6;
 *  5. NMP offload — the same configuration on DDR4 vs NMPx2 memory.
 */
void
ablation(Paper&)
{
    bench::banner("Ablations",
                  "Per-mechanism value of the Hercules design choices");

    const hw::ServerSpec& t2 = hw::serverSpec(hw::ServerType::T2);
    const hw::ServerSpec& t3 = hw::serverSpec(hw::ServerType::T3);
    const hw::ServerSpec& t7 = hw::serverSpec(hw::ServerType::T7);
    // One engine: ablation cells repeating a config are memo hits.
    core::EvalEngine engine;

    // ---- 1. elementwise fusion ---------------------------------------
    std::printf("-- 1. elementwise operator fusion (cpu-model 10x2 "
                "b128) --\n");
    TablePrinter t1({"Model", "fused QPS", "unfused QPS", "gain"});
    for (model::ModelId mid :
         {model::ModelId::DlrmRmc1, model::ModelId::DlrmRmc3}) {
        model::Model m = model::buildModel(mid);
        sched::SchedulingConfig cfg = cpuModel(10, 2, 128);
        double fused = qpsOf(engine, t2, m, cfg, m.sla_ms);
        cfg.fuse_elementwise = false;
        double raw = qpsOf(engine, t2, m, cfg, m.sla_ms);
        t1.addRow({model::modelName(mid), cell(fused), cell(raw),
                   raw > 0 ? fmtSpeedup(fused / raw) : "-"});
    }
    t1.print();

    // ---- 2. S-D pipeline vs model-based at 20 cores --------------------
    std::printf("\n-- 2. S-D pipeline vs model-based (DLRM models, "
                "20 cores, b128) --\n");
    TablePrinter t2t({"Model", "model-based 10x2", "S-D 6x2::8", "gain"});
    for (model::ModelId mid : {model::ModelId::DlrmRmc1,
                               model::ModelId::DlrmRmc2,
                               model::ModelId::DlrmRmc3}) {
        model::Model m = model::buildModel(mid);
        sched::SchedulingConfig sd = cpuModel(6, 2, 128);
        sd.mapping = sched::Mapping::CpuSdPipeline;
        sd.dense_threads = 8;
        double a = qpsOf(engine, t2, m, cpuModel(10, 2, 128), m.sla_ms);
        double b = qpsOf(engine, t2, m, sd, m.sla_ms);
        t2t.addRow({model::modelName(mid), cell(a), cell(b),
                    a > 0 && b > 0 ? fmtSpeedup(b / a) : "-"});
    }
    t2t.print();

    // ---- 3. op-parallelism at a fixed 20-core budget --------------------
    std::printf("\n-- 3. op-parallelism Psp(O) at 20 cores (DLRM-RMC1, "
                "b128) --\n");
    TablePrinter t3t({"Allocation", "QPS"});
    model::Model rmc1 = model::buildModel(model::ModelId::DlrmRmc1);
    for (int o : {1, 2, 4}) {
        t3t.addRow({std::to_string(20 / o) + "x" + std::to_string(o),
                    cell(qpsOf(engine, t2, rmc1, cpuModel(20 / o, o, 128),
                               rmc1.sla_ms))});
    }
    t3t.print();

    // ---- 4. co-location vs fusion on the V100 --------------------------
    std::printf("\n-- 4. accelerator levers (DLRM-RMC3 small, "
                "SLA 50 ms) --\n");
    model::Model rmc3 =
        model::buildModel(model::ModelId::DlrmRmc3, model::Variant::Small);
    TablePrinter t4({"Config", "QPS"});
    struct Lever
    {
        const char* name;
        int g;
        int fusion;
    };
    for (const Lever& lv :
         {Lever{"neither (g1, none)", 1, 0},
          Lever{"co-location only (g4)", 4, 0},
          Lever{"fusion only (g1 f4000)", 1, 4000},
          Lever{"both (g2 f4000)", 2, 4000}}) {
        t4.addRow({lv.name, cell(qpsOf(engine, t7, rmc3,
                                       gpuModel(lv.g, lv.fusion), 50.0))});
    }
    t4.print();

    // ---- 5. NMP offload --------------------------------------------------
    std::printf("\n-- 5. NMP offload: identical schedule on DDR4 vs "
                "NMPx2 (b32 keeps every model's\n   batch service time "
                "inside its SLA on plain DDR4) --\n");
    TablePrinter t5({"Model", "T2 (DDR4) QPS", "T3 (NMPx2) QPS", "gain"});
    for (model::ModelId mid :
         {model::ModelId::DlrmRmc1, model::ModelId::DlrmRmc2,
          model::ModelId::MtWnd}) {
        model::Model m = model::buildModel(mid);
        double ddr = qpsOf(engine, t2, m, cpuModel(10, 2, 32), m.sla_ms);
        double nmp = qpsOf(engine, t3, m, cpuModel(10, 2, 32), m.sla_ms);
        t5.addRow({model::modelName(mid), cell(ddr), cell(nmp),
                   ddr > 0 && nmp > 0 ? fmtSpeedup(nmp / ddr) : "-"});
    }
    t5.print();
    std::printf("\n(one-hot MT-WnD shows no NMP gain — the offload only "
                "accelerates Gather-Reduce)\n");
}

/** One serving arm: a named replay and its serve wall time. */
struct Arm
{
    std::string name;
    cluster::MultiServeResult serve;
    double wall_ms = 0.0;
};

/** Replay `spec` on the driver's table as the arm `name`. */
Arm
runArm(Paper& paper, std::string name, const scenario::ScenarioSpec& spec)
{
    scenario::ScenarioResult r = scenario::run(spec, &paper.table());
    return {std::move(name), std::move(r.serve), r.serve_wall_ms};
}

/** The spec's service models, in service order. */
std::vector<model::ModelId>
modelIds(const scenario::ScenarioSpec& spec)
{
    std::vector<model::ModelId> ids;
    for (const scenario::ServiceScenario& s : spec.services)
        ids.push_back(s.spec.model);
    return ids;
}

/**
 * The over-provision rate R the multi-service experiments give their
 * arms: the largest ramp estimate over the services plus 15% tail
 * headroom. A tuple's QPS is latency-bounded, so coverage at exactly
 * load * (1 + ramp) would run shards at the edge of their SLA.
 */
double
headroomR(const scenario::ScenarioSpec& spec)
{
    double ramp = 0.0;
    for (const scenario::ServiceScenario& s : spec.services)
        ramp = std::max(ramp, cluster::estimateOverprovisionRate(
                                  workload::DiurnalLoad(s.spec.load),
                                  spec.serve.interval_hours,
                                  spec.serve.horizon_hours));
    return ramp + 0.15;
}

/** An arm-table row: the outcome counts and latencies of `st`. */
std::vector<std::string>
statsRow(const std::string& arm, const std::string& service,
         const sim::RunStats& st)
{
    return {arm,
            service,
            std::to_string(st.completed),
            std::to_string(st.rejected),
            std::to_string(st.dropped),
            std::to_string(st.failed_inflight),
            fmtDouble(st.p50_ms, 2),
            fmtDouble(st.p99_ms, 2),
            fmtPercent(st.sla_violation_rate, 2)};
}

/**
 * Report a serving experiment's arms: one table row per arm (its
 * totals, then each service when there are several), and each arm's
 * run summary under the experiment's name in BENCH_paper.json, after
 * the experiment-level values `params` writes.
 */
void
reportArms(Paper& paper, const std::vector<Arm>& arms,
           const std::vector<model::ModelId>& models,
           const std::function<void(util::JsonWriter&)>& params)
{
    TablePrinter t({"Arm", "Service", "Completed", "Rejected", "Dropped",
                    "Killed", "p50 (ms)", "p99 (ms)", "SLA viol",
                    "Prov kW", "Cons kW", "Reprov", "Wall (ms)"});
    for (const Arm& a : arms) {
        const sim::ClusterSimResult& r = a.serve.sim;
        std::vector<std::string> row = statsRow(a.name, "all", r);
        row.insert(row.end(),
                   {fmtDouble(r.avg_provisioned_power_w / 1e3, 3),
                    fmtDouble(r.avg_consumed_power_w / 1e3, 3),
                    std::to_string(a.serve.reprovisions),
                    fmtDouble(a.wall_ms, 0)});
        t.addRow(row);
        if (models.size() == 1)
            continue;
        for (size_t s = 0; s < models.size(); ++s) {
            row = statsRow("", model::modelName(models[s]), r.services[s]);
            row.insert(row.end(), {"", "", "", ""});
            t.addRow(row);
        }
    }
    t.print();
    std::printf("\n");

    util::JsonWriter& w = paper.json;
    w.key(paper.figure).beginObject();
    params(w);
    w.key("arms").beginArray();
    for (const Arm& a : arms) {
        w.beginObject();
        w.key("arm").str(a.name);
        w.key("queries").integer(a.serve.trace_queries);
        w.key("reprovisions").integer(a.serve.reprovisions);
        w.key("health_transitions")
            .integer(a.serve.sim.health_transitions.size());
        bench::writeArmSummary(w, a.serve.sim, models);
        w.key("wall_ms").fixed(a.wall_ms, 1);
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

/**
 * Cluster serving — every (cluster provisioner, router) pair replays
 * one service's diurnal trace on a sharded heterogeneous fleet. The
 * base spec is scenarios/single_service.scn as shipped (2 shards, a
 * short horizon) in fast mode; full mode widens it to a T2+T3+T7 fleet
 * over a whole day. Claim: under the Hercules provisioner, the
 * tuple-weighted router dominates round-robin in p99 and violations.
 */
void
serving(Paper& paper)
{
    bench::banner("Cluster serving",
                  "Router policies x provisioners over a diurnal replay "
                  "on a sharded heterogeneous fleet");

    scenario::ScenarioSpec spec = bench::loadScenario("single_service.scn");
    if (!bench::fastMode()) {
        spec.fleet = {{hw::ServerType::T2, 2},
                      {hw::ServerType::T3, 2},
                      {hw::ServerType::T7, 1}};
        spec.services[0].peak_qps_frac = 0.60;
        spec.services[0].spec.load.peak_hour = 20.0;
        spec.serve.horizon_hours = 24.0;
        spec.serve.trace.time_compression = 480.0;
    }
    scenario::resolvePeaks(spec, paper.table());
    spec.nh_seed = 11;

    std::vector<Arm> arms;
    for (scenario::ProvisionerKind prov :
         {scenario::ProvisionerKind::Hercules,
          scenario::ProvisionerKind::Greedy,
          scenario::ProvisionerKind::Nh}) {
        for (sim::RouterPolicy rp : sim::allRouterPolicies()) {
            spec.provisioner = prov;
            spec.serve.router = rp;
            arms.push_back(runArm(
                paper,
                std::string(scenario::provisionerKindName(prov)) + "/" +
                    sim::routerPolicyName(rp),
                spec));
        }
    }
    const double peak = spec.services[0].spec.load.peak_qps;
    const double capacity = arms[0].serve.service_capacity_qps[0];
    std::printf("horizon %.0fh, peak %.0f QPS on a %.0f QPS fleet, "
                "compression %.0fx\n\n",
                spec.serve.horizon_hours, peak, capacity,
                spec.serve.trace.time_compression);
    reportArms(paper, arms, modelIds(spec), [&](util::JsonWriter& w) {
        w.key("peak_qps").fixed(peak, 1);
        w.key("fleet_capacity_qps").fixed(capacity, 1);
    });

    auto hercules = [&](const char* router) -> const sim::ClusterSimResult& {
        return std::find_if(arms.begin(), arms.end(), [&](const Arm& a) {
                   return a.name == std::string("hercules/") + router;
               })->serve.sim;
    };
    const sim::ClusterSimResult& tw = hercules("hercules");
    const sim::ClusterSimResult& rr = hercules("rr");
    paper.claim("hercules router dominates rr: p99, violations",
                "tuple-weighted routing",
                joined({fmtDouble(tw.p99_ms, 2) + " vs " +
                            fmtDouble(rr.p99_ms, 2) + " ms",
                        fmtPercent(tw.sla_violation_rate, 2) + " vs " +
                            fmtPercent(rr.sla_violation_rate, 2)}),
                tw.p99_ms <= rr.p99_ms + 1e-9 &&
                    tw.sla_violation_rate <= rr.sla_violation_rate + 1e-12);
}

/**
 * Multi-service co-serving — phase-shifted services on one shared
 * T2+T3+T7 fleet, two arms:
 *  - joint: scenarios/three_service_phase_shift.scn, the multi-model
 *    ProvisionProblem solved jointly every interval;
 *  - partition: static per-service silos, each sized for its own peak
 *    (best QPS/W types first) and always on, replayed together in one
 *    hand-built ClusterSim where each service routes only to its own
 *    shards. No provisioner expresses static silos.
 * Fast mode: 2 services on T2+T3, 3h horizon. Claim: joint uses no more
 * average provisioned power at no higher violation rate.
 */
void
multiservice(Paper& paper)
{
    bench::banner("Multi-service co-serving",
                  "Phase-shifted services on one shared heterogeneous "
                  "fleet: joint provisioning vs static partitions");

    const bool fast = bench::fastMode();
    scenario::ScenarioSpec spec =
        bench::loadScenario("three_service_phase_shift.scn");
    if (fast) {
        spec.fleet = {{hw::ServerType::T2, 2}, {hw::ServerType::T3, 1}};
        spec.services.resize(2);
        for (size_t s = 0; s < spec.services.size(); ++s) {
            scenario::ServiceScenario svc;
            svc.spec.model = s == 0 ? model::ModelId::DlrmRmc1
                                    : model::ModelId::DlrmRmc2;
            svc.peak_qps_frac = 0.40;
            svc.spec.load.trough_frac = 0.35;
            svc.spec.load.peak_hour = 0.75 + 1.5 * static_cast<double>(s);
            svc.spec.load.seed = 5 + s;
            spec.services[s] = svc;
        }
        spec.serve.horizon_hours = 3.0;
        spec.serve.trace.time_compression = 960.0;
    }
    const core::EfficiencyTable& table = paper.table();
    scenario::resolvePeaks(spec, table);
    // The fast smoke's 3h window never leaves the peak region, where the
    // extra headroom only reshuffles the LP assignment: it keeps the
    // serving loop's own ramp estimate.
    if (!fast)
        spec.serve.overprovision_rate = headroomR(spec);

    std::vector<Arm> arms;
    arms.push_back(runArm(paper, "joint", spec));
    const std::vector<double> joint_r = arms[0].serve.service_r;

    // ---- static per-service partitions --------------------------------
    // All silos replay the merged trace in one ClusterSim, so each
    // service sees exactly the arrivals it saw in the joint run.
    const size_t S = spec.services.size();
    const std::vector<model::ModelId> model_ids = modelIds(spec);
    std::vector<hw::ServerType> fleet;
    std::vector<int> remaining;
    for (const scenario::FleetEntry& e : spec.fleet) {
        fleet.push_back(e.type);
        remaining.push_back(e.shard_slots);
    }
    const cluster::TraceServeOptions& opt = spec.serve;
    workload::TraceOptions topt = opt.trace;
    topt.horizon_hours = opt.horizon_hours;
    std::vector<workload::ServiceTraceSpec> trace_specs(S);
    for (size_t s = 0; s < S; ++s) {
        trace_specs[s].load = spec.services[s].spec.load;
        trace_specs[s].sizes = spec.services[s].spec.sizes;
        trace_specs[s].pooling = spec.services[s].spec.pooling;
    }
    std::vector<workload::Query> merged =
        workload::generateMultiServiceTrace(trace_specs, topt);

    obs::WallTimer timer;
    std::vector<model::Model> models;
    models.reserve(S);
    sim::ClusterSim::Options copt;
    copt.router = opt.router;
    copt.router_seed = opt.router_seed;
    copt.sla_ms = opt.sla_ms;
    for (size_t s = 0; s < S; ++s) {
        models.push_back(model::buildModel(model_ids[s]));
        copt.service_sla_ms.push_back(models[s].sla_ms);
    }
    sim::ClusterSim part(copt);
    part.declareServices(static_cast<int>(S));
    std::vector<sim::PreparedWorkload> prepared;
    prepared.reserve(S * fleet.size());  // shards point into it
    double static_power = 0.0;
    // Two passes, so a scarce fleet still gives every silo a server:
    // (1) each service claims one server of its best QPS/W type; (2)
    // greedy top-up, best types first, until the service's peak *
    // (1 + R) is covered or the slots run out.
    auto entry = [&](size_t h, size_t s) {
        return table.get(fleet[h], model_ids[s]);
    };
    std::vector<std::vector<size_t>> type_order(S);
    std::vector<std::vector<int>> takes(S,
                                        std::vector<int>(fleet.size(), 0));
    for (size_t s = 0; s < S; ++s) {
        for (size_t h = 0; h < fleet.size(); ++h)
            if (entry(h, s) != nullptr && entry(h, s)->feasible)
                type_order[s].push_back(h);
        std::stable_sort(type_order[s].begin(), type_order[s].end(),
                         [&](size_t a, size_t b) {
                             const auto* ea = entry(a, s);
                             const auto* eb = entry(b, s);
                             return ea->qps / std::max(ea->power_w, 1e-9) >
                                    eb->qps / std::max(eb->power_w, 1e-9);
                         });
        for (size_t h : type_order[s]) {
            if (remaining[h] > 0) {
                ++takes[s][h];
                --remaining[h];
                break;
            }
        }
    }
    for (size_t s = 0; s < S; ++s) {
        const double part_r = opt.overprovision_rate >= 0.0
                                  ? opt.overprovision_rate
                                  : joint_r[s];
        const double target =
            spec.services[s].spec.load.peak_qps * (1.0 + part_r);
        std::vector<int>& take = takes[s];
        double covered = 0.0, part_power = 0.0;
        for (size_t h = 0; h < fleet.size(); ++h) {
            if (take[h] > 0) {
                covered += take[h] * entry(h, s)->qps;
                part_power += take[h] * entry(h, s)->power_w;
            }
        }
        for (size_t h : type_order[s]) {
            while (covered < target && remaining[h] > 0) {
                ++take[h];
                --remaining[h];
                covered += entry(h, s)->qps;
                part_power += entry(h, s)->power_w;
            }
        }
        std::printf("partition %s:", model::modelName(model_ids[s]));
        for (size_t h = 0; h < fleet.size(); ++h) {
            if (take[h] <= 0)
                continue;
            std::printf(" %s x%d", hw::serverTypeName(fleet[h]), take[h]);
            prepared.push_back(sim::prepare(hw::serverSpec(fleet[h]),
                                            models[s], entry(h, s)->config));
            for (int i = 0; i < take[h]; ++i)
                part.addShard(prepared.back(), entry(h, s)->qps,
                              static_cast<int>(s));
        }
        std::printf("  (%.0f QPS for %.0f target, %.0f W)\n", covered,
                    target, part_power);
        static_power += part_power;
    }
    std::printf("\n");
    // Every shard always on, at constant power.
    std::vector<int> all_ids(part.numShards());
    for (size_t i = 0; i < all_ids.size(); ++i)
        all_ids[i] = static_cast<int>(i);
    auto static_plan = [&](int, double) {
        sim::IntervalPlan pl;
        pl.active = all_ids;
        pl.provisioned_power_w = static_power;
        return pl;
    };
    Arm& partition = arms.emplace_back(Arm{"partition", {}, 0.0});
    partition.serve.sim =
        part.run(merged, opt.interval_hours * 3600.0 / topt.time_compression,
                 static_plan,
                 opt.horizon_hours * 3600.0 / topt.time_compression);
    partition.serve.trace_queries = merged.size();
    partition.wall_ms = timer.elapsedMs();

    reportArms(paper, arms, model_ids, [&](util::JsonWriter& w) {
        w.key("overprovision_rate").fixed(arms[0].serve.estimated_r, 4);
    });
    const sim::ClusterSimResult& jr = arms[0].serve.sim;
    const sim::ClusterSimResult& pr = arms[1].serve.sim;
    paper.claim("joint <= static partitions: power, violations",
                "shared fleet beats silos",
                joined({fmtDouble(jr.avg_provisioned_power_w / 1e3, 3) +
                            " vs " +
                            fmtDouble(pr.avg_provisioned_power_w / 1e3, 3) +
                            " kW",
                        fmtPercent(jr.sla_violation_rate, 3) + " vs " +
                            fmtPercent(pr.sla_violation_rate, 3)}),
                jr.avg_provisioned_power_w <=
                        pr.avg_provisioned_power_w + 1e-6 &&
                    jr.sla_violation_rate <= pr.sla_violation_rate + 1e-12);
}

/**
 * QoS fast-mode deltas, the same for every arm so that all three replay
 * one merged trace: 2 services on a 5-slot T2+T3 fleet over 18h (the
 * throughput tier's mean provisioning saves power only when the horizon
 * holds the diurnal troughs), surge at 1.5h. The deltas between the
 * shipped files (router, admission) are kept; `qos_on` keeps their
 * priorities and tiers.
 */
void
qosFastDeltas(scenario::ScenarioSpec& spec, bool qos_on)
{
    spec.fleet = {{hw::ServerType::T2, 3}, {hw::ServerType::T3, 2}};
    const std::vector<model::ModelId> ids = {model::ModelId::DlrmRmc2,
                                             model::ModelId::DlrmRmc1};
    spec.services.clear();
    for (size_t s = 0; s < ids.size(); ++s) {
        scenario::ServiceScenario svc;
        svc.spec.model = ids[s];
        svc.peak_qps_frac = 0.25;
        svc.spec.load.trough_frac = 0.35;
        svc.spec.load.peak_hour = 2.0 + 8.0 * static_cast<double>(s);
        svc.spec.load.seed = 5 + s;
        svc.spec.load.surge_hour = 1.5;
        svc.spec.load.surge_hours = 2.0;
        svc.spec.load.surge_factor = 1.5;
        if (qos_on) {
            svc.spec.qos.priority = static_cast<int>(ids.size() - 1 - s);
            svc.spec.qos.tier = s + 1 == ids.size() ? qos::Tier::Throughput
                                                    : qos::Tier::Latency;
        }
        spec.services.push_back(svc);
    }
    spec.serve.horizon_hours = 18.0;
    spec.serve.trace.time_compression = 960.0;
}

/**
 * QoS under overload — three services, an unforecast 1.5x surge and an
 * aggressive power cap, three arms on one merged trace:
 *  - baseline: scenarios/flash_crowd_surge.scn, the pre-QoS stack
 *    (unbounded queues, priority-blind shedding);
 *  - qos: scenarios/priority_tiered_qos.scn, deadline admission with
 *    retry, priority-ordered shedding and a throughput tier;
 *  - qos_feedback: scenarios/feedback_router.scn, the same with the
 *    latency-feedback router.
 * The cap, a function of the profiled table, is the only non-file delta.
 * Claim: the high-priority service's violation rate (rejects and drops
 * count) is strictly lower under QoS, at no more average power.
 */
void
qos(Paper& paper)
{
    bench::banner("QoS under overload",
                  "Deadline admission + priority shedding + feedback "
                  "routing vs the pre-QoS stack on a surge + power cap");

    scenario::ScenarioSpec base = bench::loadScenario("flash_crowd_surge.scn");
    scenario::ScenarioSpec qos_spec =
        bench::loadScenario("priority_tiered_qos.scn");
    scenario::ScenarioSpec fb_spec = bench::loadScenario("feedback_router.scn");
    if (bench::fastMode()) {
        qosFastDeltas(base, false);
        qosFastDeltas(qos_spec, true);
        qosFastDeltas(fb_spec, true);
    }
    const core::EfficiencyTable& table = paper.table();
    for (scenario::ScenarioSpec* spec : {&base, &qos_spec, &fb_spec})
        scenario::resolvePeaks(*spec, table);
    const double r = headroomR(base);

    // The aggressive cap: over the forecast interval grid, find the
    // hungriest interval's requested power and set the cap half of that
    // interval's cheapest allocated server below it. Whole servers are
    // then shed exactly when the fleet is fullest (the surge rides
    // service 0's peak), without shedding to empty.
    const std::vector<model::ModelId> model_ids = modelIds(base);
    std::vector<hw::ServerType> fleet;
    std::vector<int> slots;
    for (const scenario::FleetEntry& e : base.fleet) {
        fleet.push_back(e.type);
        slots.push_back(e.shard_slots);
    }
    cluster::ProvisionProblem problem =
        cluster::ProvisionProblem::fromTable(table, fleet, model_ids, slots);
    cluster::HerculesProvisioner capref;
    double peak_power = 0.0;
    double cheapest_at_peak = std::numeric_limits<double>::infinity();
    for (double t = 0.0; t < base.serve.horizon_hours;
         t += base.serve.interval_hours) {
        std::vector<double> loads_t;
        for (const scenario::ServiceScenario& s : base.services)
            loads_t.push_back(workload::DiurnalLoad(s.spec.load).forecastAt(t));
        cluster::Allocation alloc = capref.provision(problem, loads_t, r);
        const double p = alloc.provisionedPowerW(problem);
        if (p <= peak_power)
            continue;
        peak_power = p;
        cheapest_at_peak = std::numeric_limits<double>::infinity();
        for (int h = 0; h < problem.numServers(); ++h)
            for (int m = 0; m < problem.numModels(); ++m)
                if (alloc.n[static_cast<size_t>(h)][static_cast<size_t>(m)] > 0)
                    cheapest_at_peak = std::min(cheapest_at_peak,
                                                problem.perf(h, m).power_w);
    }
    const double cap_w = peak_power - 0.5 * cheapest_at_peak;
    for (scenario::ScenarioSpec* spec : {&base, &qos_spec, &fb_spec}) {
        spec->serve.overprovision_rate = r;
        spec->serve.power_cap_w = cap_w;
    }

    const workload::DiurnalConfig& surge = base.services[0].spec.load;
    std::printf("horizon %.0fh, surge %.1fx in [%.1fh, %.1fh), power cap "
                "%.3f kW, R %.1f%%\n\n",
                base.serve.horizon_hours, surge.surge_factor,
                surge.surge_hour, surge.surge_hour + surge.surge_hours,
                cap_w / 1e3, r * 100.0);

    const std::vector<Arm> arms = {runArm(paper, "baseline", base),
                                   runArm(paper, "qos", qos_spec),
                                   runArm(paper, "qos_feedback", fb_spec)};
    reportArms(paper, arms, model_ids, [&](util::JsonWriter& w) {
        w.key("overprovision_rate").fixed(r, 4);
        w.key("power_cap_w").fixed(cap_w, 2);
    });

    const sim::ClusterSimResult& b = arms[0].serve.sim;
    const sim::ClusterSimResult& q = arms[1].serve.sim;
    const double hi_b = b.services[0].sla_violation_rate;
    const double hi_q = q.services[0].sla_violation_rate;
    paper.claim("high-priority service: QoS < baseline in "
                "violations, <= power",
                "beyond the paper",
                joined({fmtPercent(hi_q, 3) + " vs " + fmtPercent(hi_b, 3),
                        fmtDouble(q.avg_provisioned_power_w / 1e3, 3) +
                            " vs " +
                            fmtDouble(b.avg_provisioned_power_w / 1e3, 3) +
                            " kW"}),
                hi_q < hi_b &&
                    q.avg_provisioned_power_w <=
                        b.avg_provisioned_power_w + 1e-6);
}

/** Intervals the self-healing loop gets to win back the SLA. */
constexpr int kRecoveryIntervals = 4;
/** Violation-rate slack over the healthy arm that counts as healed. */
constexpr double kRecoveryTol = 0.02;
/** Extra over-provision rate the static arm burns at all times. */
constexpr double kStaticExtraR = 0.5;

/**
 * Intervals (from the crash interval on) until the arm's service is
 * back at the healthy arm's per-interval violation rate + tolerance.
 * @return -1 when it never recovers inside the horizon.
 */
int
recoveryIntervals(const sim::ClusterSimResult& arm,
                  const sim::ClusterSimResult& healthy, size_t svc,
                  size_t crash_iv)
{
    for (size_t i = crash_iv; i < arm.intervals.size(); ++i) {
        double ref = healthy.intervals[i].services[svc].sla_violation_rate;
        if (arm.intervals[i].services[svc].sla_violation_rate <=
            ref + kRecoveryTol)
            return static_cast<int>(i - crash_iv);
    }
    return -1;
}

/**
 * Fault recovery — scenarios/shard_crash_recovery.scn (both T3s and the
 * T7 crash mid-interval at the high-priority service's peak, killing
 * their in-flight queries; staggered repairs follow), three arms on one
 * merged trace:
 *  - healthy: the spec with its faults stripped, the reference;
 *  - selfheal: the shipped spec, whose serving loop provisions only
 *    surviving capacity and activates replacements under the budget;
 *  - static: the same faults under a static tuple-weighted router and
 *    50 extra points of R at all times.
 * Killed queries count as violations in every arm. Fast mode: 12h
 * horizon. Claim: selfheal's high-priority service is back at the
 * healthy arm's violation rate within 4 intervals of the crash, at no
 * more average power than static.
 */
void
faults(Paper& paper)
{
    bench::banner("Fault recovery",
                  "Shard crashes vs the self-healing serving loop vs "
                  "static over-provisioning");

    scenario::ScenarioSpec selfheal_spec =
        bench::loadScenario("shard_crash_recovery.scn");
    if (bench::fastMode()) {
        selfheal_spec.serve.horizon_hours = 12.0;
        selfheal_spec.serve.trace.time_compression = 960.0;
    }
    scenario::resolvePeaks(selfheal_spec, paper.table());
    const double r = headroomR(selfheal_spec);
    selfheal_spec.serve.overprovision_rate = r;
    scenario::ScenarioSpec healthy_spec = selfheal_spec;
    healthy_spec.serve.faults = fault::FaultSpec{};
    scenario::ScenarioSpec static_spec = selfheal_spec;
    static_spec.serve.router = sim::RouterPolicy::HerculesWeighted;
    static_spec.serve.overprovision_rate = r + kStaticExtraR;

    // The earliest crash starts the recovery clock.
    double crash_hour = std::numeric_limits<double>::infinity();
    for (const fault::FaultEvent& e : selfheal_spec.serve.faults.events)
        if (e.state == fault::HealthState::Failed)
            crash_hour = std::min(crash_hour, e.t_hours);
    const double iv_h = selfheal_spec.serve.interval_hours;
    const size_t crash_iv = static_cast<size_t>(crash_hour / iv_h);
    std::printf("horizon %.0fh, crash at %.2fh, R %.1f%% (static arm "
                "%.1f%%), recovery budget %d intervals\n\n",
                selfheal_spec.serve.horizon_hours, crash_hour, r * 100.0,
                (r + kStaticExtraR) * 100.0, kRecoveryIntervals);

    const std::vector<Arm> arms = {
        runArm(paper, "healthy", healthy_spec),
        runArm(paper, "selfheal", selfheal_spec),
        runArm(paper, "static", static_spec)};
    const sim::ClusterSimResult& healthy = arms[0].serve.sim;
    const sim::ClusterSimResult& selfheal = arms[1].serve.sim;
    const sim::ClusterSimResult& static_op = arms[2].serve.sim;

    // The high-priority service's trajectory through the outage.
    TablePrinter t({"Hour", "Healthy viol", "Selfheal viol", "Static viol",
                    "Selfheal kW", "Static kW"});
    const size_t hi = std::min(selfheal.intervals.size(),
                               crash_iv + 2 * kRecoveryIntervals + 2);
    for (size_t i = crash_iv >= 2 ? crash_iv - 2 : 0; i < hi; ++i) {
        auto viol = [&](const sim::ClusterSimResult& a) {
            return fmtPercent(a.intervals[i].services[0].sla_violation_rate,
                              1);
        };
        t.addRow({fmtDouble(static_cast<double>(i) * iv_h, 1),
                  viol(healthy), viol(selfheal), viol(static_op),
                  fmtDouble(selfheal.intervals[i].provisioned_power_w / 1e3,
                            3),
                  fmtDouble(static_op.intervals[i].provisioned_power_w / 1e3,
                            3)});
    }
    t.print();
    std::printf("\n");

    const int rec_selfheal = recoveryIntervals(selfheal, healthy, 0, crash_iv);
    const int rec_static = recoveryIntervals(static_op, healthy, 0, crash_iv);
    reportArms(paper, arms, modelIds(selfheal_spec),
               [&](util::JsonWriter& w) {
                   w.key("overprovision_rate").fixed(r, 4);
                   w.key("static_overprovision_rate")
                       .fixed(r + kStaticExtraR, 4);
                   w.key("crash_hour").fixed(crash_hour, 2);
                   w.key("recovery_intervals_selfheal").integer(rec_selfheal);
                   w.key("recovery_intervals_static").integer(rec_static);
               });
    paper.claim("selfheal recovers in <= 4 intervals at <= static power",
                "beyond the paper",
                joined({std::to_string(rec_selfheal) + " intervals (static " +
                            std::to_string(rec_static) + ")",
                        fmtDouble(selfheal.avg_provisioned_power_w / 1e3, 3) +
                            " vs " +
                            fmtDouble(static_op.avg_provisioned_power_w / 1e3,
                                      3) +
                            " kW"}),
                rec_selfheal >= 0 && rec_selfheal <= kRecoveryIntervals &&
                    selfheal.avg_provisioned_power_w <=
                        static_op.avg_provisioned_power_w + 1e-6);
}

/** Trace arm's serve wall budget, as a multiple of the off arm's. */
constexpr double kMaxTraceOverhead = 1.15;

/** The whole of the file at `path`; empty when it cannot be read. */
std::string
slurp(const std::string& path)
{
    std::ifstream in(path);
    return {std::istreambuf_iterator<char>(in), {}};
}

/** Newline-terminated records in the file at `path`; 0 when absent. */
std::ptrdiff_t
countLines(const std::string& path)
{
    std::ifstream in(path);
    return std::count(std::istreambuf_iterator<char>(in), {}, '\n');
}

/**
 * Telemetry overhead — scenarios/three_service_phase_shift.scn replayed
 * three times on the driver's table:
 *  - off: no telemetry;
 *  - metrics: the metrics export alone;
 *  - trace: the metrics export and every query traced.
 * The telemetry files go to a scratch directory, removed after the run.
 * Fast mode: 6h horizon. Claims: telemetry only observes, so the arms
 * are equal in every simulated value of their run summaries (all but
 * the wall-derived event rate); and the trace arm's serve wall stays
 * within 1.15x the off arm's, a known miss.
 */
void
obs(Paper& paper)
{
    bench::banner("Telemetry overhead",
                  "three_service_phase_shift replayed off / metrics-only / "
                  "full tracing on one table");

    scenario::ScenarioSpec off =
        bench::loadScenario("three_service_phase_shift.scn");
    if (bench::fastMode())
        off.serve.horizon_hours = 6.0;
    std::string dir =
        (std::filesystem::temp_directory_path() / "hercules_obs_XXXXXX")
            .string();
    if (mkdtemp(dir.data()) == nullptr)
        fatal("bench_paper obs: cannot create %s", dir.c_str());
    scenario::ScenarioSpec metrics = off;
    metrics.observability.metrics_file = dir + "/metrics.csv";
    scenario::ScenarioSpec trace = metrics;
    trace.observability.trace_file = dir + "/trace.jsonl";
    trace.observability.sample_rate = 1.0;

    const std::vector<Arm> arms = {runArm(paper, "off", off),
                                   runArm(paper, "metrics", metrics),
                                   runArm(paper, "trace", trace)};
    const std::ptrdiff_t trace_records =
        countLines(trace.observability.trace_file);
    const std::vector<model::ModelId> models = modelIds(off);
    std::vector<std::string> summaries;
    for (const Arm& a : arms) {
        sim::ClusterSimResult r = a.serve.sim;
        r.des.events_per_sec = 0.0;
        const std::string path = dir + "/" + a.name + ".json";
        util::JsonWriter w(path);
        w.beginObject();
        w.key("queries").integer(a.serve.trace_queries);
        w.key("reprovisions").integer(a.serve.reprovisions);
        bench::writeArmSummary(w, r, models);
        w.endObject();
        summaries.push_back(w.close() ? slurp(path) : "");
    }
    std::filesystem::remove_all(dir);

    const double ratio = arms[2].wall_ms / arms[0].wall_ms;
    std::printf("%td trace records\n\n", trace_records);
    reportArms(paper, arms, models, [&](util::JsonWriter& w) {
        w.key("trace_records").integer(trace_records);
        w.key("trace_overhead_ratio").fixed(ratio, 3);
    });
    auto vs_off = [&](size_t i) {
        return arms[i].name + (summaries[i] == summaries[0] ? " = " : " != ") +
               "off";
    };
    paper.claim("telemetry arms equal in every simulated value",
                "observe-only telemetry", joined({vs_off(1), vs_off(2)}),
                !summaries[0].empty() && summaries[0] == summaries[1] &&
                    summaries[0] == summaries[2]);
    paper.claim("trace wall <= 1.15x off", "beyond the paper",
                fmtDouble(ratio, 2) + "x (" + fmtDouble(arms[2].wall_ms, 1) +
                    " vs " + fmtDouble(arms[0].wall_ms, 1) + " ms)",
                ratio <= kMaxTraceOverhead, true);
}

struct Figure
{
    const char* name;
    void (*run)(Paper&);
};

/** Every figure and table in paper order, then the serving experiments. */
const Figure kFigures[] = {
    {"table1", table1},
    {"table2", table2},
    {"fig01", fig01},
    {"fig02", fig02},
    {"fig04", fig04},
    {"fig05", fig05},
    {"fig06", fig06},
    {"fig07", fig07},
    {"fig08", fig08},
    {"fig11", fig11},
    {"fig12", fig12},
    {"fig13", fig13},
    {"fig14", fig14},
    {"fig15", fig15},
    {"fig16", fig16},
    {"fig17", fig17},
    {"ablation", ablation},
    {"serving", serving},
    {"multiservice", multiservice},
    {"qos", qos},
    {"faults", faults},
    {"obs", obs},
};

/** Print the claims, add them to BENCH_paper.json; 1 if a gating one fails. */
int
reportClaims(Paper& paper)
{
    std::printf("\n");
    bench::banner("Claims", "Directional checks of the paper's findings");
    TablePrinter t({"Figure", "Claim", "Paper", "Measured", "Result"});
    int failed = 0, misses = 0;
    for (const Claim& c : paper.claims) {
        failed += !c.holds && !c.known_miss;
        misses += !c.holds && c.known_miss;
        t.addRow({c.figure, c.what, c.paper, c.measured,
                  c.known_miss ? (c.holds ? "known miss, holds" : "known miss")
                               : (c.holds ? "holds" : "FAILS")});
    }
    t.print();
    std::printf("\n%zu claims: %d failing, %d known misses\n",
                paper.claims.size(), failed, misses);

    util::JsonWriter& w = paper.json;
    w.key("claims").beginArray();
    for (const Claim& c : paper.claims) {
        w.beginObject(util::JsonWriter::Inline);
        w.key("figure").str(c.figure).key("what").str(c.what);
        w.key("paper").str(c.paper).key("measured").str(c.measured);
        w.key("holds").boolean(c.holds);
        w.key("known_miss").boolean(c.known_miss).endObject();
    }
    w.endArray();
    w.endObject();
    bench::closeJson(w, "BENCH_paper.json");
    return failed > 0 ? 1 : 0;
}

}  // namespace

int
main(int argc, char** argv)
{
    std::vector<bool> chosen(std::size(kFigures), false);
    bool bad = argc < 2;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        bool known = false;
        for (size_t f = 0; f < chosen.size(); ++f) {
            if (arg == "all" || arg == kFigures[f].name) {
                chosen[f] = true;
                known = true;
            }
        }
        if (!known) {
            std::fprintf(stderr, "bench_paper: unknown figure '%s'\n",
                         arg.c_str());
            bad = true;
        }
    }
    if (bad) {
        std::fprintf(stderr, "usage: bench_paper NAME... | all\nnames:");
        for (const Figure& f : kFigures)
            std::fprintf(stderr, " %s", f.name);
        std::fprintf(stderr, "\n");
        return 2;
    }

    Paper paper;
    paper.json.beginObject();
    paper.json.key("git_sha").str(bench::gitSha());
    paper.json.key("fast").boolean(bench::fastMode());
    for (size_t f = 0; f < chosen.size(); ++f) {
        if (chosen[f]) {
            paper.figure = kFigures[f].name;
            kFigures[f].run(paper);
        }
    }
    return reportClaims(paper);
}
