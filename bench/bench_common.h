/**
 * @file
 * Shared setup for the paper-reproduction bench harnesses: search and
 * measurement options sized so the full suite finishes in minutes, a
 * fast mode for smoke runs (HERCULES_BENCH_FAST=1), and the cached
 * efficiency-table path that lets the cluster benches reuse the Fig 15
 * profiling results.
 */
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/eval_engine.h"
#include "sched/gradient_search.h"
#include "util/logging.h"

namespace hercules::bench {

/**
 * @return the git SHA the benches were configured from (stamped by
 * CMake at configure time; "unknown" outside a git checkout).
 */
inline const char*
gitSha()
{
#ifdef HERCULES_GIT_SHA
    return HERCULES_GIT_SHA;
#else
    return "unknown";
#endif
}

/**
 * Write the provenance preamble every emitted BENCH_*.json starts
 * with, so the perf trajectory stays attributable across PRs. Call
 * right after the opening '{'.
 */
inline void
writeJsonProvenance(FILE* f)
{
    std::fprintf(f, "  \"git_sha\": \"%s\",\n", gitSha());
    std::fprintf(f, "  \"generated_at\": \"%s\",\n",
                 isoUtcTimestamp().c_str());
}

/** @return true when HERCULES_BENCH_FAST=1 (reduced sweep sizes). */
inline bool
fastMode()
{
    const char* env = std::getenv("HERCULES_BENCH_FAST");
    return env != nullptr && env[0] == '1';
}

/** Search/measure options used by all benches. */
inline sched::SearchOptions
benchSearchOptions()
{
    sched::SearchOptions opt;
    opt.measure.sim.num_queries = fastMode() ? 250 : 400;
    opt.measure.sim.warmup_queries = fastMode() ? 50 : 80;
    opt.measure.bisect_iters = fastMode() ? 4 : 5;
    opt.measure.sim.seed = 42;
    return opt;
}

/** Path of the efficiency-table cache written by bench_fig15. */
inline std::string
efficiencyCachePath()
{
    return "hercules_efficiency_prod.csv";
}

/**
 * Build one evaluation-engine request with the bench's measurement
 * options. Grid benches collect these and fan them out with
 * EvalEngine::evaluateMany instead of measuring serially.
 */
inline core::EvalRequest
evalRequest(const hw::ServerSpec& server, const model::Model& m,
            const sched::SchedulingConfig& cfg, double sla_ms,
            const sim::MeasureOptions& mo)
{
    core::EvalRequest r;
    r.server = &server;
    r.model = &m;
    r.cfg = cfg;
    r.sla_ms = sla_ms;
    r.measure = mo;
    return r;
}

/** Print the standard bench banner. */
inline void
banner(const char* experiment, const char* what)
{
    std::printf("==============================================================\n");
    std::printf("Hercules reproduction — %s\n", experiment);
    std::printf("%s\n", what);
    std::printf("==============================================================\n\n");
}

}  // namespace hercules::bench

#include <filesystem>
#include <optional>

#include "cluster/evolution.h"
#include "core/efficiency_table.h"
#include "core/profiler.h"
#include "scenario/spec_io.h"
#include "sim/cluster_sim.h"

namespace hercules::bench {

/** The shipped scenario library (stamped by CMake). */
inline std::string
scenarioDir()
{
#ifdef HERCULES_SCENARIO_DIR
    return HERCULES_SCENARIO_DIR;
#else
    return "../scenarios";
#endif
}

/**
 * Load one shipped scenario file by name ("flash_crowd_surge.scn") —
 * the serving benches start from these specs and apply their deltas.
 * Parse failures are fatal: a bench must not silently diverge from
 * the spec it claims to run.
 */
inline scenario::ScenarioSpec
loadScenario(const std::string& file)
{
    std::string path = scenarioDir() + "/" + file;
    std::string err;
    auto spec = scenario::loadSpecFile(path, &err);
    if (!spec.has_value()) {
        std::fprintf(stderr, "bench: %s\n", err.c_str());
        std::exit(1);
    }
    return *spec;
}

/**
 * Emit the per-interval trajectory arrays every serving bench's JSON
 * carries, comma-terminated except the last — the shared
 * sim::writeIntervalArraysJson emitter at the benches' indent depth.
 */
inline void
writeIntervalArrays(FILE* f, const std::vector<sim::IntervalStats>& ivs)
{
    sim::writeIntervalArraysJson(f, ivs, "      ");
}

/**
 * Load a cached efficiency table if the file exists and parses
 * (announcing reuse); a stale cache from an older build is announced
 * and ignored so the caller falls back to re-profiling.
 */
inline std::optional<core::EfficiencyTable>
tryLoadCachedTable(const std::string& path)
{
    if (!std::filesystem::exists(path))
        return std::nullopt;
    auto cached = core::EfficiencyTable::tryReadCsv(path);
    if (cached.has_value())
        std::printf("(reusing efficiency table from %s)\n\n",
                    path.c_str());
    else
        std::printf("(cache %s is stale: re-profiling)\n\n",
                    path.c_str());
    return cached;
}

/**
 * The full-catalog efficiency table the cluster-scheduling benches
 * (Fig 16, Fig 17) share: bench_fig15's cache when present, else
 * profiled here with the bench options and written back.
 */
inline core::EfficiencyTable
loadOrProfile()
{
    if (auto cached = tryLoadCachedTable(efficiencyCachePath()))
        return *cached;
    std::printf("(profiling the full catalog — run "
                "bench_fig15_server_arch first to avoid this)\n\n");
    core::ProfilerOptions popt;
    popt.search = benchSearchOptions();
    core::EfficiencyTable t = core::offlineProfile(popt);
    t.writeCsv(efficiencyCachePath());
    return t;
}

/**
 * Scale each evolution service's peak load to a fraction of the
 * CPU-only (T1+T2) fleet capacity for its legacy model. The paper's
 * absolute 50K-QPS peaks are calibrated to its measured tuples; against
 * our simulated tuples the same fractions-of-fleet reproduce the
 * Fig 16 capacity-growth story without saturating the cluster on day
 * one. The default gives the three services together ~36% of the fleet
 * at the Day-D1 peak, leaving the headroom the paper's Day-D2 snapshot
 * consumes.
 */
inline void
scaleEvolutionServices(std::vector<cluster::EvolutionService>& services,
                       const core::EfficiencyTable& table,
                       double fleet_fraction = 0.12)
{
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
}

}  // namespace hercules::bench
