/**
 * @file
 * Shared setup for the paper-reproduction bench harnesses: search and
 * measurement options sized so the full suite finishes in minutes, and
 * a fast mode for smoke runs (HERCULES_BENCH_FAST=1).
 */
#pragma once

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

#include "core/efficiency_table.h"
#include "core/profiler.h"
#include "scenario/scenario.h"
#include "scenario/spec_io.h"
#include "sched/gradient_search.h"
#include "sim/eval_engine.h"
#include "util/json.h"
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

/** Print the standard bench banner. */
inline void
banner(const char* experiment, const char* what)
{
    std::printf("==============================================================\n");
    std::printf("Hercules reproduction — %s\n", experiment);
    std::printf("%s\n", what);
    std::printf("==============================================================\n\n");
}

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
 * the serving experiments start from these specs and apply their
 * deltas.
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
 * Write one serving arm's run summary (scenario::writeRunSummary) into
 * the object open in `w`, each "per_service" entry led by its model.
 */
inline void
writeArmSummary(util::JsonWriter& w, const sim::ClusterSimResult& r,
                const std::vector<model::ModelId>& models)
{
    scenario::writeRunSummary(w, r, "per_service", [&](size_t s) {
        w.key("model").str(model::modelName(models[s]));
    });
}

/**
 * Close a bench's JSON artifact: "wrote PATH" on stdout, or a warning
 * on stderr when it could not be opened, written or closed.
 */
inline void
closeJson(util::JsonWriter& w, const char* path)
{
    if (w.close())
        std::printf("\nwrote %s\n", path);
    else
        std::fprintf(stderr, "bench: cannot write %s\n", path);
}

}  // namespace hercules::bench
