/**
 * @file
 * Gradient-based task-scheduling search (paper Algorithm 1).
 *
 * For each op-parallelism choice, the search climbs the convex
 * Psp(M + D) surface from the minimal configuration (one thread,
 * smallest batch), each step evaluating the three neighbours — more
 * data-parallelism, more model-parallelism, or both — and moving to the
 * feasible neighbour with the highest latency-bounded throughput. The
 * outer op-parallelism loop stops when its per-o peak starts
 * decreasing; the overall exploration repeats per model-partition
 * strategy (model-based, S-D pipeline, hot-split).
 */
#pragma once

#include <optional>
#include <vector>

#include "sched/space.h"
#include "sim/eval_engine.h"
#include "sim/measure.h"

namespace hercules::sched {

/** One evaluated configuration in a search trace. */
struct SearchStep
{
    SchedulingConfig cfg;
    double qps = -1.0;  ///< latency-bounded QPS; -1 when infeasible
    double tail_ms = 0.0;
    double peak_power_w = 0.0;
    double qps_per_watt = 0.0;
    bool accepted = false;  ///< became the current search position
};

/** Outcome of a search. */
struct SearchResult
{
    std::optional<SchedulingConfig> best;  ///< empty: nothing feasible
    sim::OperatingPoint best_point{};
    double best_qps = 0.0;
    std::vector<SearchStep> trace;  ///< every recorded step, in order
    /**
     * Distinct simulator measurements this search paid for: evaluation-
     * engine cache misses. Configurations served from the engine memo
     * (revisited across arms, partition strategies, or earlier searches
     * sharing the engine) count in cache_hits instead, so
     * trace.size() == evals + cache_hits.
     */
    int evals = 0;
    int cache_hits = 0;  ///< steps served from the engine memo
};

/** Search tuning knobs. */
struct SearchOptions
{
    SpaceOptions space{};
    /**
     * Measurement options every evaluation of the search uses as given,
     * including the provisioned power budget (`power_budget_w`: set for
     * online serving, infinity offline).
     */
    sim::MeasureOptions measure{};
    /** Evaluation-engine knobs used when no shared engine is given. */
    sim::EvalOptions eval{};
    /**
     * Shared evaluation engine (borrowed). nullptr: the search builds a
     * private engine from `eval`. Sharing one engine across searches
     * reuses its memo and thread pool — the offline profiler shares one
     * engine across every (server, model) cell.
     */
    sim::EvalEngine* engine = nullptr;
};

/** Run Algorithm 1 for one model-partition strategy. */
SearchResult gradientSearchMapping(const hw::ServerSpec& server,
                                   const model::Model& m, Mapping mapping,
                                   double sla_ms,
                                   const SearchOptions& opt);

/**
 * The full Hercules task-scheduling exploration: Algorithm 1 across all
 * applicable partition strategies; returns the global best.
 */
SearchResult herculesTaskSearch(const hw::ServerSpec& server,
                                const model::Model& m, double sla_ms,
                                const SearchOptions& opt);

/**
 * Exhaustive oracle over one mapping's enumerated space. Exponentially
 * more measurements than the gradient search — used by tests (to check
 * gradient-search optimality) and space-characterization benches.
 */
SearchResult exhaustiveSearch(const hw::ServerSpec& server,
                              const model::Model& m, Mapping mapping,
                              double sla_ms, const SearchOptions& opt);

}  // namespace hercules::sched
