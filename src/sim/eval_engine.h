/**
 * @file
 * The evaluation engine: the single gateway between every measurement
 * consumer (task-scheduling search, baselines, offline profiler,
 * cluster provisioning, benches) and the latency-bounded throughput
 * measurement of sim/measure.h.
 *
 * The engine adds two things on top of a raw measureLatencyBoundedQps
 * call:
 *
 *  1. **Memoization** — results are cached under a canonical key of
 *     (server spec, model, scheduling config, SLA, measure options), so
 *     configurations revisited across gradient arms, partition
 *     strategies, baselines and efficiency-table cells cost nothing.
 *  2. **Parallel fan-out** — independent candidates are evaluated on a
 *     work-sharing thread pool (util/thread_pool.h). Each simulation
 *     owns its seeded RNG stream and results are reduced in request
 *     order, so a 1-thread engine and an N-thread engine produce
 *     bit-identical outcomes.
 *
 * Thread-safety: evaluate()/evaluateMany() may be called concurrently;
 * a configuration requested by several threads at once is simulated
 * exactly once and the losers wait on the winner's cell.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/measure.h"
#include "sim/prepared.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace hercules::sim {

/** Engine tuning knobs. */
struct EvalOptions
{
    /** Pool width including the caller; <= 0 uses all hardware threads. */
    int threads = 0;
};

/** One evaluation request: a fully-specified measurement. */
struct EvalRequest
{
    const hw::ServerSpec* server = nullptr;
    const model::Model* model = nullptr;
    SchedulingConfig cfg;
    double sla_ms = 0.0;
    MeasureOptions measure{};
    /**
     * The calling search's timing store (borrowed; may be null). A
     * computed evaluation warms its workload's memos from it before
     * measuring and merges the new timings back after. Entries are
     * pure functions of their keys, so the store changes no result and
     * cacheKey() leaves it out.
     */
    TimingStore* timings = nullptr;
};

/** Outcome of one evaluation. */
struct EvalResult
{
    /** false: the configuration failed validateConfig (never simulated). */
    bool valid = false;
    /** Operating point; nullopt when valid but SLA/power-infeasible. */
    std::optional<OperatingPoint> point;
    /** true when served from the memo (no new simulations ran). */
    bool cache_hit = false;
};

class EvalEngine
{
  public:
    explicit EvalEngine(const EvalOptions& opt = EvalOptions{});

    /** The shared pool (searches fan their own task sets onto it). */
    util::ThreadPool& pool() { return pool_; }

    /**
     * @return true when searches should evaluate speculative candidates
     * (e.g. all op-parallelism arms at once): the pool has more than one
     * thread. Speculation never changes results — discarded candidates
     * are excluded from every reduction — it only trades extra
     * simulations for wall-clock time on idle cores.
     */
    bool speculative() const { return pool_.threads() > 1; }

    /** Evaluate one request (memoized). */
    EvalResult evaluate(const EvalRequest& r) EXCLUDES(mu_);

    /**
     * Evaluate a batch of independent requests on the pool. Results are
     * returned in request order regardless of completion order.
     */
    std::vector<EvalResult> evaluateMany(
        const std::vector<EvalRequest>& rs);

    /** Cumulative counters (monotone; approximate under concurrency). */
    struct Stats
    {
        uint64_t hits = 0;        ///< requests served from the memo
        uint64_t misses = 0;      ///< requests that ran the measurement
        uint64_t invalid = 0;     ///< requests rejected by validateConfig
        uint64_t simulations = 0; ///< discrete-event simulator runs
        /** Wall time spent inside measurements, summed over all pool
         *  threads (self-profiling only — never fed back into results). */
        double measure_wall_ms = 0.0;
    };
    Stats stats() const;

    /**
     * Spill the memo to disk: every *computed* entry (in-flight cells
     * are skipped) is written as one line of a text file whose header
     * carries the format version and `fingerprint` (the caller's build
     * fingerprint), keyed by the canonical cache key. The file is
     * written beside `path` and renamed over it, so a reader never
     * sees a torn file. Repeated runs load it to warm-start instead of
     * re-simulating.
     * @return entries written; 0 when the file cannot be written.
     */
    size_t saveCache(const std::string& path,
                     const std::string& fingerprint) const EXCLUDES(mu_);

    /**
     * Merge a saveCache() file into the memo. Entries whose key is
     * already cached are skipped (the in-memory result wins); a file
     * of another format version or saved under another `fingerprint`
     * loads nothing and says why on stderr; malformed lines are
     * skipped. Results served from loaded entries report cache_hit
     * like any memo hit.
     * @return entries inserted.
     */
    size_t loadCache(const std::string& path,
                     const std::string& fingerprint) EXCLUDES(mu_);

    /**
     * The canonical cache key: every result-affecting input — server
     * signature, model signature, full scheduling config, SLA, and the
     * measurement options (seed, query counts and distributions,
     * bisection steps, power budget). The timing store is left out: it
     * changes no result. A memo entry is therefore a pure function of
     * its key.
     */
    static std::string cacheKey(const EvalRequest& r);

  private:
    struct Cell;

    EvalResult compute(const EvalRequest& r);

    util::ThreadPool pool_;

    /** Guards the memo map only; each Cell carries its own lock. */
    mutable util::Mutex mu_;
    std::unordered_map<std::string, std::shared_ptr<Cell>> cache_
        GUARDED_BY(mu_);

    // Counters are deliberately lock-free: they are monotone
    // self-profiling aggregates, never part of a result.
    std::atomic<uint64_t> hits_{0};
    std::atomic<uint64_t> misses_{0};
    std::atomic<uint64_t> invalid_{0};
    std::atomic<uint64_t> simulations_{0};
    /** Microseconds, so the accumulator stays a lock-free integer. */
    std::atomic<uint64_t> measure_wall_us_{0};
};

}  // namespace hercules::sim
