/**
 * @file
 * DES self-profiling primitives: the one sanctioned wall-clock site in
 * the tree, plus the per-run profile the simulator fills in.
 *
 * Wall timings are *provenance*, never result-affecting: they describe
 * how fast the simulator ran, not what it computed. Every simulated
 * statistic must be bit-identical whether or not anyone reads a clock.
 * All wall-clock reads funnel through wallNowMs() so the determinism
 * lint has exactly one annotated site to audit.
 */
#pragma once

// determinism-lint: allow-file(wall-clock)

#include <chrono>
#include <cstddef>
#include <cstdint>

namespace hercules::obs {

/**
 * Monotonic wall time in milliseconds (arbitrary epoch). Provenance
 * only — never feed this back into simulated state.
 */
inline double
wallNowMs()
{
    using Clock = std::chrono::steady_clock;
    return std::chrono::duration<double, std::milli>(
               Clock::now().time_since_epoch())
        .count();
}

/** Scoped stopwatch accumulating into a caller-owned total. */
class WallTimer
{
  public:
    WallTimer() : start_ms_(wallNowMs()) {}

    /** Milliseconds since construction (or the last restart()). */
    double elapsedMs() const { return wallNowMs() - start_ms_; }

    /** Reset the reference point to now. */
    void restart() { start_ms_ = wallNowMs(); }

  private:
    double start_ms_;
};

/**
 * How hard the discrete-event core worked during one ClusterSim::run:
 * the baseline the parallel-DES roadmap item is gated on.
 *
 * events_executed, peak_event_queue_depth and peak_live_queries are
 * deterministic (functions of the simulated schedule); the *_wall_ms
 * fields and events_per_sec are wall-clock provenance and vary run to
 * run.
 */
struct DesProfile
{
    uint64_t events_executed = 0;       ///< events popped off EventQueues
    size_t peak_event_queue_depth = 0;  ///< max pending events, any shard
    /**
     * Live per-query records at the fullest interval end: both arrival
     * buffers (the interval's and the next one's, pulled ahead) +
     * every shard's query-state slots + every shard's retained
     * completion log. Bounded by the arrival rate x interval plus what
     * is in flight, not by the horizon.
     */
    size_t peak_live_queries = 0;
    /**
     * Time the replay waited on the arrival producer: the first
     * interval's pull, then whatever of each next interval's pull
     * (trace generation, overlapped with the replay) outlasted the
     * replay of the current one. Not part of run_wall_ms.
     */
    double arrival_wall_ms = 0.0;
    /**
     * Plans, health transitions and routing decisions (router,
     * admission, accounting). When the decision reads shard state
     * (jsq, p2c, any admission policy) each arrival is delivered as it
     * is decided, so this also holds the lazy advance of the shards to
     * each arrival and the injects.
     */
    double route_wall_ms = 0.0;
    /**
     * Delivery fan-out on the pool: replaying decided arrivals into the
     * shards, advancing them to each cut and the interval end, and the
     * final drain.
     */
    double advance_wall_ms = 0.0;
    double harvest_wall_ms = 0.0;  ///< completion harvest + stats
    double run_wall_ms = 0.0;  ///< whole run() call minus arrival_wall_ms
    double events_per_sec = 0.0;   ///< events_executed / run wall seconds
};

}  // namespace hercules::obs
