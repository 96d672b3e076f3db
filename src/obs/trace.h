/**
 * @file
 * Per-query trace records: one span per sampled query covering arrival,
 * admission verdict, route target (including retry hops), queue wait,
 * service start, and the terminal outcome (completion / drop / reject /
 * crash-kill), exported as JSONL.
 *
 * Sampling is a deterministic hash of the query's cluster-wide arrival
 * sequence number — no RNG state is consumed, so tracing can never
 * perturb a simulation, and the same queries are sampled on every run.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "util/json.h"

namespace hercules::obs {

enum class TraceOutcome {
    InFlight,   ///< never closed (should not appear in a finished run)
    Completed,  ///< served to completion
    Dropped,    ///< shed at routing time (capacity / power)
    Rejected,   ///< refused by admission control
    Killed,     ///< in flight on a shard when it crashed
};

/** @return "in_flight" / "completed" / "dropped" / "rejected" / "killed". */
const char* traceOutcomeName(TraceOutcome outcome);

/** One sampled query's span through the serving stack. */
struct TraceRecord
{
    uint64_t id = 0;      ///< cluster-wide arrival sequence number
    int service = 0;      ///< service class index
    int shard = -1;       ///< shard served on; -1 = never admitted
    int retry_hops = 0;   ///< cross-shard admission retries before landing
    double arrival_s = 0.0;
    /** Queue wait (arrival -> service start); < 0 = never started. */
    double queue_wait_ms = -1.0;
    /** Absolute service start time; < 0 = never started. */
    double service_start_s = -1.0;
    /** Completion / drop / reject / kill time; < 0 = still open. */
    double finish_s = -1.0;
    TraceOutcome outcome = TraceOutcome::InFlight;

    /** End-to-end latency (finish - arrival) in ms; 0 when still open. */
    double latencyMs() const
    {
        return finish_s < 0.0 ? 0.0 : (finish_s - arrival_s) * 1e3;
    }
};

/**
 * One retired query of a simulated server's completion log (see
 * sim::ServerInstance::completions()). The simulator records it; the
 * cluster harvest and the telemetry drain read it. `shard` and
 * `service` are the tags of sim::ServerInstance::setIdentity.
 */
struct Completion
{
    int query = -1;        ///< injection index
    int shard = -1;        ///< owning shard id
    int service = 0;       ///< owning service class
    double arrival_s = 0.0;
    double finish_s = 0.0;
    /** Dispatcher/fusion queue wait before first service start. */
    double queue_wait_s = 0.0;

    /** @return end-to-end latency in milliseconds. */
    double latencyMs() const { return (finish_s - arrival_s) * 1e3; }

    /** @return latency minus queue wait, in milliseconds. */
    double serviceMs() const { return latencyMs() - queue_wait_s * 1e3; }
};

/**
 * Deterministic sampling verdict for arrival-sequence `id` at
 * `sample_rate` in [0, 1]: a SplitMix64 finalizer hash of the id
 * against the rate. Rate 1 samples everything, 0 nothing.
 */
bool traceSampled(uint64_t id, double sample_rate);

/**
 * Write records as JSONL, one object per line, fixed key order
 * (null for fields a query never reached). Parse with one
 * json.loads() per line.
 */
void writeTraceJsonl(util::JsonWriter& w,
                     const std::vector<TraceRecord>& records);

}  // namespace hercules::obs
