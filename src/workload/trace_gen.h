/**
 * @file
 * Timestamped arrival traces driven by a diurnal load curve: a
 * non-homogeneous Poisson process whose instantaneous rate follows
 * DiurnalLoad::loadAt, realized as piecewise-constant buckets (the
 * Poisson process is memoryless, so re-drawing the rate at bucket
 * boundaries is exact for a piecewise-constant intensity).
 *
 * Because a full day at production rates is billions of queries, the
 * generator supports *time compression*: with compression factor c,
 * one simulated second stands for c wall-clock seconds of the diurnal
 * cycle. Instantaneous QPS — and therefore all queueing/latency
 * dynamics — is unchanged; only the span of simulated time (and the
 * query count) shrinks by c. Downstream interval lengths must be
 * divided by the same factor (cluster::serveTraces does this
 * internally).
 */
#pragma once

#include <cstdint>
#include <vector>

#include "workload/diurnal.h"
#include "workload/query.h"
#include "workload/querygen.h"

namespace hercules::workload {

/** Options of one trace generation. */
struct TraceOptions
{
    double horizon_hours = 24.0;   ///< wall-clock span of the trace
    /** Rate-update granularity in wall-clock seconds. */
    double bucket_seconds = 60.0;
    /** Wall-clock seconds represented by one simulated second (>= 1). */
    double time_compression = 1.0;
    uint64_t seed = 42;            ///< equal seeds give identical traces
    QuerySizeDist sizes{};
    PoolingDist pooling{};
};

/**
 * Generates one reproducible arrival trace over the configured horizon.
 *
 * Arrival timestamps are in *simulated* seconds: wall-clock time t maps
 * to t / time_compression. Query sizes and pooling multipliers follow
 * the same distributions as QueryGenerator.
 */
class TraceGenerator
{
  public:
    /**
     * @param load the diurnal curve to follow (copied; the argument
     *             need not outlive the generator).
     * @param opt  trace options.
     */
    TraceGenerator(const DiurnalLoad& load, TraceOptions opt);

    /** @return the full trace, sorted by arrival time. */
    std::vector<Query> generate();

    /** @return simulated span of the trace in seconds. */
    double simSeconds() const;

    /** @return the options. */
    const TraceOptions& options() const { return opt_; }

  private:
    DiurnalLoad load_;
    TraceOptions opt_;
};

// ---- multi-service mode --------------------------------------------------

/**
 * One co-served service's arrival stream in a merged trace: its own
 * diurnal curve (typically phase-shifted against the other services)
 * and its own query-size / pooling distributions.
 */
struct ServiceTraceSpec
{
    DiurnalConfig load{};
    QuerySizeDist sizes{};
    PoolingDist pooling{};
};

/**
 * The seed service `service`'s sub-stream is drawn with in a merged
 * trace. Service 0 uses `base_seed` unchanged, so a one-service merged
 * trace is arrival-for-arrival identical to the single-service
 * TraceGenerator with the same options; later services get
 * deterministic, well-separated derived seeds.
 */
uint64_t serviceTraceSeed(uint64_t base_seed, size_t service);

/**
 * Generate one merged multi-service arrival trace: each service's
 * stream is an independent NHPP over its own diurnal curve (seeded
 * with serviceTraceSeed(opt.seed, s), sizes/pooling from its spec,
 * all other options — horizon, buckets, compression — shared), then
 * merged by mergeServiceStreams().
 *
 * Fixed options + specs give a bitwise-identical merged trace.
 */
std::vector<Query> generateMultiServiceTrace(
    const std::vector<ServiceTraceSpec>& services,
    const TraceOptions& opt);

/**
 * K-way merge of per-service arrival streams, each already sorted by
 * arrival_s (panics otherwise): stream s's queries are tagged
 * `service_id = s`, an exact timestamp tie goes to the lower service
 * index, and ids are renumbered 0..N-1 in merged order. The result is
 * exactly what a stable sort of the concatenated streams by arrival
 * time gives, in O(N * k) instead of O(N log N).
 */
std::vector<Query> mergeServiceStreams(
    const std::vector<std::vector<Query>>& streams);

}  // namespace hercules::workload
