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
 *
 * Every generator here is a *stream*: an ArrivalStream yields one
 * arrival at a time, so a consumer (ClusterSim::run) holds one
 * interval's arrivals instead of the whole trace. The vector-returning
 * functions (TraceGenerator::generate, generateMultiServiceTrace,
 * mergeServiceStreams) drain the same streams into a vector, so the
 * streamed and the materialised trace are arrival-for-arrival equal.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "util/rng.h"
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
 * A time-ordered arrival stream, consumed front to back: peek() shows
 * the next arrival, pop() consumes it. The pointer peek() returns stays
 * valid until the next pop().
 */
class ArrivalStream
{
  public:
    virtual ~ArrivalStream() = default;

    /** @return the next arrival (not consumed), nullptr at the end. */
    virtual const Query* peek() = 0;

    /** Consume the next arrival (panics at the end of the stream). */
    virtual void pop() = 0;

  protected:
    ArrivalStream() = default;
    ArrivalStream(const ArrivalStream&) = default;
    ArrivalStream& operator=(const ArrivalStream&) = default;
    ArrivalStream(ArrivalStream&&) = default;
    ArrivalStream& operator=(ArrivalStream&&) = default;
};

/**
 * Drain `s` into a vector.
 * @param reserve_hint expected arrival count (capacity only).
 */
std::vector<Query> drain(ArrivalStream& s, size_t reserve_hint = 0);

/** A stream over a caller-owned, already-ordered vector. */
class VectorArrivals final : public ArrivalStream
{
  public:
    /** @param v must outlive the stream. */
    explicit VectorArrivals(const std::vector<Query>& v) : v_(v) {}

    const Query* peek() override
    { return next_ < v_.size() ? &v_[next_] : nullptr; }
    void pop() override;

  private:
    const std::vector<Query>& v_;
    size_t next_ = 0;
};

/**
 * Generates one reproducible arrival trace over the configured horizon,
 * lazily: a resumable cursor that draws one arrival at a time, so
 * pulling it to the end yields exactly generate()'s trace.
 *
 * Arrival timestamps are in *simulated* seconds: wall-clock time t maps
 * to t / time_compression. Query sizes and pooling multipliers follow
 * the same distributions as QueryGenerator. Ids count from 0.
 */
class TraceGenerator final : public ArrivalStream
{
  public:
    /**
     * @param load the diurnal curve to follow (copied; the argument
     *             need not outlive the generator).
     * @param opt  trace options.
     */
    TraceGenerator(const DiurnalLoad& load, TraceOptions opt);

    const Query* peek() override;
    void pop() override;

    /**
     * @return the full trace, sorted by arrival time, from its start
     * (a fresh cursor: the state of this one is not touched).
     */
    std::vector<Query> generate() const;

    /** @return simulated span of the trace in seconds. */
    double simSeconds() const;

    /** @return the expected arrival count, capped (a reserve hint). */
    size_t reserveHint() const;

    /** @return the options. */
    const TraceOptions& options() const { return opt_; }

  private:
    /** Draw the next arrival into next_; false at the horizon. */
    bool advance();
    /** Rate of the bucket starting at `bucket_start` (its midpoint). */
    double bucketRate(double bucket_start) const;

    DiurnalLoad load_;
    TraceOptions opt_;
    Rng rng_;
    double horizon_s_ = 0.0;  ///< simulated span
    double bucket_s_ = 0.0;   ///< simulated bucket length
    double mu_ = 0.0;         ///< log of the median query size
    double t_ = 0.0;          ///< simulated time of the last draw
    double bucket_end_ = 0.0;
    double rate_ = 0.0;       ///< QPS of the current bucket
    uint64_t id_ = 0;         ///< next query id
    Query next_{};
    bool has_next_ = false;   ///< next_ holds an unconsumed arrival
    bool done_ = false;       ///< the horizon was reached
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
 * Streaming k-way merge of per-service arrival streams, each sorted by
 * arrival_s (a stream found out of order panics when the merge reaches
 * it): stream s's queries are tagged `service_id = s`, an exact
 * timestamp tie goes to the lower service index, and ids are
 * renumbered 0, 1, ... in merged order. The merged order is exactly
 * what a stable sort of the concatenated streams by arrival time gives.
 * The merge holds one head per stream, nothing more.
 */
class MergedArrivals final : public ArrivalStream
{
  public:
    /**
     * @param streams      the per-service streams, index = service.
     * @param reserve_hint expected total arrivals (drain capacity only).
     */
    explicit MergedArrivals(
        std::vector<std::unique_ptr<ArrivalStream>> streams,
        size_t reserve_hint = 0);

    const Query* peek() override;
    void pop() override;

    /** @return arrivals consumed so far (the next id). */
    uint64_t emitted() const { return next_id_; }

    /** @return the constructor's reserve hint. */
    size_t reserveHint() const { return reserve_hint_; }

  private:
    std::vector<std::unique_ptr<ArrivalStream>> streams_;
    std::vector<const Query*> heads_;  ///< each stream's peek()
    std::vector<size_t> popped_;       ///< arrivals taken per stream
    Query head_{};        ///< the merged head, tagged and renumbered
    size_t head_src_ = 0;
    bool has_head_ = false;
    uint64_t next_id_ = 0;
    size_t reserve_hint_ = 0;
};

/**
 * The merged multi-service arrival stream: each service's stream is an
 * independent NHPP over its own diurnal curve (a TraceGenerator seeded
 * with serviceTraceSeed(opt.seed, s), sizes/pooling from its spec, all
 * other options — horizon, buckets, compression — shared), merged by
 * MergedArrivals. Fixed options + specs give a bitwise-identical
 * stream.
 */
MergedArrivals multiServiceArrivals(
    const std::vector<ServiceTraceSpec>& services,
    const TraceOptions& opt);

/** multiServiceArrivals() drained into a vector. */
std::vector<Query> generateMultiServiceTrace(
    const std::vector<ServiceTraceSpec>& services,
    const TraceOptions& opt);

/**
 * MergedArrivals over vectors, drained into a vector (same tagging,
 * tie rule, renumbering and unsorted-stream panic).
 */
std::vector<Query> mergeServiceStreams(
    const std::vector<std::vector<Query>>& streams);

}  // namespace hercules::workload
