/**
 * @file
 * Telemetry facade: the single object the serving stack talks to. Owns
 * a MetricsRegistry and the per-query TraceRecord log, and exposes the
 * hooks ClusterSim calls at routing, harvest, and crash time.
 *
 * Contract: every hook only *observes*. No RNG draws, no event
 * scheduling, no mutation of simulated state — so a run with telemetry
 * attached produces bit-identical simulated statistics to one without.
 * ClusterSim guards each call site with a null check; a null Telemetry
 * pointer is the (default) off switch.
 *
 * Thread-safety: the trace log, shard/service id tables and arrival
 * sequence are guarded by one facade mutex (annotated for Clang's
 * -Werror=thread-safety); the owned MetricsRegistry synchronizes
 * itself. Lock order is Telemetry::mu_ -> MetricsRegistry::mu_ and
 * the registry never calls back, so the pair cannot deadlock. The
 * reference-returning traceRecords()/metrics() views are for the
 * post-run, single-threaded export phase.
 */
#pragma once

#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
// obs sits below sim in layers.json; this one up-edge exists because
// drainShardCompletions() consumes sim's Completion log type directly
// instead of copying it into an obs-owned mirror struct per harvest.
// layer-lint: allow(sim)
#include "sim/server_instance.h"
#include "util/thread_annotations.h"

namespace hercules::obs {

/**
 * The spec-level `observability` block (see src/scenario/README.md):
 * which files to emit and what fraction of queries to trace.
 */
struct ObsSpec
{
    std::string trace_file;    ///< JSONL per-query spans; "" = off
    std::string metrics_file;  ///< .txt/.prom | .csv | .json; "" = off
    double sample_rate = 1.0;  ///< fraction of queries traced, in [0, 1]

    bool enabled() const
    {
        return !trace_file.empty() || !metrics_file.empty();
    }
    bool tracing() const { return !trace_file.empty(); }
};

class Telemetry
{
  public:
    explicit Telemetry(const ObsSpec& spec);

    const ObsSpec& spec() const { return spec_; }
    MetricsRegistry& metrics() { return metrics_; }
    const MetricsRegistry& metrics() const { return metrics_; }
    /** Trace log view (post-run read phase; see file comment). */
    const std::vector<TraceRecord>&
    traceRecords() const EXCLUDES(mu_)
    {
        util::MutexLock lock(mu_);
        return records_;
    }

    /** Topology declarations (called from ClusterSim setup). */
    void declareService(int svc) EXCLUDES(mu_);
    void declareShard(int shard, int svc) EXCLUDES(mu_);

    /** Routing-time verdicts. One of these fires per arrival. */
    void onDropped(int svc, double t_s) EXCLUDES(mu_);
    void onRejected(int svc, double t_s) EXCLUDES(mu_);
    /**
     * Query admitted onto `shard` after `retry_hops` cross-shard
     * retries; `inject_idx` is ServerInstance::inject()'s per-shard
     * injection index, the key completions are matched back with.
     */
    void onAdmitted(int svc, int shard, int retry_hops, int inject_idx,
                    double t_s) EXCLUDES(mu_);

    /**
     * Close trace spans for `shard` completions with finish <= up_to_s.
     * Uses its own cursor into the shard's completion log, independent
     * of the harvest cursor, so crash-time draining and harvest-time
     * draining compose.
     */
    void drainShardCompletions(
        int shard, const std::vector<sim::ServerInstance::Completion>& log,
        double up_to_s) EXCLUDES(mu_);

    /**
     * The shard dropped the first `n` entries of its completion log
     * (ServerInstance::releaseCompletions): move the drain cursor down
     * with them. Panics when the cursor had not yet passed them.
     */
    void rebaseShardCompletions(int shard, size_t n) EXCLUDES(mu_);

    /**
     * Shard crashed at `t_s` with `killed` queries in flight: close
     * spans that completed before the crash, then mark every span still
     * open on the shard as Killed.
     */
    void onCrash(int shard,
                 const std::vector<sim::ServerInstance::Completion>& log,
                 double t_s, size_t killed) EXCLUDES(mu_);

    /** One harvested completion's latency decomposition (histograms). */
    void observeCompletion(int svc, double queue_wait_ms, double service_ms,
                           double latency_ms) EXCLUDES(mu_);

    /** Interval-boundary gauge updates, then commitSample() stamps them. */
    void setShardWindow(int shard, size_t queue_depth, int health)
        EXCLUDES(mu_);
    void setServiceWindow(int svc, double p50_ms, double p99_ms,
                          double sla_violation_rate) EXCLUDES(mu_);
    void setClusterWindow(int active_shards, double consumed_power_w,
                          double provisioned_power_w);
    void commitSample(double t_s);

    /** Record crash-killed in-flight count (cluster.failed_inflight). */
    void addFailedInflight(size_t killed);

    /**
     * Emit the configured files; no-ops when the path is empty.
     * @return false (with a warning) when the file could not be written.
     */
    bool writeTraceFile() const EXCLUDES(mu_);
    bool writeMetricsFile() const;

  private:
    struct ShardIds
    {
        int svc = 0;
        int injected = -1;     ///< counter
        int queue_depth = -1;  ///< gauge
        int health = -1;       ///< gauge
        /**
         * Sampled spans still open: injection index -> trace record
         * index. A span leaves when it completes or is killed, so this
         * holds traced queries in flight only.
         */
        std::map<int, size_t> open;
        /** completion-log entries already drained into trace records. */
        size_t cursor = 0;
    };
    struct ServiceIds
    {
        int arrivals = -1;
        int completions = -1;
        int dropped = -1;
        int rejected = -1;
        int p50 = -1;
        int p99 = -1;
        int viol = -1;
        int h_wait = -1;
        int h_service = -1;
        int h_latency = -1;
    };

    ShardIds& shardIds(int shard) REQUIRES(mu_);
    ServiceIds& serviceIds(int svc) REQUIRES(mu_);
    /** Next arrival sequence number + its sampling verdict. */
    size_t newRecord(int svc, double t_s, TraceOutcome outcome)
        REQUIRES(mu_);
    /** Body of drainShardCompletions (onCrash calls it under mu_). */
    void drainShardCompletionsLocked(
        int shard, const std::vector<sim::ServerInstance::Completion>& log,
        double up_to_s) REQUIRES(mu_);

    ObsSpec spec_;  ///< immutable after construction
    MetricsRegistry metrics_;  ///< internally synchronized (own mutex)
    mutable util::Mutex mu_;
    std::vector<TraceRecord> records_ GUARDED_BY(mu_);
    std::vector<ShardIds> shards_ GUARDED_BY(mu_);
    std::vector<ServiceIds> services_ GUARDED_BY(mu_);
    uint64_t arrival_seq_ GUARDED_BY(mu_) = 0;

    // Cluster-wide metric ids: set once in the constructor, immutable
    // after, so reads need no lock.
    int c_arrivals_;
    int c_completions_;
    int c_dropped_;
    int c_rejected_;
    int c_failed_inflight_;
    int c_retries_;
    int g_active_shards_;
    int g_consumed_w_;
    int g_provisioned_w_;
};

}  // namespace hercules::obs
