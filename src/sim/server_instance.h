/**
 * @file
 * The steppable single-server discrete-event simulator.
 *
 * ServerInstance is the engine behind simulateServer(), exposed as a
 * construct → inject → advance → drain object so that higher layers
 * (the sharded ClusterSim, trace-driven serving) can interleave many
 * servers on one global clock. The contract:
 *
 *  - inject(query) schedules an arrival at query.arrival_s on the
 *    event queue's sorted arrival lane; arrivals must be injected in
 *    non-decreasing time order, never earlier than the instance's
 *    current clock (now()), and inject() panics when one is not (the
 *    order is checked against the arrivals still pending, so after a
 *    killInFlight() only now() bounds the next one);
 *  - advanceTo(t) runs every pending event with timestamp <= t;
 *  - drain() runs the event queue dry (all in-flight work retires);
 *  - finalize() computes the ServerSimResult over the post-warmup
 *    window exactly as the one-shot simulateServer() does.
 *
 * Indices and storage: a query's index is its *injection index* (0 for
 * the first inject(), 1 for the next, ...), and it stays that for the
 * life of the instance: events, chunks, obs::Completion::query and the
 * telemetry keys all carry it. Storage is compacted underneath. The
 * per-query state of a retired prefix is dropped once enough of it
 * piles up (never below kCompactMinSlots slots, so a short probe never
 * compacts), the completion log drops the prefix its owner released
 * (releaseCompletions()), and the utilization bins drop the span the
 * owner will not read again (releaseBinsBefore()). Live state is
 * therefore O(queries in flight + completions not yet consumed), not
 * O(queries injected).
 *
 * Determinism: given the same construction arguments and the same
 * injection sequence, every event fires in the same order (the event
 * queue breaks timestamp ties by scheduling order) and every statistic
 * is bit-identical across runs, whether or not earlier runs on the same
 * PreparedWorkload already filled its memos. The arrival
 * lane changes no order either: it shares the queue's (time,
 * scheduling order) ordering. simulateServer() is a thin wrapper
 * over this class and is pinned bit-identical to the pre-extraction
 * engine by tests/test_sim_cluster.cc.
 */
#pragma once

#include <deque>
#include <vector>

#include "hw/cost_model.h"
#include "hw/power.h"
#include "obs/trace.h"
#include "sim/event_queue.h"
#include "sim/server_sim.h"
#include "util/stats.h"
#include "workload/query.h"

namespace hercules::sim {

/** One steppable simulated server. */
class ServerInstance
{
  public:
    /**
     * @param w   prepared workload placement; must outlive the instance.
     * @param opt simulation options; must outlive the instance.
     */
    ServerInstance(const PreparedWorkload& w, const SimOptions& opt);

    // A simulated server is owned in place and never duplicated mid-run.
    ServerInstance(const ServerInstance&) = delete;
    ServerInstance& operator=(const ServerInstance&) = delete;

    /**
     * Tag this instance with its cluster position; stamped onto every
     * Completion so latency decomposes per shard/service downstream.
     * Purely observational — never read by the simulation itself.
     */
    void setIdentity(int shard, int service)
    {
        shard_id_ = shard;
        service_id_ = service;
    }

    /**
     * Inject one query; its arrival event fires at q.arrival_s. Panics
     * when q.arrival_s is before now() or before a pending arrival.
     * @return the query's index (injection order).
     */
    int inject(const workload::Query& q);

    /** Run every pending event with timestamp <= t_s. */
    void advanceTo(double t_s);

    /** Run the event queue dry (retire all in-flight work). */
    void drain();

    /** @return true while events are pending. */
    bool hasPending() const { return !eq_.empty(); }

    /** @return simulation time of the last executed event. */
    double now() const { return eq_.now(); }

    /** @return total queries injected so far. */
    size_t injected() const { return query_base_ + queries_.size(); }

    /** @return queries fully retired (warmup included). */
    size_t completedAll() const { return done_count_; }

    /** @return queries injected but not yet retired. */
    size_t outstanding() const { return injected() - done_count_; }

    /**
     * @return the retained completion log, in finish order (empty
     * unless record_completions): every completion not yet dropped by
     * releaseCompletions().
     */
    const std::vector<obs::Completion>& completions() const
    { return completions_; }

    /**
     * The owner has consumed completions()[0, n). The instance drops
     * that prefix when it is at least half the log (amortised O(1) per
     * entry), so positions in completions() shift down.
     * @return entries dropped: 0 or n. Cursors into completions()
     * move down by this much.
     */
    size_t releaseCompletions(size_t n);

    /** @return per-query state slots held (in flight + retired, not
     *  yet compacted). */
    size_t retainedQuerySlots() const { return queries_.size(); }

    /** @return events executed by this instance's queue (lifetime). */
    uint64_t eventsExecuted() const { return eq_.eventsExecuted(); }

    /** @return peak pending-event depth seen by this instance. */
    size_t peakEventQueueDepth() const { return eq_.peakDepth(); }

    /**
     * Straggler knob: multiply every *subsequent* service and transfer
     * duration by `factor` (>= 1). Applied at the usage sites, never to
     * the workload's shared CPU service memo, so setSlowdown(1.0) is
     * bit-identical to a server that never degraded. Work already
     * scheduled keeps its original finish time.
     */
    void setSlowdown(double factor);

    /** @return the current latency multiplier (1.0 when healthy). */
    double slowdown() const { return slowdown_; }

    /**
     * Crash semantics: every in-flight query dies right now. Killed
     * queries are marked done (they count in completedAll() so
     * outstanding() drops to zero) but are never appended to the
     * completion log and never enter the latency statistics — the
     * caller accounts for them (ClusterSim's `failed_inflight`). All
     * pending events, queued chunks and pipeline stages are discarded;
     * pools and GPU threads reset to idle so the instance can serve
     * again after recovery. Resource bins already charged beyond the
     * crash instant are deliberately kept (the power model's stand-in
     * for crash-loop churn).
     *
     * @return the number of queries killed.
     */
    size_t killInFlight();

    /**
     * Mean server power (W) over [t0_s, t1_s), integrating the binned
     * resource-utilization profile through the power model. Windows the
     * server spent idle contribute idle power. Panics when the window
     * reaches into bins released by releaseBinsBefore().
     */
    double avgPowerBetween(double t0_s, double t1_s) const;

    /**
     * The owner reads power only at or after `t_s` from now on: the
     * utilization bins wholly before it may be dropped (in batches of
     * at least kReleaseMinBins). Work is never charged before the
     * clock, so a caller that has advanced past `t_s` loses nothing.
     * finalize() must not follow a release.
     */
    void releaseBinsBefore(double t_s);

    /**
     * Compute the post-warmup measurements (call after the run). With
     * record_completions the latency samples live only in the
     * completion log, so finalize() reads them from there and panics
     * once releaseCompletions() has dropped any.
     */
    ServerSimResult finalize() const;

    /** Fewest per-query state slots before a retired prefix is dropped. */
    static constexpr size_t kCompactMinSlots = 4096;
    /** Fewest dead utilization bins releaseBinsBefore() drops at once. */
    static constexpr size_t kReleaseMinBins = 1024;

  private:
    // ---- work units -----------------------------------------------------
    /** One unit of schedulable work: a (sub-)query chunk. */
    struct Chunk
    {
        int query = -1;
        int items = 0;
        double ps = 1.0;  ///< pooling scale of the owning query
    };

    /** A fused accelerator batch (lives in a GpuThread slot). */
    struct Batch
    {
        std::vector<Chunk> chunks;
        int items = 0;
        double ps = 1.0;  ///< item-weighted pooling scale
    };

    /**
     * One scheduled event: a POD payload the event queue orders and
     * dispatch() switches on. GPU events name only their thread; the
     * batch they act on sits in that thread's slot.
     */
    struct Event
    {
        enum class Kind : uint8_t
        {
            Arrival,        ///< index = query
            PoolDone,       ///< index = pool (0 cpu, 1 dense), chunk
            HostStageDone,  ///< index = GPU thread; batch in staging
            Loaded,         ///< index = GPU thread; batch in staging
            ExecDone,       ///< index = GPU thread; batch in running
        };
        Kind kind = Kind::Arrival;
        int index = 0;
        Chunk chunk{};
    };

    struct ServiceSample
    {
        double latency_us = 0.0;
        double dram_bytes = 0.0;
        double nmp_busy_us = 0.0;
        double idle_frac = 0.0;  ///< op-worker idle fraction (Fig 5)
    };

    // ---- configuration shortcuts ----------------------------------------
    sched::Mapping mapping() const { return w_.config.mapping; }

    // ---- query bookkeeping ----------------------------------------------
    struct QueryState
    {
        double arrival = 0.0;
        double enqueue_done = 0.0;  ///< first service start (queue wait)
        int pending = 0;
        int size = 0;
        double ps = 1.0;
        bool started = false;
        bool done = false;  ///< all chunks completed
    };

    // ---- pools ----------------------------------------------------------
    struct Pool
    {
        std::deque<Chunk> queue;
        int idle = 0;
        int total = 0;
        int cores_each = 1;
    };

    // ---- GPU pipeline ----------------------------------------------------
    /**
     * Each thread owns at most two batches: `staging` (formed, then in
     * the host stage, on PCIe, or loaded and waiting for the executor)
     * and `running` (on the executor). Slots are reused, so a steady
     * pipeline allocates nothing.
     */
    struct GpuThread
    {
        bool loading = false;    ///< staging is in host stage / transfer
        bool has_loaded = false; ///< staging is loaded, executor busy
        bool executing = false;  ///< running is on the executor
        Batch staging;
        Batch running;
    };

    /** The state of the query with injection index `qidx`. */
    QueryState& query(int qidx)
    { return queries_[static_cast<size_t>(qidx) - query_base_]; }
    /** Drop the retired prefix of queries_ when it is half or more. */
    void compactQueries();

    void dispatch(const Event& ev);

    void arrival(int qidx);
    void splitToPool(int qidx, Pool& pool, int batch);
    void enqueue(Pool& pool, Chunk c);
    void poolServe(Pool& pool, Chunk c);
    void poolDone(Pool& pool, Chunk c);
    void queryPartDone(int qidx);

    void tryFormGpuBatch(size_t tid);
    void startHostStage(size_t tid);
    void gpuHostStageDone(size_t tid);
    void startTransfer(size_t tid);
    void onLoaded(size_t tid);
    void startExec(size_t tid);
    void onExecDone(size_t tid);
    void scheduleGpu(double t, Event::Kind kind, size_t tid);

    ServiceSample cpuService(int pool_id, int items, double query_ps);

    void chargeBins(std::vector<double>& bins, double start_s,
                    double end_s, double weight);
    size_t binIndex(double t) const
    { return static_cast<size_t>(t / kBinSeconds); }

    /** Per-bin resource utilizations (the finalize/power integrand). */
    struct BinUtil
    {
        double cpu = 0.0;
        double mem = 0.0;  ///< DRAM + NMP, clamped to 1
        double gpu = 0.0;
        double pcie = 0.0;
        double nmp = 0.0;
    };
    BinUtil binUtil(size_t b, double mem_denom) const;

    // ---- members --------------------------------------------------------
    const PreparedWorkload& w_;
    const SimOptions& opt_;
    hw::CostModel cost_;
    hw::PowerModel power_;
    EventQueue<Event> eq_;

    /** Queries query_base_, query_base_ + 1, ... (injection index). */
    std::vector<QueryState> queries_;
    size_t query_base_ = 0;  ///< injection index of queries_[0]
    std::vector<obs::Completion> completions_;  ///< retained, when recording
    size_t completions_dropped_ = 0;       ///< released log prefix
    size_t done_count_ = 0;                ///< all retired queries

    Pool cpu_pool_;    ///< model-based threads or SparseNet threads
    Pool dense_pool_;  ///< CpuSdPipeline DenseNet threads
    Pool host_pool_;   ///< hot-split cold-sparse helpers (batch level)

    std::vector<GpuThread> gpu_threads_;
    std::deque<Chunk> fusion_queue_;
    std::deque<size_t> host_stage_queue_;  ///< GPU threads awaiting a helper
    int host_stage_idle_ = 0;
    double pcie_free_ = 0.0;
    double slowdown_ = 1.0;  ///< latency multiplier (fault injection)
    int shard_id_ = -1;      ///< observational tag (setIdentity)
    int service_id_ = 0;     ///< observational tag (setIdentity)

    // resource usage bins; bins[i] covers absolute bin bin_base_ + i
    static constexpr double kBinSeconds = 0.05;
    size_t bin_base_ = 0;  ///< bins before it were released
    std::vector<double> cpu_busy_s_;
    std::vector<double> gpu_busy_s_;
    std::vector<double> pcie_busy_s_;
    std::vector<double> nmp_busy_s_;
    std::vector<double> mem_bytes_;

    /** Post-warmup latencies; empty with record_completions. */
    PercentileTracker latency_ms_;
    OnlineStats queue_ms_, host_ms_, load_ms_, exec_ms_;
    double steady_start_ = 0.0;
    double last_finish_ = 0.0;
    size_t measured_completed_ = 0;
};

}  // namespace hercules::sim
