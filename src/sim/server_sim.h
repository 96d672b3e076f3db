/**
 * @file
 * Discrete-event simulation of one server executing one recommendation
 * workload under a task-scheduling configuration.
 *
 * The simulator models the full serving path of Fig 3: Poisson query
 * arrivals with heavy-tailed sizes, the query dispatcher (sub-query
 * splitting on CPUs, query fusion on accelerators), co-located
 * inference threads with op-parallel workers, S-D pipeline queues, the
 * shared PCIe link (FIFO DMA engine), the shared NMP device, and an
 * integrated power model. It reports latency tails, achieved
 * throughput, per-resource utilization and average/peak power.
 */
#pragma once

#include <cstdint>

#include "hw/calibration.h"
#include "sim/prepared.h"
#include "workload/querygen.h"

namespace hercules::sim {

/** Options of one simulation run. */
struct SimOptions
{
    double offered_qps = 1000.0;  ///< Poisson arrival rate
    int num_queries = 600;        ///< total queries to simulate
    int warmup_queries = 120;     ///< excluded from all statistics
    uint64_t seed = 42;           ///< stream seed (deterministic runs)
    double tail_percentile = hw::calib::kTailPercentile;
    workload::QuerySizeDist sizes{};
    workload::PoolingDist pooling{};
    /** true: all queries arrive at t=0 (capacity / saturation probe). */
    bool saturate = false;
    /**
     * true: keep a per-query (arrival, finish) completion log on the
     * ServerInstance. The cluster layer consumes it for per-interval
     * tail statistics; the one-shot simulateServer() leaves it off.
     */
    bool record_completions = false;
};

/** Measurements of one simulation run (post-warmup steady window). */
struct ServerSimResult
{
    double offered_qps = 0.0;
    double achieved_qps = 0.0;

    double mean_ms = 0.0;
    double p50_ms = 0.0;
    double p95_ms = 0.0;
    double p99_ms = 0.0;
    double tail_ms = 0.0;  ///< at the requested percentile
    double max_ms = 0.0;

    double cpu_util = 0.0;
    double mem_bw_util = 0.0;
    double gpu_util = 0.0;
    double pcie_util = 0.0;
    double nmp_util = 0.0;

    double avg_power_w = 0.0;
    double peak_power_w = 0.0;
    double qps_per_watt = 0.0;

    /** Mean per-query component times (breakdown figures). */
    double mean_queue_ms = 0.0;  ///< dispatcher/fusion queue wait
    double mean_host_ms = 0.0;   ///< host cold-sparse stage (hot-split)
    double mean_load_ms = 0.0;   ///< PCIe data loading
    double mean_exec_ms = 0.0;   ///< device/thread execution

    size_t completed = 0;
    double duration_s = 0.0;

    /** DES self-profile: events this run executed (deterministic). */
    uint64_t events_executed = 0;
    /** DES self-profile: peak pending-event depth (deterministic). */
    size_t peak_event_queue_depth = 0;
};

/**
 * Run the simulation for a prepared workload: inject every query, then
 * run until every one has retired.
 */
ServerSimResult simulateServer(const PreparedWorkload& w,
                               const SimOptions& opt);

/** Convenience: prepare + simulate (fatal on invalid config). */
ServerSimResult simulateServer(const hw::ServerSpec& server,
                               const model::Model& m,
                               const sched::SchedulingConfig& cfg,
                               const SimOptions& opt);

}  // namespace hercules::sim
