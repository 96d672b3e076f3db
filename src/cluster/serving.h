/**
 * @file
 * Trace-driven online serving (Fig 13, end to end): a heterogeneous
 * shard fleet built from the efficiency table serves diurnal arrival
 * traces through per-service query routers, while the chosen
 * Provisioner re-provisions the active shard set every interval.
 * Released shards drain their in-flight queries before going dark; the
 * provisioned power budget of each interval is enforced (an optional
 * global cap additionally trims the allocation).
 *
 * The entry point, serveTraces(), co-serves N services (one is the
 * single-tenant replay) on one *shared* heterogeneous fleet: per-service
 * diurnal curves with (typically) phase-shifted peaks merged into one
 * tagged arrival stream, the multi-model ProvisionProblem solved
 * jointly every interval, and one cross-service power cap shedding the
 * least energy-efficient (server type, service) pair first.
 *
 * This replaces the purely analytic cluster::runCluster() scaling for
 * experiments that need real tail latency: every query flows through a
 * simulated ServerInstance shard.
 */
#pragma once

#include <limits>
#include <vector>

#include "cluster/provision.h"
#include "core/efficiency_table.h"
#include "fault/fault.h"
#include "qos/qos.h"
#include "sim/cluster_sim.h"
#include "workload/diurnal.h"
#include "workload/trace_gen.h"

namespace hercules::cluster {

/**
 * One step of a time-varying power-cap schedule: from `from_hour` on
 * (until the next point's from_hour) the global cap is `cap_w`.
 */
struct PowerCapPoint
{
    double from_hour = 0.0;  ///< step start (hours into the horizon)
    double cap_w = std::numeric_limits<double>::infinity();
};

/**
 * The effective global power cap at `t_hours`: the cap_w of the last
 * schedule point with from_hour <= t_hours, combined (min) with the
 * scalar `cap_w` floor. Before the first point — or with an empty
 * schedule — only the scalar applies, so legacy single-cap runs are
 * unchanged. `schedule` must be sorted ascending by from_hour.
 */
double powerCapAt(const std::vector<PowerCapPoint>& schedule,
                  double cap_w, double t_hours);

/** Options of one trace-driven serving run. */
struct TraceServeOptions
{
    double horizon_hours = 24.0;
    /** Re-provisioning (and statistics) interval. */
    double interval_hours = 0.5;
    /** Latency SLA the violation rate is measured against. */
    double sla_ms = 25.0;
    /** Over-provision rate R; negative = estimate from the curve. */
    double overprovision_rate = -1.0;
    /** Global power cap (W); the allocation is trimmed to fit. */
    double power_cap_w = std::numeric_limits<double>::infinity();
    /**
     * Time-varying cap schedule (e.g. an evening brownout), applied on
     * top of power_cap_w via powerCapAt(). Points must be sorted
     * ascending by from_hour with finite, non-negative cap_w;
     * serveTraces rejects anything else (fatal).
     */
    std::vector<PowerCapPoint> power_cap_schedule;
    sim::RouterPolicy router = sim::RouterPolicy::HerculesWeighted;
    uint64_t router_seed = 1;
    /**
     * Per-shard admission control (src/qos/): default policy `none`
     * keeps today's unbounded queues, bit-identical.
     */
    qos::AdmissionConfig admission{};
    /** Weight-update knobs of the latency-feedback router. */
    qos::FeedbackConfig feedback{};
    /**
     * Fault injection (src/fault/): scripted and/or seeded crash and
     * straggler events against physical (fleet index, slot) servers.
     * Each event hits every service personality hosted by that server;
     * at every interval boundary the provisioner sees only surviving
     * capacity, so it activates replacement slots — still under the
     * power cap — and the run *self-heals*. The default spec injects
     * nothing and is bit-identical to the pre-fault engine.
     */
    fault::FaultSpec faults{};
    /** Arrival-trace options; horizon is overridden by horizon_hours. */
    workload::TraceOptions trace{};
    /**
     * Optional telemetry sink (src/obs/), forwarded to ClusterSim. Not
     * owned; null = telemetry off. Attaching one never changes any
     * simulated statistic — it only records what happened.
     */
    obs::Telemetry* telemetry = nullptr;
};

/** One co-served service of a multi-service run. */
struct ServiceSpec
{
    model::ModelId model = model::ModelId::DlrmRmc1;
    /** Its diurnal curve (phase-shift peak_hour between services). */
    workload::DiurnalConfig load{};
    /** Per-service SLA (ms); <= 0 uses the model-zoo default. */
    double sla_ms = 0.0;
    /**
     * QoS class: priority steers the power-cap shedding order (higher
     * keeps capacity longer), tier steers provisioning (throughput-
     * tier services are provisioned to horizon-mean demand, not peak),
     * and a positive qos.sla_ms overrides sla_ms. Defaults are
     * behaviour-preserving.
     */
    qos::ServiceClass qos{};
    workload::QuerySizeDist sizes{};
    workload::PoolingDist pooling{};
};

/** Result of one multi-service co-serving run. */
struct MultiServeResult
{
    sim::ClusterSimResult sim;  ///< aggregates + per-service stats
    double estimated_r = 0.0;   ///< the over-provision rate used (max)
    std::vector<double> service_r;  ///< per-service curve estimate
    size_t trace_queries = 0;   ///< arrivals in the merged trace
    int reprovisions = 0;       ///< intervals that changed the fleet
    int shard_slots = 0;        ///< shard instances built, all services
    /** Full-fleet capacity per service (every slot on that service). */
    std::vector<double> service_capacity_qps;
    /** The SLA each service was held to (resolved from spec / zoo). */
    std::vector<double> service_sla_ms;
};

/**
 * Shed whole servers from a (server type x service) activation-count
 * matrix until its provisioned power fits `cap_w` — the cross-service
 * shedding policy of the global power cap.
 *
 * Victim order: strictly ascending service priority first (every
 * server of a lower-priority service is shed before any higher-
 * priority pair loses one), then least energy-efficient (QPS/W) pair
 * within the priority level. Exact QPS/W ties break deterministically
 * by (type, service) scan order — the lowest (h, m) pair wins. With
 * `priorities` empty (or all equal) the order is pure QPS/W, the
 * pre-QoS behaviour.
 *
 * @param problem    supplies PairPerf for every (type, service) pair.
 * @param counts     counts[h][m], mutated in place.
 * @param cap_w      the cap; +inf disables shedding.
 * @param power_w    out: provisioned power of the final counts.
 * @param priorities per-service shedding priority (higher keeps
 *                   capacity longer), indexed like the problem's
 *                   models; empty = all equal.
 * @return true when at least one server was shed.
 */
bool shedToPowerCap(const ProvisionProblem& problem,
                    std::vector<std::vector<int>>& counts, double cap_w,
                    double* power_w,
                    const std::vector<int>& priorities = {});

/**
 * Co-serve N services' merged diurnal traces on one shared
 * heterogeneous fleet.
 *
 * The fleet is materialized as one shard instance per (server type,
 * service) pair and slot — the per-service "personalities" of the
 * physical pool. Each interval the multi-model ProvisionProblem is
 * solved jointly over the current per-service loads; the resulting
 * N_{h,m} activation (which never exceeds shard_slots[h] per type
 * across services, so the physical availability is honoured) picks
 * which personalities route. A finite opt.power_cap_w is enforced
 * across all services via shedToPowerCap().
 *
 * Queries are routed per service (each service has its own router over
 * its own active shards) and accounted against the service's SLA
 * (ServiceSpec::sla_ms, or the model-zoo default); dropped arrivals
 * count as violations. opt.sla_ms is only the fallback for services
 * without either.
 *
 * @param services at least one service; Query::service_id values in
 *                 the merged trace index this vector.
 */
MultiServeResult serveTraces(const core::EfficiencyTable& table,
                             const std::vector<hw::ServerType>& fleet,
                             const std::vector<int>& shard_slots,
                             const std::vector<ServiceSpec>& services,
                             Provisioner& policy,
                             const TraceServeOptions& opt);

}  // namespace hercules::cluster
