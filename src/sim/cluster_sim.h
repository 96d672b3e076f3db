/**
 * @file
 * Sharded multi-server serving: N steppable ServerInstance shards
 * behind query routers, driven by a timestamped arrival trace on one
 * global clock. This is the cluster-level discrete-event layer the
 * online-serving experiments (Fig 13) run on — queries genuinely flow
 * through heterogeneous simulated servers instead of being scaled
 * analytically from per-server efficiency tuples.
 *
 * Router policies:
 *  - RoundRobin:        arrivals cycle over the active shards;
 *  - LeastOutstanding:  join-the-shortest-queue over in-flight queries;
 *  - PowerOfTwo:        two distinct random active shards, pick the
 *                       shorter queue (seeded, deterministic);
 *  - HerculesWeighted:  smooth weighted round-robin, each shard
 *                       weighted by its efficiency-tuple QPS for the
 *                       served model — the heterogeneity-aware policy;
 *  - LatencyFeedback:   smooth weighted round-robin over *dynamic*
 *                       weights, re-derived each harvest interval from
 *                       the shard's observed window p99 against its
 *                       service's SLA (qos/feedback.h), starting from
 *                       the tuple weights.
 *
 * QoS (src/qos/): every dispatch consults the picked shard's
 * AdmissionController (Options::admission); a refused query is
 * *rejected* — counted separately from *dropped* (no active shard) but,
 * like a drop, it is an SLA violation in every interval / run / service
 * rate. With the default policy (none) every query is admitted and all
 * statistics are bit-identical to the pre-QoS engine.
 *
 * Multi-service co-serving: each shard belongs to one service (the
 * index a query carries in Query::service_id). Every service gets its
 * own Router instance routing over that service's active shards, its
 * own SLA, and its own per-interval / run-level statistics — the
 * shared fleet serves several models at once, as the Hercules cluster
 * provisioner assumes. Single-service callers leave service ids at 0
 * and see the original behaviour.
 *
 * Shard lifecycle: addShard() creates an active shard; setActive(id,
 * false, t) releases it — the router stops picking it immediately, but
 * its in-flight queries keep draining as the clock advances, and only
 * once drained() does the shard stop consuming power ("go dark").
 * Re-activation resumes routing to the same instance. Router state
 * (round-robin cursor, smooth-WRR credits) survives these topology
 * changes, so fairness debt accumulated before a re-provision carries
 * across interval boundaries.
 */
#pragma once

#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "obs/self_profile.h"
#include "qos/admission.h"
#include "qos/qos.h"
#include "sim/server_instance.h"
#include "util/rng.h"

namespace hercules::obs {
class Telemetry;
}  // namespace hercules::obs

namespace hercules::workload {
class ArrivalStream;
}  // namespace hercules::workload

namespace hercules::sim {

/** The query-routing policies. */
enum class RouterPolicy {
    RoundRobin,
    LeastOutstanding,
    PowerOfTwo,
    HerculesWeighted,
    LatencyFeedback,
};

/** @return display name ("rr", "jsq", "p2c", "hercules",
 *  "latency-feedback"). */
const char* routerPolicyName(RouterPolicy p);

/** Parse a policy name as printed by routerPolicyName(). */
std::optional<RouterPolicy> parseRouterPolicy(const std::string& name);

/**
 * The four *static* policies in declaration order — the router sweep
 * the cluster benches iterate. LatencyFeedback is deliberately not
 * included: its weights depend on harvest feedback, so it is compared
 * explicitly (bench_qos) rather than silently added to every sweep.
 */
const std::vector<RouterPolicy>& allRouterPolicies();

class ClusterSim;

/** Stateful shard picker (cursor / credits / RNG live here). */
class Router
{
  public:
    Router(RouterPolicy policy, uint64_t seed);

    /**
     * @param active the shard ids this router may pick from (one
     *               service's active set).
     * @return the picked shard id, or -1 when `active` is empty.
     */
    int pick(const ClusterSim& cluster, const std::vector<int>& active);

    /**
     * Called when the shard set changes. Cursor and credits are
     * preserved — a re-provision must not restart round-robin at shard
     * 0 or erase accumulated smooth-WRR fairness debt — only the
     * credit vector is grown for newly added shards.
     */
    void onTopologyChange(size_t num_shards);

    RouterPolicy policy() const { return policy_; }

  private:
    RouterPolicy policy_;
    Rng rng_;
    uint64_t rr_cursor_ = 0;
    std::vector<double> credit_;  ///< smooth-WRR credit, by shard id
};

/** Per-interval serving statistics of one service. */
struct ServiceIntervalStats
{
    size_t arrivals = 0;     ///< queries routed in the window
    size_t completions = 0;  ///< queries retired in the window
    size_t dropped = 0;      ///< arrivals with no active shard
    size_t rejected = 0;     ///< arrivals refused by admission control
    double p50_ms = 0.0;
    double p99_ms = 0.0;
    /** In-flight queries killed by a shard crash in the window. */
    size_t failed_inflight = 0;
    /**
     * SLA-breaching completions plus dropped + rejected arrivals plus
     * crash-killed in-flight queries.
     */
    size_t sla_violations = 0;
    /**
     * sla_violations /
     * (completions + dropped + rejected + failed_inflight).
     */
    double sla_violation_rate = 0.0;
    int active_shards = 0;  ///< serving this service, at window start
};

/** Per-interval serving statistics of one cluster run. */
struct IntervalStats
{
    double t0_s = 0.0, t1_s = 0.0;  ///< window (simulated seconds)
    size_t arrivals = 0;            ///< queries routed in the window
    size_t completions = 0;         ///< queries retired in the window
    size_t dropped = 0;             ///< arrivals with no active shard
    size_t rejected = 0;  ///< arrivals refused by admission control
    /** In-flight queries killed by shard crashes in the window. */
    size_t failed_inflight = 0;
    /** (arrivals + dropped + rejected) / window. */
    double offered_qps = 0.0;
    double p50_ms = 0.0;
    double p99_ms = 0.0;
    double max_ms = 0.0;
    /**
     * SLA-breaching completions plus dropped and rejected arrivals
     * plus crash-killed in-flight queries: a query shed because no
     * shard was active — or refused by admission control, or killed by
     * a crash — missed its SLA by definition, so a fully-dark outage
     * interval reports a 100% violation rate instead of a vacuous 0%.
     */
    size_t sla_violations = 0;
    /**
     * sla_violations /
     * (completions + dropped + rejected + failed_inflight).
     */
    double sla_violation_rate = 0.0;
    int active_shards = 0;          ///< at window start (post-plan)
    double consumed_power_w = 0.0;  ///< mean over active+draining shards
    double provisioned_power_w = 0.0;  ///< from the interval plan
    double budget_power_w = 0.0;       ///< enforced cap (plan)
    bool power_capped = false;  ///< plan was trimmed to fit the budget
    /** Per-service slice of this window (index = service id). */
    std::vector<ServiceIntervalStats> services;
};

/** Whole-run aggregates of one service. */
struct ServiceRunStats
{
    size_t injected = 0;
    size_t completed = 0;
    size_t dropped = 0;
    size_t rejected = 0;  ///< refused by admission control
    size_t failed_inflight = 0;  ///< killed in flight by shard crashes
    double p50_ms = 0.0;
    double p99_ms = 0.0;
    double max_ms = 0.0;
    double sla_ms = 0.0;       ///< the SLA the service was held to
    /** Late completions + drops + rejects + crash-killed in flight. */
    size_t sla_violations = 0;
    /** violations / (completed + dropped + rejected + failed_inflight). */
    double sla_violation_rate = 0.0;
};

/**
 * One health transition of one shard (fault injection), scheduled via
 * ClusterSim::scheduleHealth(). Times are simulated seconds on the
 * cluster clock.
 */
struct HealthEvent
{
    double t_s = 0.0;
    int shard = 0;
    fault::HealthState state = fault::HealthState::Healthy;
    /** Latency multiplier while Degraded (>= 1); ignored otherwise. */
    double slowdown = 1.0;
};

/** One *applied* health transition, for reporting (CLI crash lines). */
struct HealthTransition
{
    double t_s = 0.0;
    int shard = 0;
    int service = 0;
    fault::HealthState from = fault::HealthState::Healthy;
    fault::HealthState to = fault::HealthState::Healthy;
    double slowdown = 1.0;       ///< multiplier in force after `to`
    size_t killed_inflight = 0;  ///< queries a crash killed
};

/** Whole-run aggregates. */
struct ClusterSimResult
{
    std::vector<IntervalStats> intervals;
    size_t injected = 0;
    size_t completed = 0;
    size_t dropped = 0;
    size_t rejected = 0;  ///< refused by admission control
    size_t failed_inflight = 0;  ///< killed in flight by shard crashes
    /** Queries saved from rejection by cross-shard admission retry. */
    size_t admission_retries = 0;
    double mean_ms = 0.0;
    double p50_ms = 0.0;
    double p95_ms = 0.0;
    double p99_ms = 0.0;
    double max_ms = 0.0;
    /** Late completions + drops + rejects + crash-killed in flight. */
    size_t sla_violations = 0;
    /** violations / (completed + dropped + rejected + failed_inflight). */
    double sla_violation_rate = 0.0;
    double avg_consumed_power_w = 0.0;   ///< mean over intervals
    double peak_consumed_power_w = 0.0;
    double avg_provisioned_power_w = 0.0;
    double peak_provisioned_power_w = 0.0;
    /** Per-service aggregates (index = service id). */
    std::vector<ServiceRunStats> services;
    /** Every applied health transition, in time order (fault runs). */
    std::vector<HealthTransition> health_transitions;
    /** DES self-profile of the run (events + wall-time provenance). */
    obs::DesProfile des;
};

/** What one provisioning interval activates. */
struct IntervalPlan
{
    std::vector<int> active;  ///< shard ids routable this interval
    double provisioned_power_w = 0.0;
    double budget_power_w = std::numeric_limits<double>::infinity();
    bool power_capped = false;
};

/**
 * @param interval index (0-based) and window start in simulated
 * seconds; returns the plan applied at the window start.
 */
using IntervalPlanFn = std::function<IntervalPlan(int, double)>;

/** The sharded cluster simulator. */
class ClusterSim
{
  public:
    struct Options
    {
        RouterPolicy router = RouterPolicy::HerculesWeighted;
        /** Service s's router draws from seed router_seed + s. */
        uint64_t router_seed = 1;
        /** Default latency SLA (ms), used when a service has no own. */
        double sla_ms = 25.0;
        /**
         * Per-service SLA overrides, indexed by service id. Services
         * beyond the vector (and non-positive entries) fall back to
         * sla_ms.
         */
        std::vector<double> service_sla_ms;
        /**
         * Per-shard admission control (every shard gets a controller
         * with this config). Default policy `none` admits everything —
         * the pre-QoS unbounded-queue behaviour, bit-identical.
         */
        qos::AdmissionConfig admission{};
        /**
         * QoS classes per service id; services beyond the vector get
         * a default class. At this layer a class's positive sla_ms is
         * the fallback SLA when service_sla_ms doesn't cover the
         * service; priority/tier steer shedding and provisioning one
         * layer up in cluster::serveTraces.
         */
        std::vector<qos::ServiceClass> service_class;
        /** Weight-update knobs of the LatencyFeedback router. */
        qos::FeedbackConfig feedback{};
        /**
         * Template for per-shard simulation options. Warmup is forced
         * to zero and completion recording on: the cluster layer owns
         * measurement windows.
         */
        SimOptions shard_sim{};
        /**
         * Optional telemetry sink (src/obs/). Not owned; may be null
         * (the default = telemetry off). Every call into it only
         * *observes* — with or without a sink, all simulated statistics
         * are bit-identical.
         */
        obs::Telemetry* telemetry = nullptr;
    };

    explicit ClusterSim(Options opt);

    // Shard instances reference shard_opt_: the cluster must not move.
    ClusterSim(const ClusterSim&) = delete;
    ClusterSim& operator=(const ClusterSim&) = delete;

    /**
     * Add one (initially active) shard serving `service`.
     *
     * @param w          prepared placement; must outlive the ClusterSim.
     * @param weight_qps routing weight — the shard's efficiency-tuple
     *                   QPS for the served model.
     * @param service    the service this shard serves (Query::service_id
     *                   values it accepts).
     * @return the shard id.
     */
    int addShard(const PreparedWorkload& w, double weight_qps,
                 int service = 0);

    /**
     * Pre-declare services 0..count-1 (routers + accounting state).
     * addShard() declares its service implicitly; declaring up front
     * lets a service with no shards at all (no feasible capacity)
     * *drop* its queries — counted as SLA violations — instead of
     * being treated as an unknown-service routing error.
     */
    void declareServices(int count);

    /** Activate / release a shard at simulated time t_s. */
    void setActive(int shard, bool active, double t_s);

    bool isActive(int shard) const;

    /**
     * Install the run's fault timeline: health transitions sorted
     * ascending by t_s (panics otherwise). run() — and route(), for
     * direct drivers — apply each event at its timestamp, interleaved
     * deterministically with arrivals: a *failed* shard kills its
     * in-flight queries (counted in the failed_inflight statistics as
     * SLA violations) and leaves every router's candidate set until it
     * recovers; a *degraded* shard keeps serving with its latencies
     * multiplied by the event's slowdown. Replaces any previously
     * scheduled timeline.
     */
    void scheduleHealth(std::vector<HealthEvent> events);

    /**
     * Apply every scheduled health event with t_s <= the given time
     * (idempotent; route() and run() call this as the clock advances).
     */
    void applyHealthEventsUpTo(double t_s);

    /** @return the shard's current health state. */
    fault::HealthState shardHealth(int shard) const;

    /** @return true when inactive with no in-flight queries. */
    bool drained(int shard) const;

    size_t numShards() const { return shards_.size(); }
    /** @return number of services (max service id + 1). */
    int numServices() const
    { return static_cast<int>(active_by_service_.size()); }
    size_t outstanding(int shard) const;
    double weight(int shard) const;
    /**
     * The shard's current routing weight under latency feedback:
     * starts at weight(shard), multiplicatively adjusted every
     * harvest from the observed window p99 (qos/feedback.h). Only the
     * LatencyFeedback policy consults it.
     */
    double feedbackWeight(int shard) const;
    /** @return the service a shard serves. */
    int shardService(int shard) const;
    /** @return the SLA (ms) service `service` is held to. */
    double slaMs(int service) const;
    /** @return the QoS class of service `service` (default if unset). */
    qos::ServiceClass serviceClass(int service) const;
    /** All active shards, across services. */
    const std::vector<int>& activeShards() const { return active_; }
    /** Active shards of one service. */
    const std::vector<int>& activeShards(int service) const;

    /** Advance every shard's event queue to t_s. */
    void advanceTo(double t_s);

    /**
     * Route one arrival via its service's router to that service's
     * active shards, then through the picked shard's admission
     * controller. When the picked shard refuses and
     * admission.cross_shard_retry is set, the query is re-offered to
     * the service's other active shards (ascending estimated
     * completion) before it counts as rejected.
     *
     * Shards advance lazily. Health events up to the arrival are
     * applied first (each advances every shard to its own time). Then
     * only the shards the decision reads are advanced to the arrival:
     * the service's active set when the router reads queue lengths
     * (jsq, p2c) or admission is not `none`, no shard otherwise. The
     * picked shard is advanced to the arrival before the inject. A
     * shard's events are scheduled only by its own dispatches and
     * injects, so advancing it later, in one go, runs the same events
     * in the same order: every statistic equals that of advancing all
     * shards to every arrival. Between routes, outstanding() of a
     * shard the decision did not read may therefore lag the arrival
     * clock; advanceTo() brings every shard up to date.
     * @return the shard id the query was injected into; -1 when the
     * service has no active shard (dropped); -2 when admission control
     * refused the query on every eligible shard (rejected). Panics
     * when no shard was ever added for the service.
     */
    int route(const workload::Query& q);

    /** Retire all in-flight work on every shard. */
    void drainAll();

    /**
     * Collect the statistics of window [t0_s, t1_s): completions that
     * retired inside it, power consumed by active/draining shards.
     * Windows must be harvested in order, after advanceTo(t1_s): a
     * harvest lets every shard drop the completions it consumed and
     * the utilization bins before t0_s, so no later window can reach
     * back before it.
     */
    IntervalStats harvest(double t0_s, double t1_s);

    /**
     * Replay an arrival stream: at each interval boundary apply `plan`
     * (nullptr keeps every shard active), pull the interval's arrivals
     * from the stream into one reused buffer, route them, advance,
     * harvest. After the last interval all shards drain and a final
     * tail window is harvested. Only one interval's arrivals are held
     * at a time, and harvested completions are released from the
     * shards, so live state is O(arrival rate x interval + in flight);
     * the whole-run percentiles keep one latency sample per completion
     * (8 B) per service.
     *
     * @param arrivals  arrivals in non-decreasing time order; drained.
     * @param horizon_s with a positive value, intervals (and the plan)
     * keep running to this time even after the stream is exhausted —
     * trailing low-traffic intervals still get provisioned and
     * reported. 0 stops at the last arrival's interval.
     */
    ClusterSimResult run(workload::ArrivalStream& arrivals,
                         double interval_s,
                         const IntervalPlanFn& plan = nullptr,
                         double horizon_s = 0.0);

    /** run() over a materialised trace (a workload::VectorArrivals). */
    ClusterSimResult run(const std::vector<workload::Query>& trace,
                         double interval_s,
                         const IntervalPlanFn& plan = nullptr,
                         double horizon_s = 0.0);

    /** Per-shard queries routed (diagnostics / tests). */
    const std::vector<size_t>& injectedPerShard() const
    { return injected_per_shard_; }

    /** Rejects saved so far by cross-shard re-offering. */
    size_t admissionRetries() const { return admission_retries_; }

  private:
    struct Shard
    {
        std::unique_ptr<ServerInstance> inst;
        const PreparedWorkload* workload = nullptr;
        double weight = 0.0;
        double fb_weight = 0.0;  ///< latency-feedback routing weight
        int service = 0;
        bool active = true;
        double released_at = 0.0;   ///< last release time
        size_t harvest_cursor = 0;  ///< completions consumed so far
        /** Dispatch-time admission decision (Options::admission). */
        qos::AdmissionController admit;
        /** Fault-injection health; Failed shards are never routable. */
        fault::HealthState health = fault::HealthState::Healthy;
        double slowdown = 1.0;   ///< latency multiplier in force
        double failed_at = 0.0;  ///< time of the last crash
    };

    /** Per-service routing + accounting state. */
    struct ServiceState
    {
        size_t injected = 0;
        size_t dropped = 0;
        size_t rejected = 0;
        size_t failed_inflight = 0;  ///< crash-killed in-flight queries
        size_t injected_harvested = 0;
        size_t dropped_harvested = 0;
        size_t rejected_harvested = 0;
        size_t failed_inflight_harvested = 0;
        PercentileTracker latency_ms;  ///< whole-run latencies
        PercentileTracker window_ms;   ///< this harvest's latencies
        size_t violations = 0;         ///< whole-run late completions
    };

    void ensureService(int service);
    void rebuildActive();
    /** Cluster-wide tail statistics of one latency population. */
    struct Tails
    {
        size_t count = 0;
        double p50 = 0.0, p95 = 0.0, p99 = 0.0, max = 0.0;
    };
    /**
     * Tails of the union of every service's `buf` samples. Nearest-rank
     * percentiles are found by selection, so the order in which the
     * service buffers are concatenated does not matter.
     */
    Tails unionTails(PercentileTracker ServiceState::*buf);

    Options opt_;
    SimOptions shard_opt_;  ///< shared by all shard instances
    std::vector<Router> routers_;  ///< one per service
    std::vector<Shard> shards_;
    std::vector<int> active_;  ///< all active shards
    std::vector<std::vector<int>> active_by_service_;
    std::vector<ServiceState> service_state_;
    std::vector<size_t> injected_per_shard_;

    size_t injected_ = 0;
    size_t dropped_ = 0;
    size_t rejected_ = 0;
    size_t failed_inflight_ = 0;  ///< crash-killed in-flight queries
    size_t admission_retries_ = 0;  ///< rejects saved by re-offering

    // fault injection
    std::vector<HealthEvent> health_events_;  ///< sorted by t_s
    size_t health_cursor_ = 0;                ///< next event to apply
    std::vector<HealthTransition> health_log_;

    /** The router or admission reads shard queues on every arrival. */
    bool decision_reads_shards_ = false;
    std::vector<double> union_buf_;  ///< unionTails() buffer

    // run() aggregates
    /**
     * Sum of every harvested latency, in harvest order, for the
     * whole-run mean: unlike a percentile, a float sum depends on the
     * order of its terms.
     */
    double all_latency_sum_ = 0.0;
    size_t all_violations_ = 0;  ///< late completions (drops added later)
};

}  // namespace hercules::sim
