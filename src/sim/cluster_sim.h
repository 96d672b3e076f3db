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
#include "util/stats.h"

namespace hercules::obs {
class Telemetry;
}  // namespace hercules::obs

namespace hercules::util {
class ThreadPool;
}  // namespace hercules::util

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
 * of `bench_paper serving`. LatencyFeedback is deliberately not
 * included: its weights depend on harvest feedback, so it is compared
 * explicitly (`bench_paper qos`) rather than added to every sweep.
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

/**
 * Outcome counts of one population of queries (a service or the
 * cluster, over a window or a whole run), and the one SLA-violation
 * rule. An arrival is injected, dropped (no active shard) or rejected
 * (admission control); an injected query completes or is killed by a
 * shard crash; a completion past its service's SLA is also late.
 */
struct Tally
{
    size_t injected = 0;
    size_t completed = 0;
    size_t dropped = 0;
    size_t rejected = 0;
    size_t failed_inflight = 0;  ///< killed in flight by shard crashes
    size_t late = 0;             ///< completions past the SLA

    Tally& operator+=(const Tally& o);
    Tally operator-(const Tally& o) const;
    /**
     * Late completions plus every drop, reject and crash kill: a query
     * shed because no shard was active, refused by admission control
     * or killed by a crash missed its SLA by definition, so a fully
     * dark outage reports a 100% violation rate, not a vacuous 0%.
     */
    size_t slaViolations() const
    { return late + dropped + rejected + failed_inflight; }
    /**
     * slaViolations() / (completed + dropped + rejected +
     * failed_inflight); 0 when no query got an outcome.
     */
    double violationRate() const;
};

/**
 * Per-interval serving statistics of one service. The counts and the
 * rate come from the window's Tally; arrivals and completions are its
 * `injected` and `completed`.
 */
struct ServiceIntervalStats
{
    size_t arrivals = 0;     ///< queries routed in the window
    size_t completions = 0;  ///< queries retired in the window
    size_t dropped = 0;      ///< arrivals with no active shard
    size_t rejected = 0;     ///< arrivals refused by admission control
    size_t failed_inflight = 0;  ///< killed in flight by shard crashes
    size_t sla_violations = 0;       ///< Tally::slaViolations()
    double sla_violation_rate = 0.0;  ///< Tally::violationRate()
    double p50_ms = 0.0;
    double p99_ms = 0.0;
    /**
     * Shards serving the slice at window end: after the plan and after
     * every health transition inside the window.
     */
    int active_shards = 0;
};

/**
 * Per-interval serving statistics of one cluster run: the services'
 * window tallies summed, tails over the union of their latencies, the
 * cluster's active shards (at window end), and the window's load and
 * power.
 */
struct IntervalStats : ServiceIntervalStats
{
    double t0_s = 0.0, t1_s = 0.0;  ///< window (simulated seconds)
    /** (arrivals + dropped + rejected) / window. */
    double offered_qps = 0.0;
    double max_ms = 0.0;
    double consumed_power_w = 0.0;  ///< mean over active+draining shards
    double provisioned_power_w = 0.0;  ///< from the interval plan
    double budget_power_w = 0.0;       ///< enforced cap (plan)
    bool power_capped = false;  ///< plan was trimmed to fit the budget
    /** Per-service slice of this window (index = service id). */
    std::vector<ServiceIntervalStats> services;
};

/**
 * Whole-run outcome counts and latency tails, of one service or of the
 * cluster. The counts and the rate come from the run's Tally.
 */
struct RunStats
{
    size_t injected = 0;
    size_t completed = 0;
    size_t dropped = 0;
    size_t rejected = 0;  ///< refused by admission control
    size_t failed_inflight = 0;  ///< killed in flight by shard crashes
    size_t sla_violations = 0;       ///< Tally::slaViolations()
    double sla_violation_rate = 0.0;  ///< Tally::violationRate()
    double p50_ms = 0.0;
    double p99_ms = 0.0;
    double max_ms = 0.0;
};

/** Whole-run aggregates of one service. */
struct ServiceRunStats : RunStats
{
    double sla_ms = 0.0;  ///< the SLA the service was held to
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

/** Whole-run aggregates of the cluster, and every interval window. */
struct ClusterSimResult : RunStats
{
    std::vector<IntervalStats> intervals;
    /** Queries saved from rejection by cross-shard admission retry. */
    size_t admission_retries = 0;
    double mean_ms = 0.0;
    double p95_ms = 0.0;
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
     * completion) before it counts as rejected. This is a decision
     * (decide()) followed at once by its delivery: advance the picked
     * shard to the arrival, then inject the query.
     *
     * Shards advance lazily. Health events up to the arrival are
     * applied first (each advances every shard to its own time). Then
     * only the shards the decision reads are advanced to the arrival,
     * each just before it is read: the service's active set before the
     * pick when the router reads queue lengths (jsq, p2c); under an
     * admission policy other than `none`, the picked shard and each
     * cross-shard retry candidate just before its admission check.
     * The picked shard is advanced to the arrival before the inject. A
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
     * The per-shard half runs as a plain loop here and on the pool in
     * run(); both give the same result.
     * Windows must be harvested in order, after advanceTo(t1_s): a
     * harvest lets every shard drop the completions it consumed and
     * the utilization bins before t0_s, so no later window can reach
     * back before it. Panics when a service's queries are not
     * conserved: every injected query has completed, been killed by a
     * crash, or is still held by one of the service's shards.
     */
    IntervalStats harvest(double t0_s, double t1_s);

    /**
     * Replay an arrival stream: at each interval boundary apply `plan`
     * (nullptr keeps every shard active), route the interval's
     * arrivals, advance, harvest. After the last interval all shards
     * drain and a final tail window is harvested. Two interval buffers
     * of arrivals are held at a time, and harvested completions are
     * released from the shards, so live state is O(arrival rate x
     * interval + in flight); the whole-run percentiles keep one
     * latency sample per completion (8 B) per service, with a count
     * per bucket that narrows each selection to a few buckets.
     *
     * Parallelism, on one util::ThreadPool per call with one thread
     * per hardware thread, but no more than one per PreparedWorkload
     * plus one (on one hardware thread everything runs serially, in
     * program order):
     *  - a producer pulls interval k + 1's arrivals from the stream
     *    into the second buffer while interval k is decided, delivered
     *    and harvested. Only the producer touches the stream, and it
     *    pulls the same arrivals in the same order;
     *  - when the decision reads no shard state (rr, hercules, and
     *    latency-feedback, whose weights move only at harvest, each
     *    with admission `none`), the interval is decided serially
     *    first: every arrival is routed, counted and reported to
     *    telemetry in arrival order, and the picked shard's inbox gets
     *    the arrival's index. A health event inside the interval cuts
     *    it: the arrivals before the event are delivered and every
     *    shard advanced to it before it applies. Otherwise (jsq, p2c,
     *    any admission policy) each arrival is delivered as it is
     *    decided, as route() does;
     *  - delivery fans out one pool task per PreparedWorkload: the
     *    task replays each of that workload's shards' inboxes (advance
     *    to the arrival, inject) in shard order and advances them to
     *    the cut. Shards sharing a workload share its unlocked CPU
     *    memo, so they stay on one task;
     *  - a harvest extracts each shard's window on the pool, one task
     *    per shard: the completions up to the window end into the
     *    shard's reused buffer, its late count, feedback p99 and power
     *    term, and the release of its old utilization bins. It only
     *    reads the completion log. A serial merge in shard order then
     *    does everything whose result depends on order: the appends to
     *    the service buffers, the whole-run latency sum, the telemetry
     *    calls, the completion release, the tallies, the feedback
     *    weights and the consumed-power sum;
     *  - plans and health transitions stay serial.
     * A shard's events are scheduled only by its own injects and
     * dispatches, so it runs the same events in the same order
     * whichever thread advances it and whenever; every sum sees its
     * terms in the serial order, and no percentile depends on the
     * order of its samples. Results are bit-identical to a serial
     * per-arrival replay driven through route(), advanceTo() and
     * harvest().
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
    /**
     * The decision half of route(): apply health events up to the
     * arrival, pick a shard, run admission, count the outcome and
     * report it to telemetry. An admitted query's injection index is
     * its shard's injected() plus the shard's inbox, so the caller
     * must deliver it next on that shard (route() at once, run() from
     * the inbox).
     * @return as route().
     */
    int decide(const workload::Query& q);
    /**
     * Delivery for run(): replay every shard's inbox of indices into
     * `arrivals`, then advance every shard to t_s; one pool task per
     * PreparedWorkload.
     */
    void deliver(util::ThreadPool& pool,
                 const std::vector<workload::Query>& arrivals, double t_s);
    /** harvest(), with the per-shard extract on `pool` when not null. */
    IntervalStats harvest(double t0_s, double t1_s, util::ThreadPool* pool);
    /**
     * One interval of run() up to its harvest: health events at t0,
     * the plan, then decisions and deliveries to t1 (see run()).
     * @return the plan applied (default-constructed without one).
     */
    IntervalPlan replayInterval(int k, double t0, double t1,
                                const std::vector<workload::Query>& arrivals,
                                const IntervalPlanFn& plan,
                                util::ThreadPool& pool, obs::DesProfile& des);

    /**
     * One shard's part of a harvest window, filled by extractWindow()
     * before the serial merge reads it.
     */
    struct ShardWindow
    {
        /** The window's latencies in finish order; reused. */
        std::vector<double> latency_ms;
        /** A copy the feedback p99's selection reorders; reused. */
        std::vector<double> select;
        /** completions()[first, harvest_cursor) retired in the window. */
        size_t first = 0;
        size_t late = 0;            ///< of them, past the SLA
        double feedback_p99 = 0.0;  ///< read by the feedback router only
        double power_w = 0.0;       ///< term of the window's consumed power
    };

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
        ShardWindow window;      ///< the last harvest's extract
    };

    /**
     * Per-service accounting. Each event bumps one count of `total`;
     * a window is `total - harvested`.
     */
    struct ServiceState
    {
        Tally total;      ///< every outcome so far
        Tally harvested;  ///< `total` at the last harvest
        /** Whole-run latencies; the last harvest's are its window. */
        CountedSamples latency_ms;
    };

    void ensureService(int service);
    void rebuildActive();
    /**
     * The per-shard half of harvest(): consume the shard's completions
     * up to t1_s into its ShardWindow, compute its feedback p99 and
     * power term, and release its utilization bins before t0_s. Reads
     * only this shard, so shards extract concurrently.
     */
    void extractWindow(Shard& s, double t0_s, double t1_s) const;

    Options opt_;
    SimOptions shard_opt_;  ///< shared by all shard instances
    std::vector<Router> routers_;  ///< one per service
    std::vector<Shard> shards_;
    std::vector<int> active_;  ///< all active shards
    std::vector<std::vector<int>> active_by_service_;
    std::vector<ServiceState> service_state_;
    std::vector<size_t> injected_per_shard_;
    /** Shard ids by PreparedWorkload, each in shard order. */
    std::vector<std::vector<int>> workload_groups_;
    /** Per shard: decided, undelivered arrivals (run()'s buffer indices). */
    std::vector<std::vector<size_t>> inbox_;

    size_t admission_retries_ = 0;  ///< rejects saved by re-offering

    // fault injection
    std::vector<HealthEvent> health_events_;  ///< sorted by t_s
    size_t health_cursor_ = 0;                ///< next event to apply
    std::vector<HealthTransition> health_log_;

    /** The router reads every candidate's queue (jsq, p2c). */
    bool router_reads_shards_ = false;
    /** The router or admission reads shard queues on every arrival. */
    bool decision_reads_shards_ = false;

    // run() aggregates
    /**
     * Sum of every harvested latency, in harvest order, for the
     * whole-run mean: unlike a percentile, a float sum depends on the
     * order of its terms.
     */
    double all_latency_sum_ = 0.0;
};

}  // namespace hercules::sim
