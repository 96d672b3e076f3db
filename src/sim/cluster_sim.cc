#include "sim/cluster_sim.h"

#include <algorithm>
#include <limits>

#include "obs/telemetry.h"
#include "qos/feedback.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "workload/trace_gen.h"

namespace hercules::sim {

// ---- outcome accounting ----------------------------------------------------

Tally&
Tally::operator+=(const Tally& o)
{
    return *this = {injected + o.injected, completed + o.completed,
                    dropped + o.dropped, rejected + o.rejected,
                    failed_inflight + o.failed_inflight, late + o.late};
}

Tally
Tally::operator-(const Tally& o) const
{
    return {injected - o.injected, completed - o.completed,
            dropped - o.dropped, rejected - o.rejected,
            failed_inflight - o.failed_inflight, late - o.late};
}

double
Tally::violationRate() const
{
    const size_t outcomes = completed + dropped + rejected + failed_inflight;
    return outcomes > 0 ? static_cast<double>(slaViolations()) /
                              static_cast<double>(outcomes)
                        : 0.0;
}

namespace {

/** Fill a window's counts and violation rate from its tally. */
void
report(const Tally& t, ServiceIntervalStats& out)
{
    out.arrivals = t.injected;
    out.completions = t.completed;
    out.dropped = t.dropped;
    out.rejected = t.rejected;
    out.failed_inflight = t.failed_inflight;
    out.sla_violations = t.slaViolations();
    out.sla_violation_rate = t.violationRate();
}

/** Fill a run's counts and violation rate from its tally. */
void
report(const Tally& t, RunStats& out)
{
    out.injected = t.injected;
    out.completed = t.completed;
    out.dropped = t.dropped;
    out.rejected = t.rejected;
    out.failed_inflight = t.failed_inflight;
    out.sla_violations = t.slaViolations();
    out.sla_violation_rate = t.violationRate();
}

}  // namespace

// ---- router policies -----------------------------------------------------

const char*
routerPolicyName(RouterPolicy p)
{
    switch (p) {
      case RouterPolicy::RoundRobin: return "rr";
      case RouterPolicy::LeastOutstanding: return "jsq";
      case RouterPolicy::PowerOfTwo: return "p2c";
      case RouterPolicy::HerculesWeighted: return "hercules";
      case RouterPolicy::LatencyFeedback: return "latency-feedback";
    }
    panic("routerPolicyName: bad policy %d", static_cast<int>(p));
}

std::optional<RouterPolicy>
parseRouterPolicy(const std::string& name)
{
    for (RouterPolicy p : allRouterPolicies())
        if (name == routerPolicyName(p))
            return p;
    // Not part of the static-policy sweep, but parseable by name.
    if (name == routerPolicyName(RouterPolicy::LatencyFeedback))
        return RouterPolicy::LatencyFeedback;
    return std::nullopt;
}

const std::vector<RouterPolicy>&
allRouterPolicies()
{
    static const std::vector<RouterPolicy> all = {
        RouterPolicy::RoundRobin,
        RouterPolicy::LeastOutstanding,
        RouterPolicy::PowerOfTwo,
        RouterPolicy::HerculesWeighted,
    };
    return all;
}

Router::Router(RouterPolicy policy, uint64_t seed)
    : policy_(policy), rng_(seed)
{
}

void
Router::onTopologyChange(size_t num_shards)
{
    // Cursor and credits deliberately survive: re-provisioning must
    // not restart round-robin at the lowest-index shard or forget the
    // smooth-WRR fairness debt accumulated before the boundary. Only
    // newly added shards get a fresh zero credit.
    if (credit_.size() < num_shards)
        credit_.resize(num_shards, 0.0);
}

int
Router::pick(const ClusterSim& cluster, const std::vector<int>& active)
{
    if (active.empty())
        return -1;
    const size_t n = active.size();
    switch (policy_) {
      case RouterPolicy::RoundRobin:
        return active[rr_cursor_++ % n];

      case RouterPolicy::LeastOutstanding: {
        int best = active[0];
        size_t best_q = cluster.outstanding(best);
        for (size_t i = 1; i < n; ++i) {
            size_t q = cluster.outstanding(active[i]);
            if (q < best_q) {
                best = active[i];
                best_q = q;
            }
        }
        return best;
      }

      case RouterPolicy::PowerOfTwo: {
        // Two *distinct* candidates whenever possible: sampling with
        // replacement would compare a shard against itself with
        // probability 1/n and degenerate toward random routing on
        // small fleets.
        size_t ia = static_cast<size_t>(
            rng_.uniformInt(0, static_cast<int64_t>(n) - 1));
        size_t ib = ia;
        if (n >= 2) {
            ib = static_cast<size_t>(
                rng_.uniformInt(0, static_cast<int64_t>(n) - 2));
            if (ib >= ia)
                ++ib;
        }
        int a = active[ia];
        int b = active[ib];
        size_t qa = cluster.outstanding(a);
        size_t qb = cluster.outstanding(b);
        if (qa != qb)
            return qa < qb ? a : b;
        return std::min(a, b);
      }

      case RouterPolicy::HerculesWeighted:
      case RouterPolicy::LatencyFeedback: {
        // Smooth weighted round-robin: deterministic, and the long-run
        // share of shard i is weight_i / sum(weights). The weights are
        // the static efficiency-tuple QPS (HerculesWeighted) or the
        // per-interval feedback-adjusted weights (LatencyFeedback).
        const bool fb = policy_ == RouterPolicy::LatencyFeedback;
        if (credit_.size() < cluster.numShards())
            credit_.resize(cluster.numShards(), 0.0);
        double total = 0.0;
        int best = active[0];
        for (int id : active) {
            double w = fb ? cluster.feedbackWeight(id)
                          : cluster.weight(id);
            credit_[static_cast<size_t>(id)] += w;
            total += w;
            if (credit_[static_cast<size_t>(id)] >
                credit_[static_cast<size_t>(best)])
                best = id;
        }
        credit_[static_cast<size_t>(best)] -= total;
        return best;
      }
    }
    panic("Router::pick: bad policy %d", static_cast<int>(policy_));
}

// ---- cluster -------------------------------------------------------------

ClusterSim::ClusterSim(Options opt)
    : opt_(std::move(opt)), shard_opt_(opt_.shard_sim)
{
    // The cluster layer owns warmup/measurement windows and needs the
    // per-query completion log.
    shard_opt_.warmup_queries = 0;
    shard_opt_.record_completions = true;
    shard_opt_.saturate = false;
    router_reads_shards_ = opt_.router == RouterPolicy::LeastOutstanding ||
                           opt_.router == RouterPolicy::PowerOfTwo;
    decision_reads_shards_ =
        router_reads_shards_ ||
        opt_.admission.policy != qos::AdmissionPolicy::None;
}

void
ClusterSim::ensureService(int service)
{
    if (service < 0)
        panic("ClusterSim: negative service %d", service);
    while (static_cast<int>(active_by_service_.size()) <= service) {
        uint64_t seed = opt_.router_seed +
                        static_cast<uint64_t>(active_by_service_.size());
        if (opt_.telemetry)
            opt_.telemetry->declareService(
                static_cast<int>(active_by_service_.size()));
        routers_.emplace_back(opt_.router, seed);
        active_by_service_.emplace_back();
        service_state_.emplace_back();
    }
}

void
ClusterSim::declareServices(int count)
{
    if (count > 0)
        ensureService(count - 1);
}

int
ClusterSim::addShard(const PreparedWorkload& w, double weight_qps,
                     int service)
{
    ensureService(service);
    int id = static_cast<int>(shards_.size());
    Shard s;
    s.inst = std::make_unique<ServerInstance>(w, shard_opt_);
    s.inst->setIdentity(id, service);
    if (opt_.telemetry)
        opt_.telemetry->declareShard(id, service);
    s.workload = &w;
    s.weight = weight_qps;
    s.fb_weight = weight_qps;  // feedback starts from the tuple weight
    s.service = service;
    s.admit = qos::AdmissionController(opt_.admission);
    shards_.push_back(std::move(s));
    injected_per_shard_.push_back(0);
    inbox_.emplace_back();
    auto group = std::find_if(
        workload_groups_.begin(), workload_groups_.end(),
        [&](const std::vector<int>& ids) {
            return shards_[static_cast<size_t>(ids[0])].workload == &w;
        });
    if (group == workload_groups_.end())
        workload_groups_.push_back({id});
    else
        group->push_back(id);
    rebuildActive();
    for (Router& r : routers_)
        r.onTopologyChange(shards_.size());
    return id;
}

void
ClusterSim::rebuildActive()
{
    active_.clear();
    for (auto& per_service : active_by_service_)
        per_service.clear();
    for (size_t i = 0; i < shards_.size(); ++i) {
        // A failed shard stays out of every router's candidate set even
        // while the plan still wants it active; the plan intent is kept
        // in Shard::active so recovery restores routability in place.
        if (!shards_[i].active ||
            shards_[i].health == fault::HealthState::Failed)
            continue;
        active_.push_back(static_cast<int>(i));
        active_by_service_[static_cast<size_t>(shards_[i].service)]
            .push_back(static_cast<int>(i));
    }
}

void
ClusterSim::setActive(int shard, bool active, double t_s)
{
    if (shard < 0 || static_cast<size_t>(shard) >= shards_.size())
        panic("ClusterSim::setActive: bad shard %d", shard);
    Shard& s = shards_[static_cast<size_t>(shard)];
    if (s.active == active)
        return;
    s.active = active;
    if (!active)
        s.released_at = t_s;
    rebuildActive();
    for (Router& r : routers_)
        r.onTopologyChange(shards_.size());
}

bool
ClusterSim::isActive(int shard) const
{
    return shards_[static_cast<size_t>(shard)].active;
}

fault::HealthState
ClusterSim::shardHealth(int shard) const
{
    if (shard < 0 || static_cast<size_t>(shard) >= shards_.size())
        panic("ClusterSim::shardHealth: bad shard %d", shard);
    return shards_[static_cast<size_t>(shard)].health;
}

void
ClusterSim::scheduleHealth(std::vector<HealthEvent> events)
{
    for (size_t i = 0; i < events.size(); ++i) {
        const HealthEvent& e = events[i];
        if (e.shard < 0 || static_cast<size_t>(e.shard) >= shards_.size())
            panic("ClusterSim::scheduleHealth: event %zu names bad shard "
                  "%d",
                  i, e.shard);
        if (i > 0 && e.t_s < events[i - 1].t_s)
            panic("ClusterSim::scheduleHealth: events not sorted by time "
                  "(event %zu at %f after %f)",
                  i, e.t_s, events[i - 1].t_s);
    }
    health_events_ = std::move(events);
    health_cursor_ = 0;
}

void
ClusterSim::applyHealthEventsUpTo(double t_s)
{
    while (health_cursor_ < health_events_.size() &&
           health_events_[health_cursor_].t_s <= t_s) {
        const HealthEvent ev = health_events_[health_cursor_++];
        Shard& s = shards_[static_cast<size_t>(ev.shard)];
        const fault::HealthState from = s.health;
        const double slow =
            ev.state == fault::HealthState::Degraded ? ev.slowdown : 1.0;
        if (from == ev.state && slow == s.slowdown)
            continue;  // no-op transition
        // The transition takes effect at its own timestamp: everything
        // that finishes strictly before it retires normally first.
        advanceTo(ev.t_s);
        size_t killed = 0;
        if (ev.state == fault::HealthState::Failed &&
            from != fault::HealthState::Failed) {
            killed = s.inst->killInFlight();
            service_state_[static_cast<size_t>(s.service)]
                .total.failed_inflight += killed;
            s.failed_at = ev.t_s;
            if (opt_.telemetry)
                opt_.telemetry->onCrash(ev.shard, s.inst->completions(),
                                        ev.t_s, killed);
        }
        s.inst->setSlowdown(slow);
        s.slowdown = slow;
        const bool routable_changed =
            (from == fault::HealthState::Failed) !=
            (ev.state == fault::HealthState::Failed);
        s.health = ev.state;
        if (routable_changed) {
            rebuildActive();
            for (Router& r : routers_)
                r.onTopologyChange(shards_.size());
        }
        health_log_.push_back(HealthTransition{
            ev.t_s, ev.shard, s.service, from, ev.state, slow, killed});
    }
}

bool
ClusterSim::drained(int shard) const
{
    const Shard& s = shards_[static_cast<size_t>(shard)];
    return !s.active && s.inst->outstanding() == 0;
}

size_t
ClusterSim::outstanding(int shard) const
{
    return shards_[static_cast<size_t>(shard)].inst->outstanding();
}

double
ClusterSim::weight(int shard) const
{
    return shards_[static_cast<size_t>(shard)].weight;
}

double
ClusterSim::feedbackWeight(int shard) const
{
    return shards_[static_cast<size_t>(shard)].fb_weight;
}

qos::ServiceClass
ClusterSim::serviceClass(int service) const
{
    if (service >= 0 &&
        static_cast<size_t>(service) < opt_.service_class.size())
        return opt_.service_class[static_cast<size_t>(service)];
    return qos::ServiceClass{};
}

int
ClusterSim::shardService(int shard) const
{
    return shards_[static_cast<size_t>(shard)].service;
}

double
ClusterSim::slaMs(int service) const
{
    if (service >= 0 &&
        static_cast<size_t>(service) < opt_.service_sla_ms.size() &&
        opt_.service_sla_ms[static_cast<size_t>(service)] > 0.0)
        return opt_.service_sla_ms[static_cast<size_t>(service)];
    // QoS-class fallback for direct ClusterSim users; serveTraces has
    // already folded its class SLAs into service_sla_ms.
    qos::ServiceClass sc = serviceClass(service);
    if (sc.sla_ms > 0.0)
        return sc.sla_ms;
    return opt_.sla_ms;
}

const std::vector<int>&
ClusterSim::activeShards(int service) const
{
    if (service < 0 || service >= numServices())
        panic("ClusterSim::activeShards: bad service %d", service);
    return active_by_service_[static_cast<size_t>(service)];
}

void
ClusterSim::advanceTo(double t_s)
{
    for (Shard& s : shards_)
        s.inst->advanceTo(t_s);
}

int
ClusterSim::route(const workload::Query& q)
{
    const int s = decide(q);
    if (s >= 0) {
        ServerInstance& inst = *shards_[static_cast<size_t>(s)].inst;
        inst.advanceTo(q.arrival_s);
        inst.inject(q);
    }
    return s;
}

int
ClusterSim::decide(const workload::Query& q)
{
    applyHealthEventsUpTo(q.arrival_s);
    const int svc = q.service_id;
    if (svc < 0 || svc >= numServices())
        panic("ClusterSim::route: query for service %d but shards exist "
              "for %d services",
              svc, numServices());
    // Lazy advance: only the shards the decision reads need the clock
    // (see route()'s contract in the header). A queue-reading router
    // reads every candidate; admission reads a shard only when it
    // checks it.
    const std::vector<int>& candidates =
        active_by_service_[static_cast<size_t>(svc)];
    if (router_reads_shards_)
        for (int id : candidates)
            shards_[static_cast<size_t>(id)].inst->advanceTo(q.arrival_s);
    int s = routers_[static_cast<size_t>(svc)].pick(*this, candidates);
    if (s < 0) {
        ++service_state_[static_cast<size_t>(svc)].total.dropped;
        if (opt_.telemetry)
            opt_.telemetry->onDropped(svc, q.arrival_s);
        return -1;
    }
    // Admission control on the picked shard: a refused query is
    // *rejected* (distinct from dropped) and, like a drop, counts as
    // an SLA violation in every rate. Policy `none` admits everything.
    const double sla = slaMs(svc);
    int retry_hops = 0;
    auto admits = [&](int id) {
        Shard& sh = shards_[static_cast<size_t>(id)];
        if (opt_.admission.policy == qos::AdmissionPolicy::None)
            return true;
        sh.inst->advanceTo(q.arrival_s);
        return sh.admit.admit({sh.inst->outstanding(), sh.weight}, sla);
    };
    if (!admits(s)) {
        // Cross-shard retry: before giving up, re-offer the query to
        // the service's other active shards in ascending order of
        // estimated completion time (ties by shard id) — the reject
        // may be local congestion, not service-wide overload.
        int retry = -1;
        if (opt_.admission.cross_shard_retry) {
            double best_est = 0.0;
            for (int id : candidates) {
                if (id == s || !admits(id))
                    continue;
                const Shard& sh = shards_[static_cast<size_t>(id)];
                double est = qos::AdmissionController::
                    estimatedCompletionMs(sh.inst->outstanding(),
                                          sh.weight);
                if (retry < 0 || est < best_est) {
                    retry = id;
                    best_est = est;
                }
            }
        }
        if (retry < 0) {
            ++service_state_[static_cast<size_t>(svc)].total.rejected;
            if (opt_.telemetry)
                opt_.telemetry->onRejected(svc, q.arrival_s);
            return -2;
        }
        s = retry;
        ++admission_retries_;
        ++retry_hops;
    }
    const int inject_idx = static_cast<int>(
        shards_[static_cast<size_t>(s)].inst->injected() +
        inbox_[static_cast<size_t>(s)].size());
    ++service_state_[static_cast<size_t>(svc)].total.injected;
    ++injected_per_shard_[static_cast<size_t>(s)];
    if (opt_.telemetry)
        opt_.telemetry->onAdmitted(svc, s, retry_hops, inject_idx,
                                   q.arrival_s);
    return s;
}

void
ClusterSim::deliver(util::ThreadPool& pool,
                    const std::vector<workload::Query>& arrivals, double t_s)
{
    // Start the groups with the most pending work first, so the
    // busiest one does not queue behind short ones. The order of the
    // tasks changes no result.
    std::vector<size_t> work(workload_groups_.size(), 0);
    std::vector<size_t> order(workload_groups_.size());
    for (size_t g = 0; g < order.size(); ++g) {
        order[g] = g;
        for (int id : workload_groups_[g])
            work[g] += inbox_[static_cast<size_t>(id)].size() +
                       shards_[static_cast<size_t>(id)].inst->outstanding();
    }
    std::stable_sort(order.begin(), order.end(),
                     [&](size_t a, size_t b) { return work[a] > work[b]; });
    pool.parallelFor(order.size(), [&](size_t task) {
        for (int id : workload_groups_[order[task]]) {
            ServerInstance& inst = *shards_[static_cast<size_t>(id)].inst;
            std::vector<size_t>& inbox = inbox_[static_cast<size_t>(id)];
            for (size_t i : inbox) {
                inst.advanceTo(arrivals[i].arrival_s);
                inst.inject(arrivals[i]);
            }
            inbox.clear();
            inst.advanceTo(t_s);
        }
    });
}

void
ClusterSim::drainAll()
{
    for (Shard& s : shards_)
        s.inst->drain();
}

void
ClusterSim::extractWindow(Shard& s, double t0_s, double t1_s) const
{
    ShardWindow& w = s.window;
    const double sla = slaMs(s.service);
    const auto& done = s.inst->completions();
    double last_finish_in_window = t0_s;
    w.latency_ms.clear();
    w.first = s.harvest_cursor;
    w.late = 0;
    while (s.harvest_cursor < done.size() &&
           done[s.harvest_cursor].finish_s <= t1_s) {
        const auto& c = done[s.harvest_cursor++];
        const double ms = c.latencyMs();
        w.latency_ms.push_back(ms);
        if (ms > sla)
            ++w.late;
        last_finish_in_window = std::max(last_finish_in_window, c.finish_s);
    }
    // Latency feedback reads this window's p99. A window with no
    // completions is ambiguous: a *drained* shard is genuinely dark
    // (p99 <= 0, bounded recovery toward base), but a shard with work
    // still in flight is stalled — the most overloaded shard of all —
    // and must be penalized at the full step, not rewarded with
    // recovery. The selection runs on a copy: the merge sums the
    // latencies in finish order.
    if (opt_.router == RouterPolicy::LatencyFeedback) {
        if (!w.latency_ms.empty()) {
            w.select.assign(w.latency_ms.begin(), w.latency_ms.end());
            w.feedback_p99 = nearestRankPercentile(w.select, 99.0);
        } else if (s.inst->outstanding() > 0) {
            w.feedback_p99 = std::numeric_limits<double>::infinity();
        } else {
            w.feedback_p99 = 0.0;
        }
    }
    // Power: an active shard burns (at least idle) power for the whole
    // window; a released shard only while it still drains; a failed
    // shard only up to the crash instant (an interval where it
    // recovers mid-window is charged in full — re-boot churn).
    double span_end;
    if (s.health == fault::HealthState::Failed)
        span_end = std::clamp(std::max(s.failed_at, last_finish_in_window),
                              t0_s, t1_s);
    else if (s.active)
        span_end = t1_s;
    else if (s.inst->outstanding() > 0)
        span_end = t1_s;
    else
        span_end = std::clamp(
            std::max(s.released_at, last_finish_in_window), t0_s, t1_s);
    w.power_w = 0.0;
    if (span_end > t0_s && t1_s > t0_s)
        w.power_w = s.inst->avgPowerBetween(t0_s, span_end) *
                    (span_end - t0_s) / (t1_s - t0_s);
    // Windows are harvested in order: no later one reads before t0.
    s.inst->releaseBinsBefore(t0_s);
}

IntervalStats
ClusterSim::harvest(double t0_s, double t1_s)
{
    return harvest(t0_s, t1_s, nullptr);
}

IntervalStats
ClusterSim::harvest(double t0_s, double t1_s, util::ThreadPool* pool)
{
    if (pool)
        pool->parallelFor(shards_.size(), [&](size_t i) {
            extractWindow(shards_[i], t0_s, t1_s);
        });
    else
        for (Shard& s : shards_)
            extractWindow(s, t0_s, t1_s);

    IntervalStats st;
    st.t0_s = t0_s;
    st.t1_s = t1_s;
    st.active_shards = static_cast<int>(active_.size());
    const size_t num_services = service_state_.size();

    // Each window latency is stored once, in its service's whole-run
    // buffer, whose newest range is the window.
    for (ServiceState& ss : service_state_)
        ss.latency_ms.startWindow();
    // Queries each service's shards still hold: in flight, or retired
    // after t1_s and not yet harvested.
    std::vector<size_t> held(num_services, 0);
    double consumed = 0.0;
    for (Shard& s : shards_) {
        const int sid = static_cast<int>(&s - shards_.data());
        const ShardWindow& w = s.window;
        ServiceState& ss = service_state_[static_cast<size_t>(s.service)];
        for (double ms : w.latency_ms) {
            ss.latency_ms.add(ms);
            all_latency_sum_ += ms;
        }
        ss.total.completed += w.latency_ms.size();
        ss.total.late += w.late;
        const auto& done = s.inst->completions();
        if (opt_.telemetry) {
            for (size_t i = w.first; i < s.harvest_cursor; ++i) {
                const double ms = done[i].latencyMs();
                const double wait_ms = done[i].queue_wait_s * 1e3;
                opt_.telemetry->observeCompletion(s.service, wait_ms,
                                                  ms - wait_ms, ms);
            }
            opt_.telemetry->drainShardCompletions(sid, done, t1_s);
        }
        // Both cursors have passed the window's completions: let the
        // shard drop them.
        const size_t dropped = s.inst->releaseCompletions(s.harvest_cursor);
        s.harvest_cursor -= dropped;
        if (opt_.telemetry && dropped > 0)
            opt_.telemetry->rebaseShardCompletions(sid, dropped);
        held[static_cast<size_t>(s.service)] +=
            s.inst->outstanding() + done.size() - s.harvest_cursor;
        // Latency feedback: fold this window's observed p99 into the
        // shard's routing weight (multiplicative, bounded by the tuple
        // weight above and the configured floor below). A failed
        // shard's weight is frozen: it is unroutable anyway, and its
        // post-kill empty window must not read as "drained and
        // recovering" — recovery restores routing at the frozen weight
        // and the first real window speaks for itself.
        if (opt_.router == RouterPolicy::LatencyFeedback &&
            s.health != fault::HealthState::Failed)
            s.fb_weight = qos::updateFeedbackWeight(
                s.fb_weight, s.weight, w.feedback_p99, slaMs(s.service),
                opt_.feedback);
        consumed += w.power_w;
    }
    std::vector<CountedSpan> windows;
    for (const ServiceState& ss : service_state_) {
        windows.push_back(ss.latency_ms.window());
        st.max_ms = std::max(st.max_ms, ss.latency_ms.windowMax());
    }
    const std::vector<double> tails = nearestRankPercentiles(windows,
                                                             {50.0, 99.0});
    st.p50_ms = tails[0];
    st.p99_ms = tails[1];
    st.services.resize(num_services);
    Tally cluster;
    for (size_t v = 0; v < num_services; ++v) {
        ServiceState& ss = service_state_[v];
        const Tally& t = ss.total;
        if (t.injected != t.completed + t.failed_inflight + held[v])
            panic("ClusterSim::harvest: window [%f, %f) service %zu "
                  "injected %zu != completed %zu + killed %zu + held %zu",
                  t0_s, t1_s, v, t.injected, t.completed,
                  t.failed_inflight, held[v]);
        const Tally w = t - ss.harvested;
        ss.harvested = t;
        cluster += w;
        ServiceIntervalStats& svc = st.services[v];
        report(w, svc);
        const std::vector<double> svc_tails =
            nearestRankPercentiles({windows[v]}, {50.0, 99.0});
        svc.p50_ms = svc_tails[0];
        svc.p99_ms = svc_tails[1];
        svc.active_shards = static_cast<int>(active_by_service_[v].size());
    }
    report(cluster, st);
    // Offered load includes dropped and rejected arrivals: an outage
    // (or admission-throttled) interval must still show the traffic it
    // shed.
    st.offered_qps =
        t1_s > t0_s
            ? static_cast<double>(st.arrivals + st.dropped +
                                  st.rejected) /
                  (t1_s - t0_s)
            : 0.0;
    st.consumed_power_w = consumed;
    return st;
}

ClusterSimResult
ClusterSim::run(const std::vector<workload::Query>& trace,
                double interval_s, const IntervalPlanFn& plan,
                double horizon_s)
{
    workload::VectorArrivals arrivals(trace);
    return run(arrivals, interval_s, plan, horizon_s);
}

IntervalPlan
ClusterSim::replayInterval(int k, double t0, double t1,
                           const std::vector<workload::Query>& arrivals,
                           const IntervalPlanFn& plan, util::ThreadPool& pool,
                           obs::DesProfile& des)
{
    obs::WallTimer timer;
    // Boundary health transitions apply before the plan: the planner
    // that produced it already saw the surviving capacity.
    applyHealthEventsUpTo(t0);
    IntervalPlan p;
    if (plan) {
        p = plan(k, t0);
        std::vector<char> want(shards_.size(), 0);
        for (int id : p.active) {
            if (id < 0 || static_cast<size_t>(id) >= shards_.size())
                panic("ClusterSim::run: plan names bad shard %d", id);
            want[static_cast<size_t>(id)] = 1;
        }
        for (size_t i = 0; i < shards_.size(); ++i)
            setActive(static_cast<int>(i), want[i] != 0, t0);
    }
    // Cut the window at every health event strictly inside it (one at
    // an exact boundary belongs to the next interval's plan step):
    // decide the arrivals before the cut, deliver them and advance
    // every shard to the cut, then apply the event.
    size_t next = 0;
    for (;;) {
        const bool event = health_cursor_ < health_events_.size() &&
                           health_events_[health_cursor_].t_s < t1;
        const double cut = event ? health_events_[health_cursor_].t_s : t1;
        for (; next < arrivals.size() && arrivals[next].arrival_s < cut;
             ++next) {
            const workload::Query& q = arrivals[next];
            if (decision_reads_shards_)
                route(q);
            else if (const int s = decide(q); s >= 0)
                inbox_[static_cast<size_t>(s)].push_back(next);
        }
        des.route_wall_ms += timer.elapsedMs();
        timer.restart();
        deliver(pool, arrivals, cut);
        des.advance_wall_ms += timer.elapsedMs();
        timer.restart();
        if (!event)
            return p;
        applyHealthEventsUpTo(cut);
    }
}

ClusterSimResult
ClusterSim::run(workload::ArrivalStream& arrivals, double interval_s,
                const IntervalPlanFn& plan, double horizon_s)
{
    if (interval_s <= 0.0)
        fatal("ClusterSim::run: non-positive interval %f", interval_s);

    // Self-profiling wall timers: provenance only (ClusterSimResult::
    // des), never fed back into simulated state.
    obs::WallTimer run_timer;
    ClusterSimResult r;

    // Interval-boundary gauge snapshot (after the plan's provisioned
    // power is known); null telemetry makes this a no-op.
    auto sampleTelemetry = [&](const IntervalStats& st) {
        obs::Telemetry* tel = opt_.telemetry;
        if (!tel)
            return;
        for (size_t i = 0; i < shards_.size(); ++i)
            tel->setShardWindow(static_cast<int>(i),
                                shards_[i].inst->outstanding(),
                                static_cast<int>(shards_[i].health));
        for (size_t v = 0; v < st.services.size(); ++v)
            tel->setServiceWindow(static_cast<int>(v), st.services[v].p50_ms,
                                  st.services[v].p99_ms,
                                  st.services[v].sla_violation_rate);
        tel->setClusterWindow(st.active_shards, st.consumed_power_w,
                              st.provisioned_power_w);
        tel->commitSample(st.t1_s);
    };

    // Live per-query records every shard holds right before a harvest.
    auto shardLiveQueries = [&]() {
        size_t live = 0;
        for (const Shard& s : shards_)
            live += s.inst->retainedQuerySlots() +
                    s.inst->completions().size();
        return live;
    };

    // Two arrival buffers: interval k replays from one while the
    // producer fills the other with interval k + 1. `more` records
    // whether the stream still had arrivals when the pull began: the
    // loop's end-of-stream test.
    struct Buffer
    {
        std::vector<workload::Query> queries;
        bool more = false;
    };
    Buffer buffers[2];
    auto windowEnd = [interval_s](int i) {
        return static_cast<double>(i) * interval_s + interval_s;
    };
    auto produce = [&arrivals](Buffer& b, double t1) {
        b.more = arrivals.peek() != nullptr;
        b.queries.clear();
        for (const workload::Query* q = arrivals.peek();
             q && q->arrival_s < t1; q = arrivals.peek()) {
            b.queries.push_back(*q);
            arrivals.pop();
        }
    };

    // More threads than delivery tasks plus the producer would only
    // be woken to find nothing to do.
    util::ThreadPool pool(
        std::min(util::ThreadPool::hardwareThreads(),
                 static_cast<int>(workload_groups_.size()) + 1));
    obs::WallTimer wait_timer;
    produce(buffers[0], windowEnd(0));
    r.des.arrival_wall_ms += wait_timer.elapsedMs();
    int k = 0;
    for (;; ++k) {
        const double t0 = static_cast<double>(k) * interval_s;
        const double t1 = t0 + interval_s;
        const Buffer& cur = buffers[k % 2];
        Buffer& next = buffers[(k + 1) % 2];
        if (!cur.more && !(t0 < horizon_s - 1e-9))
            break;
        IntervalStats st;
        size_t shard_live = 0;
        double replay_ms = 0.0;
        wait_timer.restart();
        // Task 0, the replay, stays on this thread (and its heap); a
        // worker, or this thread afterwards, runs the producer.
        pool.parallelFor(2, [&](size_t task) {
            if (task == 1) {
                produce(next, windowEnd(k + 1));
                return;
            }
            obs::WallTimer replay_timer;
            const IntervalPlan p =
                replayInterval(k, t0, t1, cur.queries, plan, pool, r.des);
            obs::WallTimer harvest_timer;
            shard_live = shardLiveQueries();
            st = harvest(t0, t1, &pool);
            r.des.harvest_wall_ms += harvest_timer.elapsedMs();
            if (plan) {
                st.provisioned_power_w = p.provisioned_power_w;
                st.budget_power_w = p.budget_power_w;
                st.power_capped = p.power_capped;
            }
            replay_ms = replay_timer.elapsedMs();
        });
        // What the replay waited on the producer beyond its own work.
        r.des.arrival_wall_ms +=
            std::max(0.0, wait_timer.elapsedMs() - replay_ms);
        r.des.peak_live_queries =
            std::max(r.des.peak_live_queries,
                     shard_live + cur.queries.size() + next.queries.size());
        sampleTelemetry(st);
        r.intervals.push_back(st);
    }

    // Tail: retire whatever is still in flight past the last interval.
    const size_t planned_intervals = r.intervals.size();
    obs::WallTimer tail_timer;
    // Advancing to +inf runs every queue dry: drainAll() on the pool.
    deliver(pool, {}, std::numeric_limits<double>::infinity());
    r.des.advance_wall_ms += tail_timer.elapsedMs();
    double tail_start = static_cast<double>(k) * interval_s;
    double tail_end = tail_start;
    for (const Shard& s : shards_)
        tail_end = std::max(tail_end, s.inst->now());
    if (tail_end > tail_start) {
        tail_timer.restart();
        r.des.peak_live_queries =
            std::max(r.des.peak_live_queries, shardLiveQueries());
        IntervalStats tail = harvest(tail_start, tail_end, &pool);
        r.des.harvest_wall_ms += tail_timer.elapsedMs();
        if (tail.completions > 0 || tail.arrivals > 0) {
            sampleTelemetry(tail);
            r.intervals.push_back(tail);
        }
    }

    // Every cluster count is the sum of the service tallies.
    Tally total;
    std::vector<CountedSpan> all;
    r.services.resize(service_state_.size());
    for (size_t v = 0; v < service_state_.size(); ++v) {
        const ServiceState& ss = service_state_[v];
        ServiceRunStats& out = r.services[v];
        report(ss.total, out);
        all.push_back(ss.latency_ms.all());
        const std::vector<double> tails =
            nearestRankPercentiles({all.back()}, {50.0, 99.0});
        out.p50_ms = tails[0];
        out.p99_ms = tails[1];
        out.max_ms = ss.latency_ms.max();
        out.sla_ms = slaMs(static_cast<int>(v));
        total += ss.total;
        r.max_ms = std::max(r.max_ms, out.max_ms);
    }
    report(total, r);
    r.admission_retries = admission_retries_;
    const std::vector<double> tails =
        nearestRankPercentiles(all, {50.0, 95.0, 99.0});
    r.mean_ms = r.completed > 0
                    ? all_latency_sum_ / static_cast<double>(r.completed)
                    : 0.0;
    r.p50_ms = tails[0];
    r.p95_ms = tails[1];
    r.p99_ms = tails[2];
    // Power aggregates skip the drain-tail pseudo-interval: it never
    // went through the plan (provisioned power 0) and its span differs
    // from interval_s, so averaging it in would bias the trajectory.
    OnlineStats consumed, provisioned;
    for (size_t i = 0; i < planned_intervals; ++i) {
        consumed.add(r.intervals[i].consumed_power_w);
        provisioned.add(r.intervals[i].provisioned_power_w);
    }
    r.avg_consumed_power_w = consumed.mean();
    r.peak_consumed_power_w = consumed.count() ? consumed.max() : 0.0;
    r.avg_provisioned_power_w = provisioned.mean();
    r.peak_provisioned_power_w =
        provisioned.count() ? provisioned.max() : 0.0;
    r.health_transitions = health_log_;

    // DES self-profile: event counts are deterministic; wall timings
    // and events/sec are provenance.
    for (const Shard& s : shards_) {
        r.des.events_executed += s.inst->eventsExecuted();
        r.des.peak_event_queue_depth = std::max(
            r.des.peak_event_queue_depth, s.inst->peakEventQueueDepth());
    }
    r.des.run_wall_ms = run_timer.elapsedMs() - r.des.arrival_wall_ms;
    r.des.events_per_sec =
        r.des.run_wall_ms > 0.0
            ? static_cast<double>(r.des.events_executed) /
                  (r.des.run_wall_ms * 1e-3)
            : 0.0;
    return r;
}

}  // namespace hercules::sim
