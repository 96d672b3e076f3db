#include "cluster/serving.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "cluster/cluster_manager.h"
#include "sim/prepared.h"
#include "util/logging.h"

namespace hercules::cluster {

namespace {

/**
 * The next shedding victim among the still-active (type, service)
 * pairs in `counts`: the pair of the lowest-priority service (with
 * `priorities` empty, all services tie), and within that priority the
 * least energy-efficient (QPS/W) pair — optionally restricted to one
 * server type. Exact QPS/W ties keep the first pair in (h, m) scan
 * order, so the victim is deterministic. A zero-power pair reclaims
 * nothing when shed: it is treated as infinitely efficient, never the
 * victim. Returns {-1, -1} when nothing is active.
 */
std::pair<int, int>
worstActivePair(const ProvisionProblem& problem,
                const std::vector<std::vector<int>>& counts,
                int only_h = -1,
                const std::vector<int>& priorities = {})
{
    auto priorityOf = [&](int m) {
        return static_cast<size_t>(m) < priorities.size()
                   ? priorities[static_cast<size_t>(m)]
                   : 0;
    };
    int worst_h = -1, worst_m = -1;
    double worst_qpw = 0.0;
    bool worst_zero = true;
    for (int h = 0; h < problem.numServers(); ++h) {
        if (only_h >= 0 && h != only_h)
            continue;
        for (int m = 0; m < problem.numModels(); ++m) {
            if (counts[static_cast<size_t>(h)]
                      [static_cast<size_t>(m)] <= 0)
                continue;
            const PairPerf& perf = problem.perf(h, m);
            bool zero = perf.power_w <= 0.0;
            double qpw = zero
                             ? std::numeric_limits<double>::infinity()
                             : perf.qps / perf.power_w;
            // Victim order: any power-reclaiming pair before every
            // zero-power one (shedding the latter frees nothing, no
            // matter how low its priority); then priority ascending;
            // then QPS/W within the priority level.
            bool better;
            if (worst_h < 0)
                better = true;
            else if (zero != worst_zero)
                better = worst_zero;
            else
                better = priorityOf(m) < priorityOf(worst_m) ||
                         (priorityOf(m) == priorityOf(worst_m) &&
                          qpw < worst_qpw);
            if (better) {
                worst_h = h;
                worst_m = m;
                worst_qpw = qpw;
                worst_zero = zero;
            }
        }
    }
    return {worst_h, worst_m};
}

}  // namespace

double
powerCapAt(const std::vector<PowerCapPoint>& schedule, double cap_w,
           double t_hours)
{
    double cap = cap_w;
    for (const PowerCapPoint& p : schedule) {
        if (p.from_hour > t_hours)
            break;
        cap = std::min(cap_w, p.cap_w);
    }
    return cap;
}

bool
shedToPowerCap(const ProvisionProblem& problem,
               std::vector<std::vector<int>>& counts, double cap_w,
               double* power_w, const std::vector<int>& priorities)
{
    double power = 0.0;
    for (int h = 0; h < problem.numServers(); ++h)
        for (int m = 0; m < problem.numModels(); ++m)
            power += counts[static_cast<size_t>(h)]
                           [static_cast<size_t>(m)] *
                     problem.perf(h, m).power_w;

    bool shed = false;
    // Shed the lowest-priority service first, and within a priority
    // the least energy-efficient (type, service) pair: it contributes
    // the fewest queries per watt reclaimed.
    while (power > cap_w) {
        auto [worst_h, worst_m] =
            worstActivePair(problem, counts, -1, priorities);
        if (worst_h < 0)
            break;
        --counts[static_cast<size_t>(worst_h)]
                [static_cast<size_t>(worst_m)];
        power -= problem.perf(worst_h, worst_m).power_w;
        shed = true;
    }
    if (shed) {
        // Re-sum from the final counts: the repeated subtraction above
        // leaves floating-point residue (an empty matrix must report
        // exactly 0 W, not -0.000).
        power = 0.0;
        for (int h = 0; h < problem.numServers(); ++h)
            for (int m = 0; m < problem.numModels(); ++m)
                power += counts[static_cast<size_t>(h)]
                               [static_cast<size_t>(m)] *
                         problem.perf(h, m).power_w;
    }
    if (power_w != nullptr)
        *power_w = power;
    return shed;
}

MultiServeResult
serveTraces(const core::EfficiencyTable& table,
            const std::vector<hw::ServerType>& fleet,
            const std::vector<int>& shard_slots,
            const std::vector<ServiceSpec>& services, Provisioner& policy,
            const TraceServeOptions& opt)
{
    if (fleet.size() != shard_slots.size())
        fatal("serveTraces: %zu fleet types but %zu slot counts",
              fleet.size(), shard_slots.size());
    if (services.empty())
        fatal("serveTraces: no services");
    if (opt.horizon_hours <= 0.0 || opt.interval_hours <= 0.0)
        fatal("serveTraces: non-positive horizon/interval");
    for (size_t i = 0; i < opt.power_cap_schedule.size(); ++i) {
        const PowerCapPoint& pt = opt.power_cap_schedule[i];
        if (!std::isfinite(pt.from_hour) || pt.from_hour < 0.0)
            fatal("serveTraces: power_cap_schedule point %zu has "
                  "non-finite or negative from_hour %f",
                  i, pt.from_hour);
        if (!std::isfinite(pt.cap_w) || pt.cap_w < 0.0)
            fatal("serveTraces: power_cap_schedule point %zu has "
                  "non-finite or negative cap_w %f",
                  i, pt.cap_w);
        if (i > 0 &&
            pt.from_hour < opt.power_cap_schedule[i - 1].from_hour)
            fatal("serveTraces: power_cap_schedule not sorted by "
                  "from_hour (point %zu)",
                  i);
    }

    const size_t S = services.size();
    // Shard instances keep pointers into these: both vectors are sized
    // up front and must not reallocate once shards exist.
    std::vector<model::Model> models;
    models.reserve(S);
    std::vector<model::ModelId> model_ids;
    for (const ServiceSpec& spec : services) {
        models.push_back(model::buildModel(spec.model));
        model_ids.push_back(spec.model);
    }

    MultiServeResult out;
    out.service_capacity_qps.assign(S, 0.0);
    out.service_sla_ms.reserve(S);

    sim::ClusterSim::Options copt;
    copt.router = opt.router;
    copt.router_seed = opt.router_seed;
    copt.sla_ms = opt.sla_ms;
    copt.admission = opt.admission;
    copt.feedback = opt.feedback;
    copt.telemetry = opt.telemetry;
    // SLA resolution: QoS-class override, then the spec, then the
    // model-zoo default.
    for (size_t s = 0; s < S; ++s) {
        double sla = services[s].qos.sla_ms > 0.0 ? services[s].qos.sla_ms
                     : services[s].sla_ms > 0.0  ? services[s].sla_ms
                                                 : models[s].sla_ms;
        copt.service_sla_ms.push_back(sla);
        copt.service_class.push_back(services[s].qos);
    }
    out.service_sla_ms = copt.service_sla_ms;
    sim::ClusterSim cluster(copt);
    // A service with no feasible (type, slots) pair still exists: its
    // queries drop (and count as SLA violations) instead of erroring.
    cluster.declareServices(static_cast<int>(S));

    // ---- build the shard fleet ----------------------------------------
    // One prepared placement per feasible (type, service) pair (the
    // tuple's optimal config), shared by that pair's shards; every
    // physical slot of a type gets one shard *per service* — its
    // per-service personalities — and the provisioner's availability
    // constraint keeps the active ones within the physical count.
    std::vector<sim::PreparedWorkload> prepared;
    prepared.reserve(fleet.size() * S);
    std::vector<std::vector<std::vector<int>>> shards_by(
        fleet.size(), std::vector<std::vector<int>>(S));

    for (size_t h = 0; h < fleet.size(); ++h) {
        if (shard_slots[h] <= 0)
            continue;
        for (size_t s = 0; s < S; ++s) {
            const core::EfficiencyEntry* e =
                table.get(fleet[h], services[s].model);
            if (e == nullptr || !e->feasible)
                continue;
            prepared.push_back(sim::prepare(hw::serverSpec(fleet[h]),
                                            models[s], e->config));
            const sim::PreparedWorkload& w = prepared.back();
            for (int i = 0; i < shard_slots[h]; ++i) {
                int id = cluster.addShard(w, e->qps,
                                          static_cast<int>(s));
                shards_by[h][s].push_back(id);
                out.service_capacity_qps[s] += e->qps;
                ++out.shard_slots;
            }
        }
    }

    ProvisionProblem problem = ProvisionProblem::fromTable(
        table, fleet, model_ids, shard_slots);

    // ---- load curves, over-provision rate, merged arrival trace -------
    std::vector<workload::DiurnalLoad> loads;
    std::vector<workload::ServiceTraceSpec> trace_specs;
    for (const ServiceSpec& spec : services) {
        loads.emplace_back(spec.load);
        workload::ServiceTraceSpec ts;
        ts.load = spec.load;
        ts.sizes = spec.sizes;
        ts.pooling = spec.pooling;
        trace_specs.push_back(ts);
    }
    double r = opt.overprovision_rate;
    for (size_t s = 0; s < S; ++s)
        out.service_r.push_back(estimateOverprovisionRate(
            loads[s], opt.interval_hours, opt.horizon_hours));
    if (r < 0.0)
        r = *std::max_element(out.service_r.begin(),
                              out.service_r.end());
    out.estimated_r = r;

    // The merged trace is generated lazily: ClusterSim::run pulls one
    // interval's arrivals at a time.
    workload::TraceOptions topt = opt.trace;
    topt.horizon_hours = opt.horizon_hours;
    workload::MergedArrivals arrivals =
        workload::multiServiceArrivals(trace_specs, topt);

    const double interval_s =
        opt.interval_hours * 3600.0 / topt.time_compression;
    const double horizon_s =
        opt.horizon_hours * 3600.0 / topt.time_compression;

    // ---- fault schedule -------------------------------------------------
    // Expand the spec against the physical fleet, then fan each
    // physical event out to every service personality hosted by that
    // (type, slot) server. The same timeline drives a health cursor the
    // *planner* reads: at each boundary it provisions over surviving
    // capacity only, which is what makes the loop self-heal.
    const fault::FaultSchedule fault_sched(opt.faults, shard_slots,
                                           opt.horizon_hours);
    std::vector<sim::HealthEvent> health_events;
    for (const fault::FaultEvent& e : fault_sched.events()) {
        const double t_s = e.t_hours * 3600.0 / topt.time_compression;
        for (size_t s = 0; s < S; ++s) {
            const auto& ids =
                shards_by[static_cast<size_t>(e.fleet_index)][s];
            if (static_cast<size_t>(e.slot) < ids.size())
                health_events.push_back(sim::HealthEvent{
                    t_s, ids[static_cast<size_t>(e.slot)], e.state,
                    e.slowdown});
        }
    }
    cluster.scheduleHealth(std::move(health_events));
    // Physical health per (type, slot), advanced inside plan().
    std::vector<std::vector<fault::HealthState>> phys(fleet.size());
    for (size_t h = 0; h < fleet.size(); ++h)
        phys[h].assign(static_cast<size_t>(std::max(shard_slots[h], 0)),
                       fault::HealthState::Healthy);
    size_t fault_cursor = 0;

    // ---- per-interval joint provisioning plan --------------------------
    // Per-service shedding priorities (QoS classes) and, for
    // throughput-tier services, the horizon-mean forecast demand they
    // are provisioned to instead of the instantaneous curve.
    std::vector<int> priorities;
    bool any_priority = false;
    for (const ServiceSpec& spec : services) {
        priorities.push_back(spec.qos.priority);
        any_priority = any_priority || spec.qos.priority != 0;
    }
    if (!any_priority)
        priorities.clear();  // pure-QPS/W shedding, the pre-QoS order
    std::vector<double> mean_forecast(S, 0.0);
    for (size_t s = 0; s < S; ++s) {
        OnlineStats acc;
        for (double t = 0.0; t < opt.horizon_hours;
             t += opt.interval_hours)
            acc.add(loads[s].forecastAt(t));
        mean_forecast[s] = acc.mean();
    }

    std::vector<int> prev_active;
    bool first_interval = true;
    auto plan = [&](int k, double) -> sim::IntervalPlan {
        double t_hours = static_cast<double>(k) * opt.interval_hours;
        // Advance the physical health cursor to this boundary. The
        // simulator applies the same events (<= t0) before this plan
        // runs, so planner and fleet agree on who is alive.
        while (fault_cursor < fault_sched.events().size() &&
               fault_sched.events()[fault_cursor].t_hours <= t_hours) {
            const fault::FaultEvent& e =
                fault_sched.events()[fault_cursor++];
            phys[static_cast<size_t>(e.fleet_index)]
                [static_cast<size_t>(e.slot)] = e.state;
        }
        // Surviving per-type availability: failed servers are invisible
        // to the provisioner, so it re-provisions replacements from the
        // slots (of any type) still alive — the self-healing step. A
        // *degraded* server still counts as capacity: stragglers are
        // the feedback router's problem, not the planner's.
        std::vector<int> surviving(fleet.size(), 0);
        bool any_failed = false;
        for (size_t h = 0; h < fleet.size(); ++h) {
            for (fault::HealthState hs : phys[h])
                if (hs != fault::HealthState::Failed)
                    ++surviving[h];
            any_failed =
                any_failed ||
                surviving[h] != static_cast<int>(phys[h].size());
        }
        std::optional<ProvisionProblem> degraded_problem;
        if (any_failed) {
            degraded_problem.emplace(fleet, surviving, model_ids);
            for (int h = 0; h < problem.numServers(); ++h)
                for (int m = 0; m < problem.numModels(); ++m)
                    degraded_problem->setPerf(h, m, problem.perf(h, m));
        }
        const ProvisionProblem& prob =
            degraded_problem ? *degraded_problem : problem;
        std::vector<double> interval_loads;
        for (size_t s = 0; s < S; ++s) {
            // The provisioner plans on the *forecast* curve (an
            // unforecast surge window is invisible to it). Throughput-
            // tier services are deadline-relaxed: provisioned to the
            // horizon-mean demand with the ramp headroom cancelled —
            // their peak backlog rides through the adjacent troughs —
            // while latency-tier services keep the full (1 + R)
            // headroom on the instantaneous forecast.
            double fl = services[s].qos.tier == qos::Tier::Throughput
                            ? mean_forecast[s] / (1.0 + r)
                            : loads[s].forecastAt(t_hours);
            interval_loads.push_back(fl);
        }
        Allocation alloc = policy.provision(prob, interval_loads, r);

        sim::IntervalPlan p;
        // Healthy personality count per (type, service): the slots of
        // the type that are not failed and host that personality.
        auto healthyCount = [&](size_t h, size_t s) {
            int n = 0;
            for (size_t i = 0; i < shards_by[h][s].size(); ++i)
                if (phys[h][i] != fault::HealthState::Failed)
                    ++n;
            return n;
        };
        std::vector<std::vector<int>> counts(
            fleet.size(), std::vector<int>(S, 0));
        for (size_t h = 0; h < fleet.size(); ++h)
            for (size_t s = 0; s < S; ++s)
                counts[h][s] =
                    std::min(alloc.n[h][s], healthyCount(h, s));
        // Enforce the physical per-type availability: Provisioner is
        // an open interface, so an over-allocating policy must not
        // activate more shard personalities than (surviving) physical
        // servers. Trim the least energy-efficient pair of the type
        // first.
        for (size_t h = 0; h < fleet.size(); ++h) {
            int total = 0;
            for (size_t s = 0; s < S; ++s)
                total += counts[h][s];
            while (total > surviving[h]) {
                auto [worst_h, worst_m] = worstActivePair(
                    prob, counts, static_cast<int>(h), priorities);
                if (worst_h < 0)
                    break;
                --counts[h][static_cast<size_t>(worst_m)];
                --total;
            }
        }
        // Enforce the global power cap across all services: lowest
        // priority shed first, then least QPS/W. The cap may step over
        // the horizon (power_cap_schedule, e.g. an evening brownout).
        // Replacement shards activated after a crash live under the
        // same cap as everything else — self-healing cannot overdraw.
        const double cap_w = powerCapAt(opt.power_cap_schedule,
                                        opt.power_cap_w, t_hours);
        double power = 0.0;
        p.power_capped =
            shedToPowerCap(prob, counts, cap_w, &power, priorities);
        // Activate the first counts[h][s] *healthy* slots; with no
        // faults this is slots 0..counts-1, the pre-fault order.
        for (size_t h = 0; h < fleet.size(); ++h)
            for (size_t s = 0; s < S; ++s) {
                int need = counts[h][s];
                for (size_t i = 0;
                     i < shards_by[h][s].size() && need > 0; ++i) {
                    if (phys[h][i] == fault::HealthState::Failed)
                        continue;
                    p.active.push_back(shards_by[h][s][i]);
                    --need;
                }
            }
        p.provisioned_power_w = power;
        p.budget_power_w = std::isfinite(cap_w) ? cap_w : power;

        if (!first_interval && p.active != prev_active)
            ++out.reprovisions;
        first_interval = false;
        prev_active = p.active;
        return p;
    };

    out.sim = cluster.run(arrivals, interval_s, plan, horizon_s);
    out.trace_queries = arrivals.emitted();
    return out;
}

}  // namespace hercules::cluster
