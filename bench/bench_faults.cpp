/**
 * @file
 * Fault recovery: the shard_crash_recovery scenario (both T3 servers
 * and the T7 crash at hour 8.25 — mid-interval, at the high-priority
 * service's peak — killing their in-flight queries; the T7 is
 * repaired at hour 9, the T3s at 10.25) replayed three ways:
 *
 *  - HEALTHY:  the same spec with the faults stripped — the reference
 *    trajectory the recovered system is measured against;
 *  - SELFHEAL: the shipped spec — deadline admission, priority
 *    shedding, latency-feedback routing, and the self-healing serving
 *    loop (each interval the provisioner sees only surviving capacity
 *    and activates replacement T3/T7 slots under the power budget);
 *  - STATIC:   the same faults ridden out the traditional way — a
 *    static tuple-weighted router and a fleet over-provisioned by an
 *    extra 50 points of R at all times, no feedback.
 *
 * The gate: after the crash, SELFHEAL's high-priority service must
 * return to the HEALTHY arm's per-interval violation rate (plus a
 * small tolerance) within kRecoveryIntervals re-provisioning
 * intervals, at a lower average provisioned power than STATIC. Killed
 * in-flight queries count as SLA violations in every arm, so the
 * crash itself is never free — the win must come from how fast the
 * serving loop rebuilds capacity, not from accounting.
 *
 * All three arms replay bitwise-identical merged traces (same specs
 * and seeds; faults only change shard health). Results land in
 * BENCH_faults.json.
 *
 * Fast mode (HERCULES_BENCH_FAST=1): 12h horizon, 960x compression,
 * reduced profiling probes.
 */
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "cluster/cluster_manager.h"
#include "scenario/scenario.h"
#include "util/table.h"

using namespace hercules;

namespace {

/** Intervals the self-healing loop gets to win back the SLA. */
constexpr int kRecoveryIntervals = 4;
/** Violation-rate slack over the healthy arm that counts as healed. */
constexpr double kRecoveryTol = 0.02;
/** Extra over-provision rate the STATIC arm burns at all times. */
constexpr double kStaticExtraR = 0.5;

void
printArm(const char* name, const scenario::ScenarioResult& arm,
         const std::vector<model::ModelId>& models)
{
    const sim::ClusterSimResult& r = arm.serve.sim;
    std::printf("%s:\n", name);
    TablePrinter t({"Service", "Completed", "Rejected", "Dropped",
                    "Killed", "p99 (ms)", "Viol rate"});
    for (size_t s = 0; s < r.services.size(); ++s) {
        const sim::ServiceRunStats& svc = r.services[s];
        t.addRow({model::modelName(models[s]),
                  std::to_string(svc.completed),
                  std::to_string(svc.rejected),
                  std::to_string(svc.dropped),
                  std::to_string(svc.failed_inflight),
                  fmtDouble(svc.p99_ms, 2),
                  fmtPercent(svc.sla_violation_rate, 2)});
    }
    t.print();
    std::printf("  avg power %.3f kW provisioned / %.3f kW consumed, "
                "violation rate %.2f%%, %zu killed in-flight, %zu "
                "health transitions, wall %.0f ms\n\n",
                r.avg_provisioned_power_w / 1e3,
                r.avg_consumed_power_w / 1e3,
                r.sla_violation_rate * 100.0, r.failed_inflight,
                r.health_transitions.size(), arm.serve_wall_ms);
}

/**
 * Intervals (from the crash interval on) until the arm's service is
 * back at the healthy arm's per-interval violation rate + tolerance.
 * @return -1 when it never recovers inside the horizon.
 */
int
recoveryIntervals(const sim::ClusterSimResult& arm,
                  const sim::ClusterSimResult& healthy, size_t svc,
                  size_t crash_iv)
{
    for (size_t i = crash_iv; i < arm.intervals.size(); ++i) {
        double ref =
            healthy.intervals[i].services[svc].sla_violation_rate;
        if (arm.intervals[i].services[svc].sla_violation_rate <=
            ref + kRecoveryTol)
            return static_cast<int>(i - crash_iv);
    }
    return -1;
}

/** Fast-mode deltas, identical per arm: shorter day, fewer probes. */
void
applyFastDeltas(scenario::ScenarioSpec& spec)
{
    spec.serve.horizon_hours = 12.0;
    spec.serve.trace.time_compression = 960.0;
    spec.profile.table_cache =
        "hercules_efficiency_multiservice_fast.csv";
    spec.profile.num_queries = 250;
    spec.profile.warmup_queries = 50;
    spec.profile.bisect_iters = 4;
}

}  // namespace

int
main()
{
    bench::banner("Fault recovery",
                  "Shard crashes vs the self-healing serving loop vs "
                  "static over-provisioning");

    scenario::ScenarioSpec selfheal_spec =
        bench::loadScenario("shard_crash_recovery.scn");
    if (bench::fastMode())
        applyFastDeltas(selfheal_spec);

    scenario::ScenarioSpec healthy_spec = selfheal_spec;
    healthy_spec.serve.faults = fault::FaultSpec{};

    scenario::ScenarioSpec static_spec = selfheal_spec;
    static_spec.serve.router = sim::RouterPolicy::HerculesWeighted;

    core::EfficiencyTable table =
        scenario::profileTable(selfheal_spec);
    for (scenario::ScenarioSpec* spec :
         {&selfheal_spec, &healthy_spec, &static_spec})
        scenario::resolvePeaks(*spec, table);

    const size_t S = selfheal_spec.services.size();
    std::vector<model::ModelId> model_ids;
    for (const scenario::ServiceScenario& s : selfheal_spec.services)
        model_ids.push_back(s.spec.model);
    for (size_t s = 0; s < S; ++s) {
        if (selfheal_spec.services[s].spec.load.peak_qps <= 0.0) {
            std::printf("%s infeasible on this fleet — abort\n",
                        model::modelName(model_ids[s]));
            return 1;
        }
    }

    // Shared over-provision rate (forecast ramp + tail headroom, as
    // in bench_qos); the STATIC arm burns an extra kStaticExtraR on
    // top at every interval — crash or no crash.
    const double kTailHeadroom = 0.15;
    double r_est = 0.0;
    for (size_t s = 0; s < S; ++s)
        r_est = std::max(
            r_est, cluster::estimateOverprovisionRate(
                       workload::DiurnalLoad(
                           selfheal_spec.services[s].spec.load),
                       selfheal_spec.serve.interval_hours,
                       selfheal_spec.serve.horizon_hours));
    const double r_shared = r_est + kTailHeadroom;
    selfheal_spec.serve.overprovision_rate = r_shared;
    healthy_spec.serve.overprovision_rate = r_shared;
    static_spec.serve.overprovision_rate = r_shared + kStaticExtraR;

    // The crash instant drives the recovery clock.
    double crash_hour = -1.0, repair_hour = -1.0;
    for (const fault::FaultEvent& e :
         selfheal_spec.serve.faults.events) {
        if (e.state == fault::HealthState::Failed &&
            (crash_hour < 0.0 || e.t_hours < crash_hour))
            crash_hour = e.t_hours;
        if (e.state == fault::HealthState::Healthy &&
            (repair_hour < 0.0 || e.t_hours < repair_hour))
            repair_hour = e.t_hours;
    }
    const size_t crash_iv = static_cast<size_t>(
        crash_hour / selfheal_spec.serve.interval_hours);

    std::printf("horizon %.0fh, crash at %.1fh (repair %.1fh), R "
                "%.1f%% (static arm %.1f%%), recovery budget %d "
                "intervals\n\n",
                selfheal_spec.serve.horizon_hours, crash_hour,
                repair_hour, r_shared * 100.0,
                (r_shared + kStaticExtraR) * 100.0,
                kRecoveryIntervals);

    const scenario::ScenarioResult healthy_run =
        scenario::run(healthy_spec, &table);
    printArm("healthy", healthy_run, model_ids);
    const scenario::ScenarioResult selfheal_run =
        scenario::run(selfheal_spec, &table);
    printArm("selfheal", selfheal_run, model_ids);
    const scenario::ScenarioResult static_run =
        scenario::run(static_spec, &table);
    printArm("static", static_run, model_ids);
    const sim::ClusterSimResult& healthy = healthy_run.serve.sim;
    const sim::ClusterSimResult& selfheal = selfheal_run.serve.sim;
    const sim::ClusterSimResult& static_op = static_run.serve.sim;

    // The high-priority service's trajectory through the outage.
    {
        TablePrinter t({"Hour", "Healthy viol", "Selfheal viol",
                        "Static viol", "Selfheal kW", "Static kW"});
        const double iv_h = selfheal_spec.serve.interval_hours;
        size_t lo = crash_iv >= 2 ? crash_iv - 2 : 0;
        size_t hi = std::min(selfheal.intervals.size(),
                             crash_iv + 2 * static_cast<size_t>(
                                            kRecoveryIntervals) +
                                 2);
        for (size_t i = lo; i < hi; ++i) {
            t.addRow(
                {fmtDouble(static_cast<double>(i) * iv_h, 1),
                 fmtPercent(healthy.intervals[i]
                                .services[0]
                                .sla_violation_rate,
                            1),
                 fmtPercent(selfheal.intervals[i]
                                .services[0]
                                .sla_violation_rate,
                            1),
                 fmtPercent(static_op.intervals[i]
                                .services[0]
                                .sla_violation_rate,
                            1),
                 fmtDouble(
                     selfheal.intervals[i].provisioned_power_w / 1e3,
                     3),
                 fmtDouble(
                     static_op.intervals[i].provisioned_power_w / 1e3,
                     3)});
        }
        t.print();
        std::printf("\n");
    }

    // ---- the recovery gate --------------------------------------------
    const int rec_selfheal =
        recoveryIntervals(selfheal, healthy, 0, crash_iv);
    const int rec_static =
        recoveryIntervals(static_op, healthy, 0, crash_iv);
    bool recovery_ok =
        rec_selfheal >= 0 && rec_selfheal <= kRecoveryIntervals;
    bool power_ok = selfheal.avg_provisioned_power_w <=
                    static_op.avg_provisioned_power_w + 1e-6;
    bool ok = recovery_ok && power_ok;

    std::printf("self-healing recovery, high-priority %s: %s "
                "(recovered in %d intervals, budget %d; static arm "
                "%d)\n",
                model::modelName(model_ids[0]),
                recovery_ok ? "PASS" : "FAIL", rec_selfheal,
                kRecoveryIntervals, rec_static);
    std::printf("steady-state power, selfheal vs static: %s (%.3f vs "
                "%.3f kW provisioned)\n",
                power_ok ? "PASS" : "FAIL",
                selfheal.avg_provisioned_power_w / 1e3,
                static_op.avg_provisioned_power_w / 1e3);

    // ---- JSON trajectory ----------------------------------------------
    util::JsonWriter w("BENCH_faults.json");
    w.beginObject();
    w.key("git_sha").str(bench::gitSha());
    w.key("generated_at").str(isoUtcTimestamp());
    w.key("scenario").str(selfheal_spec.name);
    w.key("horizon_hours").fixed(selfheal_spec.serve.horizon_hours, 2);
    w.key("interval_hours").fixed(selfheal_spec.serve.interval_hours, 2);
    w.key("time_compression")
        .fixed(selfheal_spec.serve.trace.time_compression, 0);
    w.key("crash_hour").fixed(crash_hour, 2);
    w.key("repair_hour").fixed(repair_hour, 2);
    w.key("overprovision_rate").fixed(r_shared, 4);
    w.key("static_overprovision_rate").fixed(r_shared + kStaticExtraR, 4);
    w.key("recovery_budget_intervals").integer(kRecoveryIntervals);
    w.key("recovery_intervals_selfheal").integer(rec_selfheal);
    w.key("recovery_intervals_static").integer(rec_static);
    w.key("recovery_ok").boolean(recovery_ok);
    w.key("power_ok").boolean(power_ok);
    w.key("selfheal_beats_static").boolean(ok);
    auto arm = [&](const char* name, const scenario::ScenarioResult& r) {
        w.key(name).beginObject();
        bench::writeArmSummary(w, r.serve.sim, model_ids);
        w.key("health_transitions")
            .integer(r.serve.sim.health_transitions.size());
        w.key("wall_ms").fixed(r.serve_wall_ms, 1);
        w.endObject();
    };
    arm("healthy", healthy_run);
    arm("selfheal", selfheal_run);
    arm("static", static_run);
    w.endObject();
    bench::closeJson(w, "BENCH_faults.json");

    return ok ? 0 : 1;
}
