/**
 * @file
 * QoS under overload: a 3-service co-serving replay with a deliberate
 * 1.5x over-peak flash-crowd window (unforecast surge) and an
 * aggressive global power cap. The three arms are the shipped
 * scenario specs — this bench only computes the power cap (a function
 * of the profiled table) and applies it as a delta:
 *
 *  - BASELINE: scenarios/flash_crowd_surge.scn — the pre-QoS stack:
 *    unbounded queues (admission none), priority-blind QPS/W power-cap
 *    shedding, every service provisioned to its instantaneous
 *    forecast;
 *  - QOS:      scenarios/priority_tiered_qos.scn — deadline admission
 *    control (with cross-shard retry), priority-ordered shedding (the
 *    high-priority service keeps capacity longest), and the
 *    throughput-tier low-priority service provisioned to mean demand;
 *  - QOS+FB:   scenarios/feedback_router.scn — the QoS arm with the
 *    latency-feedback router instead of the static tuple-weighted one.
 *
 * The gate: with QoS enabled, the high-priority service's
 * violation+drop+reject rate must be strictly lower than the no-QoS
 * baseline's at equal-or-lower average provisioned power. Admission
 * control cannot game this — rejected queries count as violations —
 * so the win must come from capped queues (served queries stay
 * in-SLA), shed order (the high-priority service keeps its shards),
 * and mean-provisioning the deadline-relaxed service.
 *
 * All three scenarios replay bitwise-identical merged traces (same
 * specs, seeds and surge). Results land in BENCH_qos.json.
 *
 * Fast mode (HERCULES_BENCH_FAST=1): 2 services on T2+T3, 18h horizon.
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "cluster/cluster_manager.h"
#include "scenario/scenario.h"
#include "util/table.h"

using namespace hercules;

namespace {

void
printArm(const char* name, const scenario::ScenarioResult& arm,
         const std::vector<model::ModelId>& models)
{
    const sim::ClusterSimResult& r = arm.serve.sim;
    std::printf("%s:\n", name);
    TablePrinter t({"Service", "Completed", "Rejected", "Dropped",
                    "p99 (ms)", "SLA (ms)", "Viol rate"});
    for (size_t s = 0; s < r.services.size(); ++s) {
        const sim::ServiceRunStats& svc = r.services[s];
        t.addRow({model::modelName(models[s]),
                  std::to_string(svc.completed),
                  std::to_string(svc.rejected),
                  std::to_string(svc.dropped),
                  fmtDouble(svc.p99_ms, 2), fmtDouble(svc.sla_ms, 0),
                  fmtPercent(svc.sla_violation_rate, 2)});
    }
    t.print();
    std::printf("  avg power %.3f kW provisioned / %.3f kW consumed, "
                "violation rate %.2f%%, p99 %.2f ms, retries %zu, "
                "wall %.0f ms\n\n",
                r.avg_provisioned_power_w / 1e3,
                r.avg_consumed_power_w / 1e3,
                r.sla_violation_rate * 100.0, r.p99_ms,
                r.admission_retries, arm.serve_wall_ms);
}

/**
 * Fast-mode deltas, applied identically to every arm so the three
 * scenarios keep replaying the same merged trace: 2 services on a
 * 5-slot T2+T3 fleet, 18h horizon (the throughput tier's
 * mean-provisioning only saves power when the horizon contains the
 * diurnal troughs), surge at 1.5h. The arm's router/admission settings
 * — the deltas between the shipped files — are preserved.
 */
void
applyFastDeltas(scenario::ScenarioSpec& spec, bool qos_on)
{
    spec.fleet = {{hw::ServerType::T2, 3}, {hw::ServerType::T3, 2}};
    const std::vector<model::ModelId> ids = {model::ModelId::DlrmRmc2,
                                             model::ModelId::DlrmRmc1};
    spec.services.clear();
    for (size_t s = 0; s < ids.size(); ++s) {
        scenario::ServiceScenario svc;
        svc.spec.model = ids[s];
        svc.peak_qps_frac = 0.25;
        svc.spec.load.trough_frac = 0.35;
        svc.spec.load.peak_hour = 2.0 + 8.0 * static_cast<double>(s);
        svc.spec.load.seed = 5 + s;
        svc.spec.load.surge_hour = 1.5;
        svc.spec.load.surge_hours = 2.0;
        svc.spec.load.surge_factor = 1.5;
        if (qos_on) {
            svc.spec.qos.priority =
                static_cast<int>(ids.size() - 1 - s);
            svc.spec.qos.tier = s + 1 == ids.size()
                                    ? qos::Tier::Throughput
                                    : qos::Tier::Latency;
        }
        spec.services.push_back(svc);
    }
    spec.serve.horizon_hours = 18.0;
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
    bench::banner("QoS under overload",
                  "Deadline admission + priority shedding + feedback "
                  "routing vs the pre-QoS stack on a surge + power cap");

    const bool fast = bench::fastMode();
    scenario::ScenarioSpec base =
        bench::loadScenario("flash_crowd_surge.scn");
    scenario::ScenarioSpec qos_spec =
        bench::loadScenario("priority_tiered_qos.scn");
    scenario::ScenarioSpec fb_spec =
        bench::loadScenario("feedback_router.scn");
    if (fast) {
        applyFastDeltas(base, false);
        applyFastDeltas(qos_spec, true);
        applyFastDeltas(fb_spec, true);
    }

    core::EfficiencyTable table = scenario::profileTable(base);
    scenario::resolvePeaks(base, table);
    scenario::resolvePeaks(qos_spec, table);
    scenario::resolvePeaks(fb_spec, table);

    const size_t S = base.services.size();
    std::vector<model::ModelId> model_ids;
    std::vector<hw::ServerType> fleet;
    std::vector<int> slots;
    for (const scenario::ServiceScenario& s : base.services)
        model_ids.push_back(s.spec.model);
    for (const scenario::FleetEntry& e : base.fleet) {
        fleet.push_back(e.type);
        slots.push_back(e.shard_slots);
    }
    for (size_t s = 0; s < S; ++s) {
        if (base.services[s].spec.load.peak_qps <= 0.0) {
            std::printf("%s infeasible on this fleet — abort\n",
                        model::modelName(model_ids[s]));
            return 1;
        }
    }

    // Over-provision rate (forecast ramp + tail headroom, as in
    // bench_multiservice) — shared by all arms.
    const double kTailHeadroom = 0.15;
    double r_est = 0.0;
    for (size_t s = 0; s < S; ++s)
        r_est = std::max(
            r_est,
            cluster::estimateOverprovisionRate(
                workload::DiurnalLoad(base.services[s].spec.load),
                base.serve.interval_hours, base.serve.horizon_hours));
    const double r_shared = r_est + kTailHeadroom;

    // The aggressive power cap: sweep the forecast interval grid with
    // the same provisioner, find the hungriest interval's requested
    // power, and set the cap half of that interval's cheapest
    // allocated server *below* it. Whole servers are then shed exactly
    // when the fleet is fullest — which is the surge window, since it
    // rides service 0's peak — without dipping into shed-to-empty
    // territory.
    cluster::ProvisionProblem problem =
        cluster::ProvisionProblem::fromTable(table, fleet, model_ids,
                                             slots);
    cluster::HerculesProvisioner capref;
    std::vector<workload::DiurnalLoad> cap_curves;
    for (size_t s = 0; s < S; ++s)
        cap_curves.emplace_back(base.services[s].spec.load);
    double peak_power = 0.0;
    double cheapest_at_peak =
        std::numeric_limits<double>::infinity();
    for (double t = 0.0; t < base.serve.horizon_hours;
         t += base.serve.interval_hours) {
        std::vector<double> loads_t;
        for (size_t s = 0; s < S; ++s)
            loads_t.push_back(cap_curves[s].forecastAt(t));
        cluster::Allocation alloc =
            capref.provision(problem, loads_t, r_shared);
        double p = alloc.provisionedPowerW(problem);
        if (p > peak_power) {
            peak_power = p;
            cheapest_at_peak =
                std::numeric_limits<double>::infinity();
            for (int h = 0; h < problem.numServers(); ++h)
                for (int m = 0; m < problem.numModels(); ++m)
                    if (alloc.n[static_cast<size_t>(h)]
                               [static_cast<size_t>(m)] > 0)
                        cheapest_at_peak = std::min(
                            cheapest_at_peak,
                            problem.perf(h, m).power_w);
        }
    }
    const double cap_w = peak_power - 0.5 * cheapest_at_peak;

    // The computed knobs are the only non-file deltas, shared by all
    // arms so the comparison isolates the QoS policies themselves.
    for (scenario::ScenarioSpec* spec : {&base, &qos_spec, &fb_spec}) {
        spec->serve.overprovision_rate = r_shared;
        spec->serve.power_cap_w = cap_w;
    }

    const double surge_hour = base.services[0].spec.load.surge_hour;
    const double surge_hours = base.services[0].spec.load.surge_hours;
    std::printf("horizon %.0fh, surge %.1fx in [%.1fh, %.1fh), power "
                "cap %.3f kW, R %.1f%%\n\n",
                base.serve.horizon_hours,
                base.services[0].spec.load.surge_factor, surge_hour,
                surge_hour + surge_hours, cap_w / 1e3,
                r_shared * 100.0);

    // ---- the three arms -----------------------------------------------
    const scenario::ScenarioResult baseline_run =
        scenario::run(base, &table);
    printArm("baseline", baseline_run, model_ids);
    const scenario::ScenarioResult qos_run =
        scenario::run(qos_spec, &table);
    printArm("qos", qos_run, model_ids);
    const scenario::ScenarioResult fb_run = scenario::run(fb_spec, &table);
    printArm("qos_feedback", fb_run, model_ids);
    const sim::ClusterSimResult& baseline = baseline_run.serve.sim;
    const sim::ClusterSimResult& qos_sim = qos_run.serve.sim;
    const sim::ClusterSimResult& fb_sim = fb_run.serve.sim;

    // ---- the QoS gate --------------------------------------------------
    const sim::ServiceRunStats& hi_base = baseline.services[0];
    const sim::ServiceRunStats& hi_qos = qos_sim.services[0];
    bool sla_ok =
        hi_qos.sla_violation_rate < hi_base.sla_violation_rate;
    bool power_ok = qos_sim.avg_provisioned_power_w <=
                    baseline.avg_provisioned_power_w + 1e-6;
    bool ok = sla_ok && power_ok;
    std::printf("qos vs baseline, high-priority %s: %s "
                "(violation+drop rate %.3f%% vs %.3f%%, avg power "
                "%.3f vs %.3f kW)\n",
                model::modelName(model_ids[0]), ok ? "WINS" : "FAIL",
                hi_qos.sla_violation_rate * 100.0,
                hi_base.sla_violation_rate * 100.0,
                qos_sim.avg_provisioned_power_w / 1e3,
                baseline.avg_provisioned_power_w / 1e3);
    std::printf("router head-to-head under QoS, cluster-wide: "
                "hercules %.3f%% vs latency-feedback %.3f%% violations "
                "(p99 %.2f vs %.2f ms)\n",
                qos_sim.sla_violation_rate * 100.0,
                fb_sim.sla_violation_rate * 100.0, qos_sim.p99_ms,
                fb_sim.p99_ms);

    // ---- JSON trajectory ----------------------------------------------
    util::JsonWriter w("BENCH_qos.json");
    w.beginObject();
    w.key("git_sha").str(bench::gitSha());
    w.key("generated_at").str(isoUtcTimestamp());
    w.key("scenarios").beginArray(util::JsonWriter::Inline);
    w.str(base.name).str(qos_spec.name).str(fb_spec.name);
    w.endArray();
    w.key("horizon_hours").fixed(base.serve.horizon_hours, 2);
    w.key("interval_hours").fixed(base.serve.interval_hours, 2);
    w.key("time_compression").fixed(base.serve.trace.time_compression, 0);
    w.key("num_services").integer(S);
    w.key("surge_hour").fixed(surge_hour, 2);
    w.key("surge_hours").fixed(surge_hours, 2);
    w.key("surge_factor").fixed(base.services[0].spec.load.surge_factor, 2);
    w.key("power_cap_w").fixed(cap_w, 2);
    w.key("qos_beats_baseline").boolean(ok);
    w.key("services").beginArray();
    for (size_t s = 0; s < S; ++s) {
        const cluster::ServiceSpec& qs = qos_spec.services[s].spec;
        w.beginObject(util::JsonWriter::Inline);
        w.key("model").str(model::modelName(model_ids[s]));
        w.key("peak_qps").fixed(base.services[s].spec.load.peak_qps, 1);
        w.key("peak_hour").fixed(base.services[s].spec.load.peak_hour, 2);
        w.key("priority").integer(qs.qos.priority);
        w.key("tier").str(qos::tierName(qs.qos.tier));
        w.endObject();
    }
    w.endArray();
    auto arm = [&](const char* name, const scenario::ScenarioResult& r) {
        w.key(name).beginObject();
        bench::writeArmSummary(w, r.serve.sim, model_ids);
        w.key("wall_ms").fixed(r.serve_wall_ms, 1);
        w.endObject();
    };
    arm("baseline", baseline_run);
    arm("qos", qos_run);
    arm("qos_feedback", fb_run);
    w.endObject();
    bench::closeJson(w, "BENCH_qos.json");

    return ok ? 0 : 1;
}
