/**
 * @file
 * Multi-service co-serving on a shared heterogeneous fleet: 2–3
 * recommendation services with phase-shifted diurnal peaks replayed
 * end to end (every query flows through a simulated shard) across a
 * T2+T3+T7 fleet, comparing
 *
 *  - JOINT:     one shared fleet, the multi-model ProvisionProblem
 *               solved jointly every interval — declared by
 *               scenarios/three_service_phase_shift.scn and executed
 *               through scenario::run();
 *  - PARTITION: per-service static partitions — each service gets a
 *               dedicated slice of the fleet sized for its own peak
 *               (greedy best-QPS/W types first), always on, no
 *               cross-service sharing. The silos replay together in
 *               one ClusterSim, each service routing only to its own.
 *
 * The gate: joint provisioning must use no more average provisioned
 * power than the static partitions at an equal-or-lower SLA-violation
 * rate — the Hercules premise that sharing a heterogeneity-aware
 * fleet across phase-shifted services beats static silos.
 *
 * Results land in BENCH_multiservice.json (per-service aggregates and
 * per-interval trajectories, dropped arrivals included).
 *
 * Fast mode (HERCULES_BENCH_FAST=1): 2 services on T2+T3, 3h horizon.
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "cluster/cluster_manager.h"
#include "scenario/scenario.h"
#include "sim/prepared.h"
#include "util/table.h"

using namespace hercules;

namespace {

using Clock = std::chrono::steady_clock;

void
printScenario(const char* name, const sim::ClusterSimResult& r,
              double wall_ms, const std::vector<model::ModelId>& models)
{
    std::printf("%s:\n", name);
    TablePrinter t({"Service", "Completed", "Dropped", "p50 (ms)",
                    "p99 (ms)", "SLA (ms)", "SLA viol"});
    for (size_t s = 0; s < r.services.size(); ++s) {
        const sim::ServiceRunStats& svc = r.services[s];
        t.addRow({model::modelName(models[s]),
                  std::to_string(svc.completed),
                  std::to_string(svc.dropped),
                  fmtDouble(svc.p50_ms, 2), fmtDouble(svc.p99_ms, 2),
                  fmtDouble(svc.sla_ms, 0),
                  fmtPercent(svc.sla_violation_rate, 2)});
    }
    t.print();
    std::printf("  avg power %.3f kW provisioned / %.3f kW consumed, "
                "violation rate %.2f%%, p99 %.2f ms, wall %.0f ms\n\n",
                r.avg_provisioned_power_w / 1e3,
                r.avg_consumed_power_w / 1e3,
                r.sla_violation_rate * 100.0, r.p99_ms, wall_ms);
}

}  // namespace

int
main()
{
    bench::banner("Multi-service co-serving",
                  "Phase-shifted services on one shared heterogeneous "
                  "fleet: joint provisioning vs static partitions");

    const bool fast = bench::fastMode();
    scenario::ScenarioSpec spec =
        bench::loadScenario("three_service_phase_shift.scn");
    if (fast) {
        // Smoke deltas: 2 services on a 3-slot T2+T3 fleet, peaks
        // inside a 3h window, cheap profiling into the fast cache.
        spec.fleet = {{hw::ServerType::T2, 2},
                      {hw::ServerType::T3, 1}};
        spec.services.resize(2);
        for (size_t s = 0; s < spec.services.size(); ++s) {
            scenario::ServiceScenario svc;
            svc.spec.model = s == 0 ? model::ModelId::DlrmRmc1
                                    : model::ModelId::DlrmRmc2;
            svc.peak_qps_frac = 0.40;
            svc.spec.load.trough_frac = 0.35;
            svc.spec.load.peak_hour =
                0.75 + 1.5 * static_cast<double>(s);
            svc.spec.load.seed = 5 + s;
            spec.services[s] = svc;
        }
        spec.serve.horizon_hours = 3.0;
        spec.serve.trace.time_compression = 960.0;
        spec.profile.table_cache =
            "hercules_efficiency_multiservice_fast.csv";
        spec.profile.num_queries = 250;
        spec.profile.warmup_queries = 50;
        spec.profile.bisect_iters = 4;
    }

    core::EfficiencyTable table = scenario::profileTable(spec);
    scenario::resolvePeaks(spec, table);

    const size_t S = spec.services.size();
    std::vector<model::ModelId> model_ids;
    for (const scenario::ServiceScenario& s : spec.services)
        model_ids.push_back(s.spec.model);

    // Per-service full-fleet capacity (every slot serving only it).
    std::vector<double> capacity(S, 0.0);
    for (size_t s = 0; s < S; ++s) {
        for (const scenario::FleetEntry& e : spec.fleet) {
            const core::EfficiencyEntry* ent =
                table.get(e.type, model_ids[s]);
            if (ent != nullptr && ent->feasible)
                capacity[s] += e.shard_slots * ent->qps;
        }
        std::printf("%s: %.0f QPS full-fleet capacity, SLA %.0f ms\n",
                    model::modelName(model_ids[s]), capacity[s],
                    model::buildModel(model_ids[s]).sla_ms);
        if (capacity[s] <= 0.0) {
            std::printf("service infeasible on this fleet — abort\n");
            return 1;
        }
    }

    std::printf("\nhorizon %.0fh, interval %.1fh, compression %.0fx, "
                "%zu services, peaks at",
                spec.serve.horizon_hours, spec.serve.interval_hours,
                spec.serve.trace.time_compression, S);
    for (size_t s = 0; s < S; ++s)
        std::printf(" %.1fh", spec.services[s].spec.load.peak_hour);
    std::printf("\n\n");

    // Over-provision rate R: the curves' max inter-interval ramp plus
    // tail headroom — the efficiency-tuple QPS is *latency-bounded*,
    // so provisioning coverage at exactly load*(1+ramp) would run
    // shards at the edge of their SLA. Both scenarios use the same R.
    const double kTailHeadroom = 0.15;
    double r_est = 0.0;
    for (size_t s = 0; s < S; ++s)
        r_est = std::max(
            r_est,
            cluster::estimateOverprovisionRate(
                workload::DiurnalLoad(spec.services[s].spec.load),
                spec.serve.interval_hours, spec.serve.horizon_hours));
    if (!fast) {
        // The fast smoke's 3h window never leaves the peak region; the
        // extra headroom only reshuffles its LP assignment. Keep the
        // internal ramp estimate there.
        spec.serve.overprovision_rate = r_est + kTailHeadroom;
        std::printf("over-provision rate R = %.1f%% (%.1f%% ramp + "
                    "%.0f%% tail headroom)\n\n",
                    spec.serve.overprovision_rate * 100.0,
                    r_est * 100.0, kTailHeadroom * 100.0);
    }

    // ---- scenario 1: shared fleet, joint provisioning -----------------
    scenario::ScenarioResult joint_run = scenario::run(spec, &table);
    const cluster::MultiServeResult& joint = joint_run.serve;
    const sim::ClusterSimResult& jr = joint.sim;
    printScenario("JOINT (shared fleet)", jr, joint_run.serve_wall_ms,
                  model_ids);

    // ---- scenario 2: static per-service partitions --------------------
    // Each service gets a dedicated, always-on slice sized for its own
    // peak * (1 + R): greedily the best remaining QPS/W types. All the
    // silos replay the merged trace in one ClusterSim where each service
    // routes only to its own shards (each service sees exactly the
    // arrivals it saw in the joint run).
    std::vector<hw::ServerType> fleet;
    std::vector<int> slots;
    for (const scenario::FleetEntry& e : spec.fleet) {
        fleet.push_back(e.type);
        slots.push_back(e.shard_slots);
    }
    const cluster::TraceServeOptions& opt = spec.serve;
    workload::TraceOptions topt = opt.trace;
    topt.horizon_hours = opt.horizon_hours;
    std::vector<workload::ServiceTraceSpec> trace_specs(S);
    for (size_t s = 0; s < S; ++s) {
        trace_specs[s].load = spec.services[s].spec.load;
        trace_specs[s].sizes = spec.services[s].spec.sizes;
        trace_specs[s].pooling = spec.services[s].spec.pooling;
    }
    std::vector<workload::Query> merged =
        workload::generateMultiServiceTrace(trace_specs, topt);
    const double interval_s =
        opt.interval_hours * 3600.0 / topt.time_compression;
    const double horizon_s =
        opt.horizon_hours * 3600.0 / topt.time_compression;

    Clock::time_point t0 = Clock::now();
    std::vector<int> remaining = slots;
    std::vector<model::Model> models;
    models.reserve(S);
    sim::ClusterSim::Options copt;
    copt.router = opt.router;
    copt.router_seed = opt.router_seed;
    copt.sla_ms = opt.sla_ms;
    for (size_t s = 0; s < S; ++s) {
        models.push_back(model::buildModel(model_ids[s]));
        copt.service_sla_ms.push_back(models[s].sla_ms);
    }
    sim::ClusterSim part(copt);
    part.declareServices(static_cast<int>(S));
    std::vector<sim::PreparedWorkload> prepared;
    prepared.reserve(S * fleet.size());  // shards point into it
    double static_power = 0.0;
    // Partition sizing, two passes so a scarce fleet still gives every
    // silo at least one server: (1) each service claims one server of
    // its best QPS/W type; (2) greedy top-up, best types first, until
    // the service's peak * (1 + R) is covered or slots run out.
    std::vector<std::vector<size_t>> type_order(S);
    std::vector<std::vector<int>> takes(S,
                                        std::vector<int>(fleet.size(), 0));
    for (size_t s = 0; s < S; ++s) {
        for (size_t h = 0; h < fleet.size(); ++h) {
            const core::EfficiencyEntry* e =
                table.get(fleet[h], model_ids[s]);
            if (e != nullptr && e->feasible)
                type_order[s].push_back(h);
        }
        std::stable_sort(type_order[s].begin(), type_order[s].end(),
                         [&](size_t a, size_t b) {
                             const auto* ea =
                                 table.get(fleet[a], model_ids[s]);
                             const auto* eb =
                                 table.get(fleet[b], model_ids[s]);
                             return ea->qps / std::max(ea->power_w, 1e-9) >
                                    eb->qps / std::max(eb->power_w, 1e-9);
                         });
        for (size_t h : type_order[s]) {
            if (remaining[h] > 0) {
                ++takes[s][h];
                --remaining[h];
                break;
            }
        }
    }
    for (size_t s = 0; s < S; ++s) {
        double part_r = opt.overprovision_rate >= 0.0
                            ? opt.overprovision_rate
                            : joint.service_r[s];
        double target =
            spec.services[s].spec.load.peak_qps * (1.0 + part_r);
        std::vector<int>& take = takes[s];
        double covered = 0.0, part_power = 0.0;
        for (size_t h = 0; h < fleet.size(); ++h) {
            const auto* e = table.get(fleet[h], model_ids[s]);
            if (take[h] > 0) {
                covered += take[h] * e->qps;
                part_power += take[h] * e->power_w;
            }
        }
        for (size_t h : type_order[s]) {
            const auto* e = table.get(fleet[h], model_ids[s]);
            while (covered < target && remaining[h] > 0) {
                ++take[h];
                --remaining[h];
                covered += e->qps;
                part_power += e->power_w;
            }
        }

        for (size_t h = 0; h < fleet.size(); ++h) {
            if (take[h] <= 0)
                continue;
            const auto* e = table.get(fleet[h], model_ids[s]);
            prepared.push_back(sim::prepare(hw::serverSpec(fleet[h]),
                                            models[s], e->config));
            for (int i = 0; i < take[h]; ++i)
                part.addShard(prepared.back(), e->qps,
                              static_cast<int>(s));
        }
        static_power += part_power;
        std::printf("  partition %s:", model::modelName(model_ids[s]));
        for (size_t h = 0; h < fleet.size(); ++h)
            if (take[h] > 0)
                std::printf(" %s x%d", hw::serverTypeName(fleet[h]),
                            take[h]);
        std::printf("  (%.0f QPS for %.0f target, %.0f W)\n", covered,
                    target, part_power);
    }
    std::printf("\n");
    // Static partitions: every shard always on, constant power.
    std::vector<int> all_ids(part.numShards());
    for (size_t i = 0; i < all_ids.size(); ++i)
        all_ids[i] = static_cast<int>(i);
    auto static_plan = [&](int, double) {
        sim::IntervalPlan pl;
        pl.active = all_ids;
        pl.provisioned_power_w = static_power;
        return pl;
    };
    const sim::ClusterSimResult pr =
        part.run(merged, interval_s, static_plan, horizon_s);
    const double pr_wall_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0)
            .count();
    printScenario("PARTITION (static per-service silos)", pr, pr_wall_ms,
                  model_ids);

    // ---- the co-serving gate ------------------------------------------
    bool power_ok = jr.avg_provisioned_power_w <=
                    pr.avg_provisioned_power_w + 1e-6;
    bool sla_ok =
        jr.sla_violation_rate <= pr.sla_violation_rate + 1e-12;
    bool ok = power_ok && sla_ok;
    std::printf("joint vs static partitions: %s (power %.3f vs %.3f "
                "kW, violations %.3f%% vs %.3f%%)\n",
                ok ? "DOMINATES" : "FAIL",
                jr.avg_provisioned_power_w / 1e3,
                pr.avg_provisioned_power_w / 1e3,
                jr.sla_violation_rate * 100.0,
                pr.sla_violation_rate * 100.0);

    // ---- JSON trajectory ----------------------------------------------
    util::JsonWriter w("BENCH_multiservice.json");
    w.beginObject();
    w.key("git_sha").str(bench::gitSha());
    w.key("generated_at").str(isoUtcTimestamp());
    w.key("scenario").str(spec.name);
    w.key("horizon_hours").fixed(opt.horizon_hours, 2);
    w.key("interval_hours").fixed(opt.interval_hours, 2);
    w.key("time_compression").fixed(opt.trace.time_compression, 0);
    w.key("num_services").integer(S);
    w.key("joint_dominates_partitions").boolean(ok);
    w.key("services").beginArray();
    for (size_t s = 0; s < S; ++s) {
        w.beginObject(util::JsonWriter::Inline);
        w.key("model").str(model::modelName(model_ids[s]));
        w.key("peak_qps").fixed(spec.services[s].spec.load.peak_qps, 1);
        w.key("peak_hour").fixed(spec.services[s].spec.load.peak_hour, 2);
        w.key("sla_ms").fixed(joint.service_sla_ms[s], 2);
        w.key("capacity_qps").fixed(capacity[s], 1);
        w.key("estimated_r").fixed(joint.service_r[s], 4);
        w.endObject();
    }
    w.endArray();
    w.key("joint").beginObject();
    bench::writeArmSummary(w, jr, model_ids);
    w.key("wall_ms").fixed(joint_run.serve_wall_ms, 1);
    w.endObject();
    w.key("partition").beginObject();
    bench::writeArmSummary(w, pr, model_ids);
    w.key("wall_ms").fixed(pr_wall_ms, 1);
    w.endObject();
    w.endObject();
    bench::closeJson(w, "BENCH_multiservice.json");

    return ok ? 0 : 1;
}
