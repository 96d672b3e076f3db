/**
 * @file
 * Sharded online serving: router policies × cluster provisioners over
 * a 24h diurnal replay on a heterogeneous (T2+T3+T7) shard fleet.
 *
 * The experiment is declared, not wired: the base spec is
 * scenarios/single_service.scn and this bench only applies deltas —
 * the full-mode fleet/horizon, then one (provisioner, router) override
 * per combo — before handing everything to scenario::run(). Every
 * query flows through a steppable ServerInstance shard behind the
 * chosen Router; the chosen Provisioner re-provisions the active shard
 * set every interval. Reported per combination: end-to-end p50/p99,
 * SLA-violation rate, provisioned vs consumed power, and re-provision
 * count. The heterogeneity-aware (efficiency-tuple-weighted) router
 * must dominate round-robin on this fleet — that gate is the bench's
 * exit status.
 *
 * Results land in BENCH_cluster.json next to the binary (per-interval
 * p99 / violation-rate / power arrays included for the trajectory).
 *
 * Fast mode (HERCULES_BENCH_FAST=1): the base spec unchanged — 2
 * shards (T2+T3), short horizon.
 */
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "scenario/scenario.h"
#include "util/table.h"

using namespace hercules;

namespace {

struct ComboResult
{
    const char* provisioner;
    const char* router;
    double wall_ms = 0.0;
    scenario::ScenarioResult r;
};

/**
 * The Provisioner::name() display strings the pre-scenario bench
 * emitted — kept so the "provisioner" values in BENCH_cluster.json
 * stay comparable across the PR trajectory.
 */
const char*
provisionerDisplayName(scenario::ProvisionerKind k)
{
    switch (k) {
      case scenario::ProvisionerKind::Hercules: return "Hercules";
      case scenario::ProvisionerKind::Greedy: return "Greedy";
      case scenario::ProvisionerKind::PriorityAware:
        return "Priority-aware";
      case scenario::ProvisionerKind::Nh: return "NH";
    }
    return "?";
}

}  // namespace

int
main()
{
    bench::banner("Cluster serving",
                  "Router policies x provisioners over a diurnal replay "
                  "on a sharded heterogeneous fleet");

    const bool fast = bench::fastMode();
    scenario::ScenarioSpec spec =
        bench::loadScenario("single_service.scn");
    if (!fast) {
        // Full-experiment deltas on the smoke base: the three-type
        // fleet, the whole day, production compression and the
        // standard bench profiling knobs.
        spec.fleet = {{hw::ServerType::T2, 2},
                      {hw::ServerType::T3, 2},
                      {hw::ServerType::T7, 1}};
        spec.services[0].peak_qps_frac = 0.60;
        spec.services[0].spec.load.peak_hour = 20.0;
        spec.serve.horizon_hours = 24.0;
        spec.serve.trace.time_compression = 480.0;
        spec.profile.table_cache = "hercules_efficiency_serving.csv";
        spec.profile.num_queries = 400;
        spec.profile.warmup_queries = 80;
        spec.profile.bisect_iters = 5;
    }

    core::EfficiencyTable table = scenario::profileTable(spec);
    const model::ModelId model = spec.services[0].spec.model;
    double fleet_qps = 0.0;
    for (const scenario::FleetEntry& e : spec.fleet) {
        const core::EfficiencyEntry* ent = table.get(e.type, model);
        if (ent != nullptr && ent->feasible) {
            fleet_qps += e.shard_slots * ent->qps;
            std::printf("%s x%d: %.0f QPS / %.0f W  (%s)\n",
                        hw::serverTypeName(e.type), e.shard_slots,
                        ent->qps, ent->power_w,
                        ent->config.str().c_str());
        }
    }
    std::printf("shard fleet capacity: %.0f QPS\n\n", fleet_qps);

    scenario::resolvePeaks(spec, table);
    const double sla_ms = model::buildModel(model).sla_ms;
    std::printf("horizon %.0fh, interval %.1fh, peak %.0f QPS, SLA "
                "%.0f ms, compression %.0fx\n\n",
                spec.serve.horizon_hours, spec.serve.interval_hours,
                spec.services[0].spec.load.peak_qps, sla_ms,
                spec.serve.trace.time_compression);

    const std::vector<scenario::ProvisionerKind> provisioners = {
        scenario::ProvisionerKind::Hercules,
        scenario::ProvisionerKind::Greedy,
        scenario::ProvisionerKind::Nh};
    spec.nh_seed = 11;

    using Clock = std::chrono::steady_clock;
    std::vector<ComboResult> results;
    for (scenario::ProvisionerKind prov : provisioners) {
        for (sim::RouterPolicy rp : sim::allRouterPolicies()) {
            spec.provisioner = prov;
            spec.serve.router = rp;
            Clock::time_point t0 = Clock::now();
            ComboResult c;
            c.provisioner = provisionerDisplayName(prov);
            c.router = sim::routerPolicyName(rp);
            c.r = scenario::run(spec, &table);
            c.wall_ms = std::chrono::duration<double, std::milli>(
                            Clock::now() - t0)
                            .count();
            results.push_back(std::move(c));
        }
    }

    TablePrinter t({"Provisioner", "Router", "p50 (ms)", "p99 (ms)",
                    "SLA viol", "Prov kW", "Cons kW", "Reprov",
                    "Wall (ms)"});
    for (const ComboResult& c : results) {
        const sim::ClusterSimResult& s = c.r.serve.sim;
        t.addRow({c.provisioner, c.router, fmtDouble(s.p50_ms, 2),
                  fmtDouble(s.p99_ms, 2),
                  fmtPercent(s.sla_violation_rate, 2),
                  fmtDouble(s.avg_provisioned_power_w / 1e3, 3),
                  fmtDouble(s.avg_consumed_power_w / 1e3, 3),
                  std::to_string(c.r.serve.reprovisions),
                  fmtDouble(c.wall_ms, 0)});
    }
    t.print();

    // ---- the heterogeneity gate ---------------------------------------
    // Under the Hercules provisioner, the tuple-weighted router must
    // dominate round-robin on both tail latency and violation rate.
    const ComboResult* rr = nullptr;
    const ComboResult* hw_aware = nullptr;
    for (const ComboResult& c : results) {
        if (std::string(c.provisioner) != "Hercules")
            continue;
        if (std::string(c.router) == "rr")
            rr = &c;
        if (std::string(c.router) == "hercules")
            hw_aware = &c;
    }
    bool ok =
        rr != nullptr && hw_aware != nullptr &&
        hw_aware->r.serve.sim.p99_ms <= rr->r.serve.sim.p99_ms + 1e-9 &&
        hw_aware->r.serve.sim.sla_violation_rate <=
            rr->r.serve.sim.sla_violation_rate + 1e-12;
    std::printf("\nheterogeneity-aware router vs round-robin: %s (p99 "
                "%.2f vs %.2f ms, violations %.2f%% vs %.2f%%)\n",
                ok ? "DOMINATES" : "FAIL",
                hw_aware ? hw_aware->r.serve.sim.p99_ms : -1.0,
                rr ? rr->r.serve.sim.p99_ms : -1.0,
                hw_aware
                    ? hw_aware->r.serve.sim.sla_violation_rate * 100
                    : -1.0,
                rr ? rr->r.serve.sim.sla_violation_rate * 100 : -1.0);

    // ---- JSON trajectory ----------------------------------------------
    util::JsonWriter w("BENCH_cluster.json");
    w.beginObject();
    w.key("git_sha").str(bench::gitSha());
    w.key("generated_at").str(isoUtcTimestamp());
    w.key("scenario").str(spec.name);
    w.key("horizon_hours").fixed(spec.serve.horizon_hours, 2);
    w.key("interval_hours").fixed(spec.serve.interval_hours, 2);
    w.key("time_compression")
        .fixed(spec.serve.trace.time_compression, 0);
    w.key("sla_ms").fixed(sla_ms, 2);
    w.key("peak_qps").fixed(spec.services[0].spec.load.peak_qps, 1);
    w.key("fleet_capacity_qps").fixed(fleet_qps, 1);
    w.key("hercules_router_dominates_rr").boolean(ok);
    w.key("combos").beginArray();
    for (const ComboResult& c : results) {
        w.beginObject();
        w.key("provisioner").str(c.provisioner);
        w.key("router").str(c.router);
        w.key("wall_ms").fixed(c.wall_ms, 1);
        w.key("queries").integer(c.r.serve.trace_queries);
        w.key("reprovisions").integer(c.r.serve.reprovisions);
        bench::writeArmSummary(w, c.r.serve.sim, {model});
        w.endObject();
    }
    w.endArray();
    w.endObject();
    bench::closeJson(w, "BENCH_cluster.json");

    return ok ? 0 : 1;
}
