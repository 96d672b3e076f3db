#include "scenario/scenario.h"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>

#include "obs/self_profile.h"
#include "scenario/lint.h"
#include "util/logging.h"

namespace hercules::scenario {

namespace {

void
validate(const ScenarioSpec& spec)
{
    std::string err;
    if (!validateSpec(spec, &err))
        fatal("%s", err.c_str());
}

std::unique_ptr<cluster::Provisioner>
makeProvisioner(const ScenarioSpec& spec)
{
    switch (spec.provisioner) {
      case ProvisionerKind::Hercules:
        return std::make_unique<cluster::HerculesProvisioner>();
      case ProvisionerKind::Greedy:
        return std::make_unique<cluster::GreedyProvisioner>();
      case ProvisionerKind::PriorityAware:
        return std::make_unique<cluster::PriorityAwareProvisioner>();
      case ProvisionerKind::Nh:
        return std::make_unique<cluster::NhProvisioner>(spec.nh_seed);
    }
    panic("makeProvisioner: bad kind %d",
          static_cast<int>(spec.provisioner));
}

}  // namespace

const char*
provisionerKindName(ProvisionerKind k)
{
    switch (k) {
      case ProvisionerKind::Hercules: return "hercules";
      case ProvisionerKind::Greedy: return "greedy";
      case ProvisionerKind::PriorityAware: return "priority-aware";
      case ProvisionerKind::Nh: return "nh";
    }
    panic("provisionerKindName: bad kind %d", static_cast<int>(k));
}

std::optional<ProvisionerKind>
parseProvisionerKind(const std::string& name)
{
    for (ProvisionerKind k :
         {ProvisionerKind::Hercules, ProvisionerKind::Greedy,
          ProvisionerKind::PriorityAware, ProvisionerKind::Nh})
        if (name == provisionerKindName(k))
            return k;
    return std::nullopt;
}

bool
validateSpec(const ScenarioSpec& spec, std::string* error)
{
    auto fail = [&](const std::string& msg) {
        if (error != nullptr)
            *error = "scenario '" + spec.name + "': " + msg;
        return false;
    };
    if (spec.fleet.empty())
        return fail("empty fleet");
    if (spec.services.empty())
        return fail("no services");
    for (const FleetEntry& e : spec.fleet)
        if (e.shard_slots < 0)
            return fail(std::string("negative slots for ") +
                        hw::serverTypeName(e.type));
    // Size and curve knobs the parser range-checks, for C++-built
    // specs: past them the query generator calls std::clamp with
    // lo > hi or takes the log of a non-positive median.
    for (size_t i = 0; i < spec.services.size(); ++i) {
        const cluster::ServiceSpec& s = spec.services[i].spec;
        const std::string ctx = "services[" + std::to_string(i) + "]: ";
        if (!(s.sizes.median > 0.0))
            return fail(ctx + "size_median must be positive");
        if (!(s.sizes.sigma >= 0.0) || !(s.pooling.sigma >= 0.0))
            return fail(ctx + "negative (or NaN) size/pooling sigma");
        if (!(s.load.trough_frac >= 0.0) || !(s.load.trough_frac <= 1.0))
            return fail(ctx + "trough_frac must be in [0, 1]");
        if (s.sizes.min_size > s.sizes.max_size)
            return fail(ctx + "size_min > size_max");
    }
    if (spec.serve.horizon_hours <= 0.0 ||
        spec.serve.interval_hours <= 0.0)
        return fail("non-positive horizon/interval");
    const workload::TraceOptions& tr = spec.serve.trace;
    if (!(tr.bucket_seconds > 0.0) || !(tr.time_compression >= 1.0))
        return fail("trace: bucket_seconds must be positive and "
                    "time_compression >= 1");
    const auto& sched = spec.serve.power_cap_schedule;
    for (size_t i = 0; i < sched.size(); ++i) {
        if (!(sched[i].from_hour >= 0.0) ||
            !std::isfinite(sched[i].from_hour) ||
            !(sched[i].cap_w >= 0.0))
            return fail("power_cap_schedule[" + std::to_string(i) +
                        "]: non-finite or negative point");
        if (i > 0 && sched[i].from_hour < sched[i - 1].from_hour)
            return fail("power_cap_schedule not sorted by from_hour");
    }
    const fault::FaultSpec& fs = spec.serve.faults;
    if (!(fs.crash_mtbf_hours >= 0.0) ||
        !(fs.crash_mttr_hours >= 0.0) ||
        !(fs.degrade_mtbf_hours >= 0.0) ||
        !(fs.degrade_mttr_hours >= 0.0))
        return fail("faults: negative (or NaN) MTBF/MTTR");
    if (!(fs.degrade_slowdown >= 1.0))
        return fail("faults: degrade_slowdown must be >= 1");
    for (size_t i = 0; i < fs.events.size(); ++i) {
        const fault::FaultEvent& e = fs.events[i];
        const std::string ctx =
            "faults.events[" + std::to_string(i) + "]: ";
        if (!(e.t_hours >= 0.0))
            return fail(ctx + "negative (or NaN) at_hour");
        if (e.fleet_index < 0 ||
            e.fleet_index >= static_cast<int>(spec.fleet.size()))
            return fail(ctx + "fleet index out of range");
        if (e.slot < 0 ||
            e.slot >= spec.fleet[e.fleet_index].shard_slots)
            return fail(ctx + "slot out of range");
        if (e.state == fault::HealthState::Degraded &&
            !(e.slowdown >= 1.0))
            return fail(ctx + "degraded slowdown must be >= 1");
    }
    const obs::ObsSpec& ob = spec.observability;
    if (!(ob.sample_rate >= 0.0) || !(ob.sample_rate <= 1.0))
        return fail("observability.sample_rate must be in [0, 1]");
    return true;
}

core::EfficiencyTable
profileTable(const ScenarioSpec& spec)
{
    validate(spec);
    if (!spec.profile.table_cache.empty() &&
        std::filesystem::exists(spec.profile.table_cache)) {
        auto cached =
            core::EfficiencyTable::tryReadCsv(spec.profile.table_cache);
        if (cached.has_value())
            return *cached;
    }

    core::ProfilerOptions popt;
    popt.search.measure.sim.num_queries = spec.profile.num_queries;
    popt.search.measure.sim.warmup_queries =
        spec.profile.warmup_queries;
    popt.search.measure.bisect_iters = spec.profile.bisect_iters;
    popt.search.measure.sim.seed = spec.profile.seed;
    for (const FleetEntry& e : spec.fleet)
        popt.servers.push_back(e.type);
    for (const ServiceScenario& s : spec.services) {
        bool seen = false;
        for (model::ModelId m : popt.models)
            seen = seen || m == s.spec.model;
        if (!seen)
            popt.models.push_back(s.spec.model);
    }

    // One engine for the whole grid; the memo spill warm-starts
    // repeated runs (and CI jobs restoring it from an actions cache).
    core::EvalEngine engine(popt.search.eval);
    if (!spec.profile.eval_memo.empty())
        engine.loadCache(spec.profile.eval_memo);
    popt.search.engine = &engine;

    core::EfficiencyTable table = core::offlineProfile(popt);

    if (!spec.profile.eval_memo.empty())
        engine.saveCache(spec.profile.eval_memo);
    if (!spec.profile.table_cache.empty())
        table.writeCsv(spec.profile.table_cache);
    return table;
}

void
resolvePeaks(ScenarioSpec& spec, const core::EfficiencyTable& table)
{
    for (ServiceScenario& s : spec.services) {
        if (s.name.empty())
            s.name = model::modelName(s.spec.model);
        if (s.peak_qps_frac <= 0.0)
            continue;
        double capacity = 0.0;
        for (const FleetEntry& e : spec.fleet) {
            const core::EfficiencyEntry* ent =
                table.get(e.type, s.spec.model);
            if (ent != nullptr && ent->feasible)
                capacity += e.shard_slots * ent->qps;
        }
        s.spec.load.peak_qps = s.peak_qps_frac * capacity;
        s.peak_qps_frac = 0.0;
    }
}

ScenarioResult
run(const ScenarioSpec& spec, const core::EfficiencyTable* table)
{
    // Opt-in lint gate: reject statically-broken specs before any
    // profiling or trace generation spends time on them.
    if (spec.lint) {
        std::vector<Diagnostic> ds = lint(spec, table);
        std::string errs;
        for (const Diagnostic& d : ds)
            if (d.severity == Severity::Error)
                errs += (errs.empty() ? "" : "; ") +
                        formatDiagnostic(d);
        if (!errs.empty())
            fatal("scenario '%s' rejected by lint gate: %s",
                  spec.name.c_str(), errs.c_str());
    }
    validate(spec);

    ScenarioResult out;
    obs::WallTimer profile_timer;
    out.table = table != nullptr ? *table : profileTable(spec);
    out.profile_wall_ms = profile_timer.elapsedMs();

    out.resolved = spec;
    std::vector<hw::ServerType> fleet;
    std::vector<int> slots;
    for (const FleetEntry& e : spec.fleet) {
        fleet.push_back(e.type);
        slots.push_back(e.shard_slots);
    }

    // Resolve fraction-of-capacity peaks against the profiled table
    // and fill display names, so `resolved` replays without either.
    resolvePeaks(out.resolved, out.table);
    std::vector<cluster::ServiceSpec> services;
    for (const ServiceScenario& s : out.resolved.services)
        services.push_back(s.spec);

    std::unique_ptr<cluster::Provisioner> policy =
        makeProvisioner(spec);

    // Telemetry (spec "observability" block): attach a sink for the
    // serve phase, then emit the configured files. With both files
    // empty no sink is attached — the pre-telemetry path, bit-exact.
    obs::Telemetry telemetry(spec.observability);
    cluster::TraceServeOptions sopt = spec.serve;
    if (spec.observability.enabled())
        sopt.telemetry = &telemetry;

    obs::WallTimer serve_timer;
    out.serve = cluster::serveTraces(out.table, fleet, slots, services,
                                     *policy, sopt);
    out.serve_wall_ms = serve_timer.elapsedMs();

    if (spec.observability.enabled()) {
        telemetry.writeTraceFile();
        telemetry.writeMetricsFile();
    }
    return out;
}

bool
writeResultJson(const std::string& path, const ScenarioResult& r,
                const char* git_sha, const std::string& generated_at)
{
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    const ScenarioSpec& spec = r.resolved;
    const sim::ClusterSimResult& sim = r.serve.sim;

    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"git_sha\": \"%s\",\n", git_sha);
    std::fprintf(
        f, "  \"generated_at\": \"%s\",\n",
        generated_at.empty() ? isoUtcTimestamp().c_str()
                             : generated_at.c_str());
    std::fprintf(f, "  \"scenario\": \"%s\",\n", spec.name.c_str());
    std::fprintf(f, "  \"provisioner\": \"%s\",\n",
                 provisionerKindName(spec.provisioner));
    std::fprintf(f, "  \"router\": \"%s\",\n",
                 sim::routerPolicyName(spec.serve.router));
    std::fprintf(f, "  \"admission\": \"%s\",\n",
                 qos::admissionPolicyName(spec.serve.admission.policy));
    std::fprintf(f, "  \"horizon_hours\": %.2f,\n",
                 spec.serve.horizon_hours);
    std::fprintf(f, "  \"interval_hours\": %.2f,\n",
                 spec.serve.interval_hours);
    std::fprintf(f, "  \"time_compression\": %.0f,\n",
                 spec.serve.trace.time_compression);
    if (std::isfinite(spec.serve.power_cap_w))
        std::fprintf(f, "  \"power_cap_w\": %.2f,\n",
                     spec.serve.power_cap_w);
    if (!spec.serve.power_cap_schedule.empty()) {
        std::fprintf(f, "  \"power_cap_schedule\": [");
        const auto& sched = spec.serve.power_cap_schedule;
        for (size_t i = 0; i < sched.size(); ++i)
            std::fprintf(f, "%s{\"from_hour\": %.2f, \"cap_w\": %.2f}",
                         i ? ", " : "", sched[i].from_hour,
                         sched[i].cap_w);
        std::fprintf(f, "],\n");
    }
    std::fprintf(f, "  \"estimated_r\": %.4f,\n", r.serve.estimated_r);
    std::fprintf(f, "  \"trace_queries\": %zu,\n",
                 r.serve.trace_queries);
    std::fprintf(f, "  \"reprovisions\": %d,\n", r.serve.reprovisions);
    std::fprintf(f, "  \"shard_slots\": %d,\n", r.serve.shard_slots);
    std::fprintf(f, "  \"profile_wall_ms\": %.1f,\n",
                 r.profile_wall_ms);
    std::fprintf(f, "  \"serve_wall_ms\": %.1f,\n", r.serve_wall_ms);

    std::fprintf(f, "  \"services\": [\n");
    for (size_t s = 0; s < spec.services.size(); ++s) {
        const ServiceScenario& svc = spec.services[s];
        const sim::ServiceRunStats& st = sim.services[s];
        std::fprintf(
            f,
            "    {\"name\": \"%s\", \"model\": \"%s\", "
            "\"peak_qps\": %.1f, \"peak_hour\": %.2f, "
            "\"priority\": %d, \"tier\": \"%s\", \"sla_ms\": %.2f, "
            "\"capacity_qps\": %.1f, \"completed\": %zu, "
            "\"rejected\": %zu, \"dropped\": %zu, \"p50_ms\": %.4f, "
            "\"p99_ms\": %.4f, \"sla_violation_rate\": %.6f}%s\n",
            svc.name.c_str(), model::modelName(svc.spec.model),
            svc.spec.load.peak_qps, svc.spec.load.peak_hour,
            svc.spec.qos.priority, qos::tierName(svc.spec.qos.tier),
            r.serve.service_sla_ms[s],
            r.serve.service_capacity_qps[s], st.completed,
            st.rejected, st.dropped, st.p50_ms, st.p99_ms,
            st.sla_violation_rate,
            s + 1 < spec.services.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");

    std::fprintf(f, "  \"completed\": %zu,\n", sim.completed);
    std::fprintf(f, "  \"rejected\": %zu,\n", sim.rejected);
    std::fprintf(f, "  \"dropped\": %zu,\n", sim.dropped);
    std::fprintf(f, "  \"admission_retries\": %zu,\n",
                 sim.admission_retries);
    std::fprintf(f, "  \"p50_ms\": %.4f,\n", sim.p50_ms);
    std::fprintf(f, "  \"p99_ms\": %.4f,\n", sim.p99_ms);
    std::fprintf(f, "  \"sla_violations\": %zu,\n",
                 sim.sla_violations);
    std::fprintf(f, "  \"sla_violation_rate\": %.6f,\n",
                 sim.sla_violation_rate);
    std::fprintf(f, "  \"avg_provisioned_power_w\": %.2f,\n",
                 sim.avg_provisioned_power_w);
    std::fprintf(f, "  \"avg_consumed_power_w\": %.2f,\n",
                 sim.avg_consumed_power_w);

    // Fault timeline: every applied health transition. Always emitted
    // (empty array on fault-free runs) so consumers never key-check.
    std::fprintf(f, "  \"health_transitions\": [");
    for (size_t i = 0; i < sim.health_transitions.size(); ++i) {
        const sim::HealthTransition& ht = sim.health_transitions[i];
        std::fprintf(f,
                     "%s\n    {\"t_s\": %.2f, \"shard\": %d, "
                     "\"service\": %d, \"from\": \"%s\", \"to\": \"%s\", "
                     "\"slowdown\": %.2f, \"killed_inflight\": %zu}",
                     i ? "," : "", ht.t_s, ht.shard, ht.service,
                     fault::healthStateName(ht.from),
                     fault::healthStateName(ht.to), ht.slowdown,
                     ht.killed_inflight);
    }
    std::fprintf(f, "%s],\n",
                 sim.health_transitions.empty() ? "" : "\n  ");

    // DES self-profile: event counts are deterministic, wall timings
    // are provenance (vary run to run).
    std::fprintf(f, "  \"des_events_executed\": %llu,\n",
                 static_cast<unsigned long long>(sim.des.events_executed));
    std::fprintf(f, "  \"des_peak_event_queue_depth\": %zu,\n",
                 sim.des.peak_event_queue_depth);
    std::fprintf(f, "  \"des_events_per_sec\": %.0f,\n",
                 sim.des.events_per_sec);

    hercules::sim::writeIntervalArraysJson(f, sim.intervals, "  ");
    std::fprintf(f, "}\n");
    std::fclose(f);
    return true;
}

}  // namespace hercules::scenario
