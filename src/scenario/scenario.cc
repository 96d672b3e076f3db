#include "scenario/scenario.h"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>

#include "obs/self_profile.h"
#include "scenario/lint.h"
#include "util/json.h"
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

    if (!telemetry.writeTraceFile())
        out.failed_writes.push_back(spec.observability.trace_file);
    if (!telemetry.writeMetricsFile())
        out.failed_writes.push_back(spec.observability.metrics_file);
    return out;
}

void
writeRunSummary(util::JsonWriter& w, const sim::ClusterSimResult& r,
                const char* services_key,
                const std::function<void(size_t)>& service_head)
{
    // The outcome counts and latency of one service, or of the run.
    auto stats = [&](const auto& st) {
        w.key("completed").integer(st.completed);
        w.key("rejected").integer(st.rejected);
        w.key("dropped").integer(st.dropped);
        w.key("failed_inflight").integer(st.failed_inflight);
        w.key("p50_ms").fixed(st.p50_ms, 4);
        w.key("p99_ms").fixed(st.p99_ms, 4);
        w.key("sla_violations").integer(st.sla_violations);
        w.key("sla_violation_rate").fixed(st.sla_violation_rate, 6);
    };
    w.key(services_key).beginArray();
    for (size_t s = 0; s < r.services.size(); ++s) {
        w.beginObject(util::JsonWriter::Inline);
        service_head(s);
        stats(r.services[s]);
        w.endObject();
    }
    w.endArray();
    stats(r);
    w.key("admission_retries").integer(r.admission_retries);
    w.key("avg_provisioned_power_w").fixed(r.avg_provisioned_power_w, 2);
    w.key("avg_consumed_power_w").fixed(r.avg_consumed_power_w, 2);

    // DES self-profile: event counts are deterministic, the rate is
    // provenance (varies run to run).
    w.key("des_events_executed").integer(r.des.events_executed);
    w.key("des_peak_event_queue_depth")
        .integer(r.des.peak_event_queue_depth);
    w.key("des_events_per_sec").fixed(r.des.events_per_sec, 0);

    // The per-interval trajectory, one inline array per field.
    auto arr = [&](const char* key, auto field, int decimals) {
        w.key(key).beginArray(util::JsonWriter::Inline);
        for (const sim::IntervalStats& iv : r.intervals)
            w.fixed(static_cast<double>(iv.*field), decimals);
        w.endArray();
    };
    arr("interval_p99_ms", &sim::IntervalStats::p99_ms, 3);
    arr("interval_sla_violation_rate",
        &sim::IntervalStats::sla_violation_rate, 5);
    arr("interval_dropped", &sim::IntervalStats::dropped, 0);
    arr("interval_provisioned_power_w",
        &sim::IntervalStats::provisioned_power_w, 1);
    arr("interval_consumed_power_w",
        &sim::IntervalStats::consumed_power_w, 1);
}

bool
writeResultJson(const std::string& path, const ScenarioResult& r,
                const char* git_sha, const std::string& generated_at)
{
    const ScenarioSpec& spec = r.resolved;
    const sim::ClusterSimResult& sim = r.serve.sim;

    util::JsonWriter w(path);
    w.beginObject();
    w.key("git_sha").str(git_sha);
    w.key("generated_at")
        .str(generated_at.empty() ? isoUtcTimestamp() : generated_at);
    w.key("scenario").str(spec.name);
    w.key("provisioner").str(provisionerKindName(spec.provisioner));
    w.key("router").str(sim::routerPolicyName(spec.serve.router));
    w.key("admission")
        .str(qos::admissionPolicyName(spec.serve.admission.policy));
    w.key("horizon_hours").fixed(spec.serve.horizon_hours, 2);
    w.key("interval_hours").fixed(spec.serve.interval_hours, 2);
    w.key("time_compression")
        .fixed(spec.serve.trace.time_compression, 0);
    if (std::isfinite(spec.serve.power_cap_w))
        w.key("power_cap_w").fixed(spec.serve.power_cap_w, 2);
    if (!spec.serve.power_cap_schedule.empty()) {
        w.key("power_cap_schedule").beginArray(util::JsonWriter::Inline);
        for (const cluster::PowerCapPoint& p :
             spec.serve.power_cap_schedule) {
            w.beginObject();
            w.key("from_hour").fixed(p.from_hour, 2);
            w.key("cap_w").fixed(p.cap_w, 2);
            w.endObject();
        }
        w.endArray();
    }
    w.key("estimated_r").fixed(r.serve.estimated_r, 4);
    w.key("trace_queries").integer(r.serve.trace_queries);
    w.key("reprovisions").integer(r.serve.reprovisions);
    w.key("shard_slots").integer(r.serve.shard_slots);
    w.key("profile_wall_ms").fixed(r.profile_wall_ms, 1);
    w.key("serve_wall_ms").fixed(r.serve_wall_ms, 1);

    // Fault timeline: every applied health transition. Always emitted
    // (empty array on fault-free runs) so consumers never key-check.
    w.key("health_transitions").beginArray();
    for (const sim::HealthTransition& ht : sim.health_transitions) {
        w.beginObject(util::JsonWriter::Inline);
        w.key("t_s").fixed(ht.t_s, 2);
        w.key("shard").integer(ht.shard);
        w.key("service").integer(ht.service);
        w.key("from").str(fault::healthStateName(ht.from));
        w.key("to").str(fault::healthStateName(ht.to));
        w.key("slowdown").fixed(ht.slowdown, 2);
        w.key("killed_inflight").integer(ht.killed_inflight);
        w.endObject();
    }
    w.endArray();

    writeRunSummary(w, sim, "services", [&](size_t s) {
        const ServiceScenario& svc = spec.services[s];
        w.key("name").str(svc.name);
        w.key("model").str(model::modelName(svc.spec.model));
        w.key("peak_qps").fixed(svc.spec.load.peak_qps, 1);
        w.key("peak_hour").fixed(svc.spec.load.peak_hour, 2);
        w.key("priority").integer(svc.spec.qos.priority);
        w.key("tier").str(qos::tierName(svc.spec.qos.tier));
        w.key("sla_ms").fixed(r.serve.service_sla_ms[s], 2);
        w.key("capacity_qps").fixed(r.serve.service_capacity_qps[s], 1);
    });
    w.endObject();
    return w.close();
}

}  // namespace hercules::scenario
