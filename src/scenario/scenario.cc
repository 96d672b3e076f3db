#include "scenario/scenario.h"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>

#include "core/fingerprint.h"
#include "obs/self_profile.h"
#include "scenario/lint.h"
#include "util/json.h"
#include "util/logging.h"

namespace hercules::scenario {

namespace {

/**
 * False when lint(spec, table) reports an error; *error then holds
 * "scenario '<name>': " and every error's formatDiagnostic line,
 * joined by "; ".
 */
bool
lintClean(const ScenarioSpec& spec, const core::EfficiencyTable* table,
          std::string* error)
{
    std::string errs;
    for (const Diagnostic& d : lint(spec, table))
        if (d.severity == Severity::Error)
            errs += (errs.empty() ? "" : "; ") + formatDiagnostic(d);
    if (!errs.empty() && error != nullptr)
        *error = "scenario '" + spec.name + "': " + errs;
    return errs.empty();
}

void
validate(const ScenarioSpec& spec, const core::EfficiencyTable* table)
{
    std::string err;
    if (!lintClean(spec, table, &err))
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

/** The outcome counts and latency of one service, or of the run. */
void
writeRunStats(util::JsonWriter& w, const sim::RunStats& st)
{
    w.key("completed").integer(st.completed);
    w.key("rejected").integer(st.rejected);
    w.key("dropped").integer(st.dropped);
    w.key("failed_inflight").integer(st.failed_inflight);
    w.key("p50_ms").fixed(st.p50_ms, 4);
    w.key("p99_ms").fixed(st.p99_ms, 4);
    w.key("sla_violations").integer(st.sla_violations);
    w.key("sla_violation_rate").fixed(st.sla_violation_rate, 6);
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
    return lintClean(spec, nullptr, error);
}

namespace {

/** The profiler options a spec's table is measured under. */
core::ProfilerOptions
profilerOptions(const ScenarioSpec& spec)
{
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
    return popt;
}

/**
 * What a table cache must have been produced by to be reused: this
 * build (its fingerprint) and every profile option that moves a cell.
 */
std::string
tableProvenance(const ScenarioSpec& spec)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "fp=%s num_queries=%d warmup_queries=%d bisect_iters=%d "
                  "seed=%llu",
                  core::buildFingerprintHex().c_str(),
                  spec.profile.num_queries, spec.profile.warmup_queries,
                  spec.profile.bisect_iters,
                  static_cast<unsigned long long>(spec.profile.seed));
    return buf;
}

}  // namespace

std::optional<core::EfficiencyTable>
cachedTable(const ScenarioSpec& spec)
{
    const std::string& path = spec.profile.table_cache;
    if (path.empty() || !std::filesystem::exists(path))
        return std::nullopt;
    std::string provenance;
    auto cached = core::EfficiencyTable::tryReadCsv(path, &provenance);
    if (!cached.has_value()) {
        warn("table cache %s is malformed; not reused", path.c_str());
        return std::nullopt;
    }
    const std::string want = tableProvenance(spec);
    if (provenance != want) {
        warn("table cache %s was profiled by '%s', this run needs '%s'; "
             "not reused",
             path.c_str(), provenance.c_str(), want.c_str());
        return std::nullopt;
    }
    // The spec's cells, in the order offlineProfile() inserts them.
    const core::ProfilerOptions popt = profilerOptions(spec);
    core::EfficiencyTable table;
    for (model::ModelId m : popt.models)
        for (hw::ServerType t : popt.servers) {
            const core::EfficiencyEntry* e = cached->get(t, m);
            if (e == nullptr) {
                warn("table cache %s lacks %s on %s; not reused",
                     path.c_str(), model::modelName(m),
                     hw::serverTypeName(t));
                return std::nullopt;
            }
            table.set(*e);
        }
    return table;
}

core::EfficiencyTable
profileTable(const ScenarioSpec& spec)
{
    validate(spec, nullptr);
    if (auto cached = cachedTable(spec))
        return *cached;

    core::ProfilerOptions popt = profilerOptions(spec);

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
        table.writeCsv(spec.profile.table_cache, tableProvenance(spec));
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
    // Reject a spec lint finds an error in before any profiling or
    // trace generation spends time on it.
    validate(spec, table);

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
    w.key(services_key).beginArray();
    for (size_t s = 0; s < r.services.size(); ++s) {
        w.beginObject(util::JsonWriter::Inline);
        service_head(s);
        writeRunStats(w, r.services[s]);
        w.endObject();
    }
    w.endArray();
    writeRunStats(w, r);
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
