/**
 * @file
 * Online serving simulation: a heterogeneous cluster (CPU + NMP + GPU
 * servers) rides a day of synchronized diurnal load, re-provisioned
 * every interval by a choice of cluster scheduler.
 *
 * Two modes:
 *  - --scenario FILE: run a declarative scenario file (scenarios/
 *    *.scn, grammar in src/scenario/README.md) end to end through
 *    scenario::run() — a timestamped diurnal arrival trace flows
 *    through simulated server shards behind a query router, and the
 *    run reports tail latency, SLA violations, per-service QoS lines
 *    and any fault timeline, then writes BENCH_scenario.json. The file
 *    is the whole experiment: fleet, services, router, admission,
 *    power cap and faults are spec keys, not flags. --parse-only only
 *    parses and validates the file (CI lints the shipped library this
 *    way); --trace-out / --metrics-out override the spec's telemetry
 *    files. --lint FILE statically analyzes a file without running it;
 *  - analytic (default): the Fig 13 capacity view over a 24 h horizon
 *    at 0.5 h intervals — efficiency-tuple lookup, over-provision-rate
 *    estimation, interval-by-interval activation/release, provisioned
 *    power — under the hercules, greedy or nh scheduler.
 *
 * Usage: online_serving_sim [hercules|greedy|nh]
 *        online_serving_sim --scenario FILE [--parse-only]
 *          [--trace-out F] [--metrics-out F]
 *        online_serving_sim --lint FILE
 *
 * Unknown or malformed flags are named on stderr and exit non-zero.
 */
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "cluster/cluster_manager.h"
#include "core/profiler.h"
#include "fault/fault.h"
#include "qos/qos.h"
#include "scenario/lint.h"
#include "scenario/scenario.h"
#include "scenario/spec_io.h"
#include "util/table.h"

using namespace hercules;

namespace {

/** Fig 13's analytic horizon and re-provisioning interval (hours). */
constexpr double kHorizonHours = 24.0;
constexpr double kIntervalHours = 0.5;

struct Args
{
    std::string policy = "hercules";
    std::string scenario_file;  ///< --scenario: run this spec file
    bool parse_only = false;    ///< with --scenario: parse, don't run
    std::string lint_file;      ///< --lint: statically analyze a spec
    std::string trace_out;      ///< --trace-out: per-query JSONL spans
    std::string metrics_out;    ///< --metrics-out: metrics export
};

void
usage(const char* argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [hercules|greedy|nh]\n"
        "       %s --scenario F [--parse-only] [--trace-out F]\n"
        "                        [--metrics-out F]\n"
        "       %s --lint F\n"
        "  hercules|greedy|nh  analytic Fig 13 capacity view (24 h at\n"
        "                  0.5 h intervals) under that cluster\n"
        "                  scheduler (default hercules)\n"
        "  --scenario F    run scenario file F end to end: trace-driven\n"
        "                  serving with tail latency, SLA and QoS\n"
        "                  accounting (writes BENCH_scenario.json).\n"
        "                  Router, admission, priorities, power cap and\n"
        "                  faults are spec keys (src/scenario/README.md)\n"
        "  --trace-out F   with --scenario: write sampled per-query\n"
        "                  spans as JSONL to F (overrides the spec's\n"
        "                  observability.trace_file)\n"
        "  --metrics-out F with --scenario: write the metrics registry\n"
        "                  to F — .csv / .json by extension, else\n"
        "                  Prometheus-style text (overrides the\n"
        "                  spec's observability.metrics_file)\n"
        "  --parse-only    with --scenario: parse + validate the\n"
        "                  file, print its summary, don't run\n"
        "  --lint F        statically analyze scenario file F without\n"
        "                  running it: print every diagnostic (stable\n"
        "                  E1xx/W2xx codes, src/scenario/README.md)\n"
        "                  and exit 1 when any error is found; the\n"
        "                  spec's table_cache, when present on disk,\n"
        "                  enables the hardware-feasibility checks\n"
        "tip: --scenario scenarios/single_service.scn finishes in "
        "seconds.\n",
        argv0, argv0, argv0);
}

bool
parseArgs(int argc, char** argv, Args& out)
{
    auto reject = [&](const char* what, const std::string& a) {
        std::fprintf(stderr, "error: %s '%s'\n", what, a.c_str());
        return false;
    };
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        // Every flag but --parse-only takes a file operand.
        std::string* file = a == "--scenario"      ? &out.scenario_file
                            : a == "--lint"        ? &out.lint_file
                            : a == "--trace-out"   ? &out.trace_out
                            : a == "--metrics-out" ? &out.metrics_out
                                                   : nullptr;
        if (a == "hercules" || a == "greedy" || a == "nh") {
            out.policy = a;
        } else if (a == "--parse-only") {
            out.parse_only = true;
        } else if (file != nullptr) {
            if (i + 1 >= argc)
                return reject("missing file after", a);
            *file = argv[++i];
        } else {
            return reject("unknown flag", a);
        }
    }
    // The --scenario modifiers mean nothing to the analytic view:
    // refuse them rather than exit 0 having written no file.
    if (out.scenario_file.empty()) {
        if (out.parse_only)
            return reject("--parse-only requires", "--scenario");
        if (!out.trace_out.empty())
            return reject("--trace-out requires", "--scenario");
        if (!out.metrics_out.empty())
            return reject("--metrics-out requires", "--scenario");
    }
    return true;
}

/**
 * The per-service QoS accounting lines every scenario run prints:
 * admitted vs rejected (admission control) vs dropped (no capacity),
 * and the violation count behind the rate.
 */
void
printQosLines(const std::vector<sim::ServiceRunStats>& services,
              const scenario::ScenarioSpec& spec)
{
    for (size_t s = 0; s < services.size(); ++s) {
        const sim::ServiceRunStats& svc = services[s];
        size_t offered = svc.injected + svc.dropped + svc.rejected;
        std::printf("  qos %-12s admitted %zu/%zu, rejected %zu, "
                    "dropped %zu, violations %zu (%.2f%%)\n",
                    spec.services[s].name.c_str(), svc.injected,
                    offered, svc.rejected, svc.dropped,
                    svc.sla_violations,
                    svc.sla_violation_rate * 100.0);
    }
}

/**
 * Run one spec end to end and print the serving report. scenario::run
 * profiles (or loads) the table itself, so BENCH_scenario.json
 * attributes that time to profile_wall_ms.
 */
int
runSpec(const scenario::ScenarioSpec& spec)
{
    std::printf("profiling the fleet...\n");

    const size_t S = spec.services.size();
    std::printf("scenario '%s': fleet", spec.name.c_str());
    for (const scenario::FleetEntry& e : spec.fleet)
        std::printf(" %s x%d", hw::serverTypeName(e.type),
                    e.shard_slots);
    std::printf(", %zu service%s, router %s, admission %s, "
                "provisioner %s\n\n",
                S, S == 1 ? "" : "s",
                sim::routerPolicyName(spec.serve.router),
                qos::admissionPolicyName(spec.serve.admission.policy),
                scenario::provisionerKindName(spec.provisioner));

    scenario::ScenarioResult r = scenario::run(spec);
    const sim::ClusterSimResult& sim = r.serve.sim;
    const scenario::ScenarioSpec& rs = r.resolved;

    TablePrinter t({"Service", "Peak QPS", "SLA (ms)", "Completed",
                    "Dropped", "p50 (ms)", "p99 (ms)", "SLA viol"});
    for (size_t s = 0; s < S; ++s) {
        const sim::ServiceRunStats& svc = sim.services[s];
        t.addRow({rs.services[s].name,
                  fmtEng(rs.services[s].spec.load.peak_qps, 1),
                  fmtDouble(r.serve.service_sla_ms[s], 0),
                  std::to_string(svc.completed),
                  std::to_string(svc.dropped),
                  fmtDouble(svc.p50_ms, 2), fmtDouble(svc.p99_ms, 2),
                  fmtPercent(svc.sla_violation_rate, 2)});
    }
    t.print();
    std::printf("\n");

    if (S == 1) {
        // Single-service runs keep the per-interval trajectory view.
        TablePrinter iv_t({"Hour", "Offered QPS", "Shards", "p50 (ms)",
                           "p99 (ms)", "SLA viol", "Prov kW",
                           "Cons kW"});
        size_t stride =
            std::max<size_t>(1, sim.intervals.size() / 16);
        for (size_t i = 0; i < sim.intervals.size(); i += stride) {
            const sim::IntervalStats& iv = sim.intervals[i];
            double hour =
                static_cast<double>(i) * spec.serve.interval_hours;
            iv_t.addRow({fmtDouble(hour, 1), fmtEng(iv.offered_qps, 1),
                         std::to_string(iv.active_shards),
                         fmtDouble(iv.p50_ms, 2),
                         fmtDouble(iv.p99_ms, 2),
                         fmtPercent(iv.sla_violation_rate, 1),
                         fmtDouble(iv.provisioned_power_w / 1e3, 3),
                         fmtDouble(iv.consumed_power_w / 1e3, 3)});
        }
        iv_t.print();
        std::printf("\n");
    }
    printQosLines(sim.services, rs);

    if (!sim.health_transitions.empty()) {
        std::printf("\nfault timeline (%zu shard transitions, trace "
                    "hours):\n",
                    sim.health_transitions.size());
        for (const sim::HealthTransition& ht :
             sim.health_transitions) {
            double hour =
                ht.t_s * rs.serve.trace.time_compression / 3600.0;
            std::printf("  h %6.2f  shard %-3d (%s)  %s -> %s", hour,
                        ht.shard,
                        rs.services[static_cast<size_t>(ht.service)]
                            .name.c_str(),
                        fault::healthStateName(ht.from),
                        fault::healthStateName(ht.to));
            if (ht.to == fault::HealthState::Degraded)
                std::printf(" x%g", ht.slowdown);
            if (ht.killed_inflight > 0)
                std::printf("  (killed %zu in-flight)",
                            ht.killed_inflight);
            std::printf("\n");
        }
    }

    std::printf("\n%zu queries served end to end: p50 %.2f ms, p99 "
                "%.2f ms, max %.1f ms\n",
                sim.completed, sim.p50_ms, sim.p99_ms, sim.max_ms);
    std::printf("SLA violations: %.2f%%;  rejected: %zu (retries "
                "%zu);  dropped: %zu;  re-provisions: %d;  avg power: "
                "%.2f kW provisioned / %.2f kW consumed\n",
                sim.sla_violation_rate * 100.0, sim.rejected,
                sim.admission_retries, sim.dropped,
                r.serve.reprovisions,
                sim.avg_provisioned_power_w / 1e3,
                sim.avg_consumed_power_w / 1e3);
    // A "wrote" line only for files that were written; any failed
    // artifact (already warned about) makes the run exit 1.
    auto written = [&](const std::string& path) {
        return !path.empty() &&
               std::find(r.failed_writes.begin(), r.failed_writes.end(),
                         path) == r.failed_writes.end();
    };
    if (written(rs.observability.trace_file))
        std::printf("wrote %s (per-query trace, sample rate %g)\n",
                    rs.observability.trace_file.c_str(),
                    rs.observability.sample_rate);
    if (written(rs.observability.metrics_file))
        std::printf("wrote %s (metrics registry)\n",
                    rs.observability.metrics_file.c_str());
    bool ok = scenario::writeResultJson("BENCH_scenario.json", r,
                                        bench::gitSha());
    if (ok)
        std::printf("wrote BENCH_scenario.json\n");
    else
        warn("cannot write 'BENCH_scenario.json'");
    return ok && r.failed_writes.empty() ? 0 : 1;
}

/**
 * --lint: static semantic analysis of one spec file. Never simulates;
 * the spec's table_cache (when it exists and parses) additionally
 * enables the efficiency-table checks. Exit 1 on any E1xx error (or a
 * file that does not parse), 0 otherwise — warnings are printed but
 * never block.
 */
int
lintScenarioFile(const std::string& path)
{
    std::string err;
    auto spec = scenario::loadSpecFile(path, &err);
    if (!spec.has_value()) {
        std::fprintf(stderr, "%s: parse error: %s\n", path.c_str(),
                     err.c_str());
        return 1;
    }
    std::optional<core::EfficiencyTable> table;
    if (!spec->profile.table_cache.empty() &&
        std::filesystem::exists(spec->profile.table_cache))
        table =
            core::EfficiencyTable::tryReadCsv(spec->profile.table_cache);

    std::vector<scenario::Diagnostic> ds =
        scenario::lint(*spec, table.has_value() ? &*table : nullptr);
    size_t errors = 0, warnings = 0;
    for (const scenario::Diagnostic& d : ds) {
        (d.severity == scenario::Severity::Error ? errors : warnings)++;
        std::fprintf(d.severity == scenario::Severity::Error ? stderr
                                                             : stdout,
                     "%s: %s\n", path.c_str(),
                     scenario::formatDiagnostic(d).c_str());
    }
    if (ds.empty())
        std::printf("%s: clean — 0 diagnostics (scenario '%s'%s)\n",
                    path.c_str(), spec->name.c_str(),
                    table.has_value() ? ", table-aware checks on"
                                      : "");
    else
        std::printf("%s: %zu error%s, %zu warning%s\n", path.c_str(),
                    errors, errors == 1 ? "" : "s", warnings,
                    warnings == 1 ? "" : "s");
    return errors > 0 ? 1 : 0;
}

int
runScenarioFile(const Args& args)
{
    std::string err;
    auto spec = scenario::loadSpecFile(args.scenario_file, &err);
    if (!spec.has_value()) {
        std::fprintf(stderr, "error: %s\n", err.c_str());
        return 1;
    }
    // Parsing alone accepts specs that cannot run (empty fleet,
    // unsorted cap schedule, ...): lint with the same semantic checks
    // run() enforces, so --parse-only catches them at exit 1 instead
    // of CI discovering a fatal() later.
    if (!scenario::validateSpec(*spec, &err)) {
        std::fprintf(stderr, "error: %s: %s\n",
                     args.scenario_file.c_str(), err.c_str());
        return 1;
    }
    if (args.parse_only) {
        std::printf("%s: ok — scenario '%s' (%zu fleet type%s, %zu "
                    "service%s, %.0fh horizon)\n",
                    args.scenario_file.c_str(), spec->name.c_str(),
                    spec->fleet.size(),
                    spec->fleet.size() == 1 ? "" : "s",
                    spec->services.size(),
                    spec->services.size() == 1 ? "" : "s",
                    spec->serve.horizon_hours);
        return 0;
    }
    // CLI telemetry overrides beat the spec's observability block, so
    // any scenario can be traced without editing its file.
    if (!args.trace_out.empty())
        spec->observability.trace_file = args.trace_out;
    if (!args.metrics_out.empty())
        spec->observability.metrics_file = args.metrics_out;
    return runSpec(*spec);
}

int
runAnalytic(cluster::Provisioner& policy,
            const core::EfficiencyTable& table,
            const std::vector<hw::ServerType>& fleet,
            const std::vector<model::ModelId>& services)
{
    cluster::ProvisionProblem problem =
        cluster::ProvisionProblem::fromTable(table, fleet, services);

    std::vector<cluster::ClusterWorkload> workloads(2);
    workloads[0].model = services[0];
    workloads[0].load.peak_qps = 60'000;
    workloads[0].load.seed = 5;
    workloads[1].model = services[1];
    workloads[1].load.peak_qps = 12'000;
    workloads[1].load.seed = 6;

    // The over-provision rate R comes from the load history (paper
    // §IV-C): the largest inter-interval increase.
    workload::DiurnalLoad probe(workloads[0].load);
    double r = cluster::estimateOverprovisionRate(probe, kIntervalHours);
    std::printf("estimated over-provision rate R = %.1f%%\n\n", r * 100.0);

    cluster::ClusterManagerOptions opt;
    opt.horizon_hours = kHorizonHours;
    opt.interval_hours = kIntervalHours;
    opt.overprovision_rate = r;
    cluster::ClusterRunResult run =
        cluster::runCluster(problem, workloads, policy, opt);

    TablePrinter t({"Hour", "RMC1 load", "RMC2 load", "T2 on", "T3 on",
                    "T7 on", "Power (kW)", "OK"});
    for (size_t i = 0; i < run.intervals.size(); i += 3) {
        const auto& iv = run.intervals[i];
        t.addRow({fmtDouble(iv.t_hours, 1), fmtEng(iv.loads[0], 1),
                  fmtEng(iv.loads[1], 1),
                  std::to_string(iv.alloc.activatedOfType(0)),
                  std::to_string(iv.alloc.activatedOfType(1)),
                  std::to_string(iv.alloc.activatedOfType(2)),
                  fmtDouble(iv.provisioned_power_w / 1e3, 2),
                  iv.satisfied ? "y" : "N"});
    }
    t.print();

    std::printf("\npeak: %d servers / %.1f kW;  average: %.1f servers / "
                "%.1f kW;  unsatisfied intervals: %d\n",
                run.peak_servers, run.peak_power_w / 1e3,
                run.avg_servers, run.avg_power_w / 1e3,
                run.unsatisfied_intervals);
    std::printf("tip: run with 'greedy' or 'nh' to compare policies, or "
                "--scenario scenarios/<file>.scn for end-to-end "
                "latency.\n");
    return 0;
}

std::unique_ptr<cluster::Provisioner>
makePolicy(const std::string& name)
{
    if (name == "greedy")
        return std::make_unique<cluster::GreedyProvisioner>();
    if (name == "nh")
        return std::make_unique<cluster::NhProvisioner>(17);
    return std::make_unique<cluster::HerculesProvisioner>();
}

}  // namespace

int
main(int argc, char** argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        usage(argv[0]);
        return 2;
    }

    if (!args.lint_file.empty())
        return lintScenarioFile(args.lint_file);

    if (!args.scenario_file.empty())
        return runScenarioFile(args);

    std::unique_ptr<cluster::Provisioner> policy =
        makePolicy(args.policy);
    std::printf("== %.0fh online serving (%s scheduler, analytic mode) "
                "==\n\n",
                kHorizonHours, policy->name());

    const std::vector<hw::ServerType> fleet = {
        hw::ServerType::T2, hw::ServerType::T3, hw::ServerType::T7};
    const std::vector<model::ModelId> services = {
        model::ModelId::DlrmRmc1, model::ModelId::DlrmRmc2};

    std::printf("profiling the fleet...\n");
    core::ProfilerOptions popt;
    popt.servers = fleet;
    popt.models = services;
    core::EfficiencyTable table = core::offlineProfile(popt);
    return runAnalytic(*policy, table, fleet, services);
}
