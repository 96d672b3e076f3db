/**
 * @file
 * Telemetry overhead: the three_service_phase_shift 24h replay run
 * three ways over one shared efficiency table —
 *
 *  - OFF:     observability disabled (the baseline every other bench
 *             and test runs at);
 *  - METRICS: metrics registry sampling + export, no per-query trace;
 *  - TRACE:   full per-query tracing (sample rate 1.0) + metrics.
 *
 * Two gates:
 *
 *  1. Determinism — all three arms must report bit-identical simulated
 *     statistics (completed/dropped/rejected counts, p99, violation
 *     rate, power). Telemetry observes the DES; it must never perturb
 *     it. Any mismatch exits non-zero.
 *  2. Overhead — the TRACE arm's serve wall time must stay within
 *     kMaxTraceOverhead of OFF. Skipped when the baseline runs too
 *     fast for a stable ratio (kMinGateWallMs).
 *
 * Results land in BENCH_obs.json. Fast mode (HERCULES_BENCH_FAST=1):
 * 6h horizon, reduced profiling probes.
 */
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "scenario/scenario.h"
#include "util/table.h"

using namespace hercules;

namespace {

/** TRACE wall budget as a multiple of the OFF arm's wall time. */
constexpr double kMaxTraceOverhead = 1.15;
/** Below this OFF wall time the overhead ratio is noise: skip gate. */
constexpr double kMinGateWallMs = 200.0;

/** One telemetry arm: its run and the trace records it exported. */
struct Arm
{
    std::string name;
    scenario::ScenarioResult r;
    size_t trace_records = 0;
};

/** Count newline-terminated records of a JSONL file; 0 when absent. */
size_t
countLines(const std::string& path)
{
    FILE* f = std::fopen(path.c_str(), "r");
    if (f == nullptr)
        return 0;
    size_t n = 0;
    int c;
    while ((c = std::fgetc(f)) != EOF)
        if (c == '\n')
            ++n;
    std::fclose(f);
    return n;
}

Arm
runArm(const std::string& name, const scenario::ScenarioSpec& spec,
       const core::EfficiencyTable& table)
{
    Arm arm{name, scenario::run(spec, &table)};
    if (!spec.observability.trace_file.empty())
        arm.trace_records = countLines(spec.observability.trace_file);
    return arm;
}

/** @return mismatch description, empty when the arms agree exactly. */
std::string
compareArms(const Arm& a, const Arm& b)
{
    char buf[160];
    auto fail = [&](const char* what) {
        std::snprintf(buf, sizeof(buf), "%s differs between %s and %s",
                      what, a.name.c_str(), b.name.c_str());
        return std::string(buf);
    };
    const sim::ClusterSimResult& x = a.r.serve.sim;
    const sim::ClusterSimResult& y = b.r.serve.sim;
    const std::pair<const char*, bool> same[] = {
        {"completed", x.completed == y.completed},
        {"dropped", x.dropped == y.dropped},
        {"rejected", x.rejected == y.rejected},
        {"sla_violations", x.sla_violations == y.sla_violations},
        {"p99_ms", x.p99_ms == y.p99_ms},
        {"sla_violation_rate",
         x.sla_violation_rate == y.sla_violation_rate},
        {"avg_provisioned_power_w",
         x.avg_provisioned_power_w == y.avg_provisioned_power_w},
        {"avg_consumed_power_w",
         x.avg_consumed_power_w == y.avg_consumed_power_w},
        {"des_events_executed",
         x.des.events_executed == y.des.events_executed},
    };
    for (const auto& [what, ok] : same)
        if (!ok)
            return fail(what);
    return "";
}

void
writeJson(const std::vector<Arm>& arms,
          const std::vector<model::ModelId>& models, bool gated,
          double overhead_frac)
{
    const char* path = "BENCH_obs.json";
    util::JsonWriter w(path);
    w.beginObject();
    w.key("git_sha").str(bench::gitSha());
    w.key("generated_at").str(isoUtcTimestamp());
    w.key("experiment").str("obs_overhead");
    w.key("scenario").str("three_service_phase_shift");
    w.key("bit_identical").boolean(true);
    w.key("overhead_gated").boolean(gated);
    w.key("trace_overhead_frac").fixed(overhead_frac, 4);
    w.key("arms").beginArray();
    for (const Arm& a : arms) {
        w.beginObject();
        w.key("name").str(a.name);
        w.key("serve_wall_ms").fixed(a.r.serve_wall_ms, 1);
        bench::writeArmSummary(w, a.r.serve.sim, models);
        w.key("trace_records").integer(a.trace_records);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    bench::closeJson(w, path);
}

}  // namespace

int
main()
{
    bench::banner("Telemetry overhead",
                  "three_service_phase_shift replayed off / "
                  "metrics-only / full-tracing over one shared table");

    scenario::ScenarioSpec base =
        bench::loadScenario("three_service_phase_shift.scn");
    if (bench::fastMode()) {
        base.serve.horizon_hours = 6.0;
        base.profile.table_cache = "hercules_efficiency_obs_fast.csv";
        base.profile.num_queries = 250;
        base.profile.warmup_queries = 50;
        base.profile.bisect_iters = 4;
    }

    core::EfficiencyTable table = scenario::profileTable(base);

    scenario::ScenarioSpec off = base;

    scenario::ScenarioSpec metrics = base;
    metrics.observability.metrics_file = "obs_overhead_metrics.csv";

    scenario::ScenarioSpec trace = base;
    trace.observability.metrics_file = "obs_overhead_metrics.csv";
    trace.observability.trace_file = "obs_overhead_trace.jsonl";
    trace.observability.sample_rate = 1.0;

    std::vector<Arm> arms;
    arms.push_back(runArm("off", off, table));
    arms.push_back(runArm("metrics", metrics, table));
    arms.push_back(runArm("trace", trace, table));

    TablePrinter t({"Arm", "Wall (ms)", "Completed", "p99 (ms)",
                    "Viol rate", "Trace recs"});
    for (const Arm& a : arms)
        t.addRow({a.name, fmtDouble(a.r.serve_wall_ms, 1),
                  std::to_string(a.r.serve.sim.completed),
                  fmtDouble(a.r.serve.sim.p99_ms, 2),
                  fmtPercent(a.r.serve.sim.sla_violation_rate, 2),
                  std::to_string(a.trace_records)});
    t.print();

    // Gate 1: telemetry must not perturb the simulation.
    for (size_t i = 1; i < arms.size(); ++i) {
        std::string diff = compareArms(arms[0], arms[i]);
        if (!diff.empty()) {
            std::fprintf(stderr,
                         "FAIL: telemetry perturbed the simulation: "
                         "%s\n",
                         diff.c_str());
            return 1;
        }
    }
    std::printf("\nall arms bit-identical on simulated statistics\n");

    // Gate 2: full tracing stays cheap. The ratio is only meaningful
    // once the baseline wall time dominates timer noise.
    double base_wall = arms[0].r.serve_wall_ms;
    double trace_wall = arms[2].r.serve_wall_ms;
    double overhead =
        base_wall > 0.0 ? trace_wall / base_wall - 1.0 : 0.0;
    bool gated = base_wall >= kMinGateWallMs;
    if (gated) {
        std::printf("tracing overhead %.1f%% (budget %.0f%%)\n",
                    overhead * 100.0, (kMaxTraceOverhead - 1.0) * 100.0);
        if (trace_wall > base_wall * kMaxTraceOverhead) {
            std::fprintf(stderr,
                         "FAIL: tracing overhead %.1f%% exceeds "
                         "%.0f%% budget (off %.1f ms, trace %.1f ms)\n",
                         overhead * 100.0,
                         (kMaxTraceOverhead - 1.0) * 100.0, base_wall,
                         trace_wall);
            return 1;
        }
    } else {
        std::printf("baseline wall %.1f ms < %.0f ms: overhead gate "
                    "skipped (ratio would be timer noise)\n",
                    base_wall, kMinGateWallMs);
    }

    std::vector<model::ModelId> models;
    for (const scenario::ServiceScenario& s : base.services)
        models.push_back(s.spec.model);
    writeJson(arms, models, gated, overhead);
    return 0;
}
