/**
 * @file
 * Tests of the scenario semantic linter (src/scenario/lint.h): every
 * diagnostic code fires with its exact code/path/message on a
 * C++-seeded defective spec, every seeded-defect file in
 * tests/lint_specs/ yields exactly the one diagnostic its filename
 * names, every shipped .scn in scenarios/ lints to zero diagnostics,
 * every ranged schema key is rejected alike by lint, validateSpec and
 * the parser, and scenario::run() rejects an erroneous spec before
 * profiling.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "cluster/serving.h"
#include "core/efficiency_table.h"
#include "fault/fault.h"
#include "model/model_zoo.h"
#include "scenario/lint.h"
#include "scenario/scenario.h"
#include "scenario/spec_io.h"

namespace hercules::scenario {
namespace {

using hw::ServerType;
using model::ModelId;

std::string
scenarioDir()
{
#ifdef HERCULES_SCENARIO_DIR
    return HERCULES_SCENARIO_DIR;
#else
    return "../scenarios";
#endif
}

std::string
lintSpecDir()
{
#ifdef HERCULES_LINT_SPEC_DIR
    return HERCULES_LINT_SPEC_DIR;
#else
    return "../tests/lint_specs";
#endif
}

/** A minimal spec that lints clean (table-free). */
ScenarioSpec
cleanSpec()
{
    ScenarioSpec s;
    s.name = "clean";
    s.fleet = {{ServerType::T2, 2}};
    ServiceScenario svc;
    svc.spec.model = ModelId::DlrmRmc1;
    svc.spec.load.peak_qps = 100.0;
    s.services = {svc};
    return s;
}

const Diagnostic*
findCode(const std::vector<Diagnostic>& ds, const std::string& code)
{
    for (const Diagnostic& d : ds)
        if (d.code == code)
            return &d;
    return nullptr;
}

/** Lint, then assert diagnostic `code` fired at `path` with `message`. */
void
expectDiagnostic(const ScenarioSpec& s, const std::string& code,
                 Severity sev, const std::string& path,
                 const std::string& message,
                 const core::EfficiencyTable* table = nullptr)
{
    std::vector<Diagnostic> ds = lint(s, table);
    const Diagnostic* d = findCode(ds, code);
    ASSERT_NE(d, nullptr) << "diagnostic " << code << " did not fire";
    EXPECT_EQ(d->severity, sev) << code;
    EXPECT_EQ(d->path, path) << code;
    EXPECT_EQ(d->message, message) << code;
}

// ---- baseline ------------------------------------------------------------

TEST(Lint, CleanSpecHasZeroDiagnostics)
{
    EXPECT_TRUE(lint(cleanSpec()).empty());
}

TEST(Lint, FormatDiagnosticShape)
{
    Diagnostic d{"E106", Severity::Error, "cap too low",
                 "power_cap_w"};
    EXPECT_EQ(formatDiagnostic(d),
              "E106 error at power_cap_w: cap too low");
    Diagnostic w{"W206", Severity::Warning, "over-committed", ""};
    EXPECT_EQ(formatDiagnostic(w), "W206 warning: over-committed");
}

TEST(Lint, HasErrorsDistinguishesSeverity)
{
    std::vector<Diagnostic> warn_only{
        {"W201", Severity::Warning, "m", "p"}};
    EXPECT_FALSE(hasErrors(warn_only));
    warn_only.push_back({"E101", Severity::Error, "m", "p"});
    EXPECT_TRUE(hasErrors(warn_only));
    EXPECT_FALSE(hasErrors({}));
}

// ---- structural errors ---------------------------------------------------

TEST(Lint, E101EmptyFleet)
{
    ScenarioSpec s = cleanSpec();
    s.fleet.clear();
    expectDiagnostic(s, "E101", Severity::Error, "fleet",
                     "empty fleet: the scenario has no servers to "
                     "provision");
}

TEST(Lint, E102NoServices)
{
    ScenarioSpec s = cleanSpec();
    s.services.clear();
    expectDiagnostic(s, "E102", Severity::Error, "services",
                     "no services: the scenario has nothing to serve");
}

TEST(Lint, E103NegativeSlots)
{
    ScenarioSpec s = cleanSpec();
    s.fleet[0].shard_slots = -2;
    expectDiagnostic(s, "E103", Severity::Error, "fleet[0].slots",
                     "negative shard slots (-2) for T2");
}

TEST(Lint, E104NonPositiveHorizonAndInterval)
{
    ScenarioSpec s = cleanSpec();
    s.serve.horizon_hours = 0.0;
    s.serve.interval_hours = -0.25;
    expectDiagnostic(s, "E104", Severity::Error, "horizon_hours",
                     "horizon_hours must be positive (got 0)");
    std::vector<Diagnostic> ds = lint(s);
    bool interval = false;
    for (const Diagnostic& d : ds)
        interval = interval || (d.code == "E104" &&
                                d.path == "interval_hours");
    EXPECT_TRUE(interval);
}

// ---- power-cap checks ----------------------------------------------------

TEST(Lint, E105UnsortedSchedule)
{
    ScenarioSpec s = cleanSpec();
    s.serve.power_cap_schedule = {{12.0, 500.0}, {6.0, 400.0}};
    expectDiagnostic(s, "E105", Severity::Error,
                     "power_cap_schedule[1]",
                     "power_cap_schedule not sorted by from_hour (6 "
                     "after 12)");
    // A malformed schedule suppresses the derived cap checks: E106
    // against bogus segments would be noise.
    EXPECT_EQ(findCode(lint(s), "E106"), nullptr);
}

TEST(Lint, E105NegativeSchedulePoint)
{
    ScenarioSpec s = cleanSpec();
    s.serve.power_cap_schedule = {{-1.0, 500.0}};
    std::vector<Diagnostic> ds = lint(s);
    const Diagnostic* d = findCode(ds, "E105");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->path, "power_cap_schedule[0].from_hour");
}

TEST(Lint, E105InfiniteScheduleHour)
{
    ScenarioSpec s = cleanSpec();
    s.serve.power_cap_schedule = {
        {std::numeric_limits<double>::infinity(), 500.0}};
    expectDiagnostic(s, "E105", Severity::Error,
                     "power_cap_schedule[0].from_hour",
                     "from_hour must be finite (got inf)");
}

TEST(Lint, E106ScalarCapBelowIdleDraw)
{
    ScenarioSpec s = cleanSpec();
    s.serve.power_cap_w = 1.0;
    std::vector<Diagnostic> ds = lint(s);
    const Diagnostic* d = findCode(ds, "E106");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->severity, Severity::Error);
    EXPECT_EQ(d->path, "power_cap_w");
    EXPECT_NE(d->message.find("below the cheapest single-server idle "
                              "draw"),
              std::string::npos);
    EXPECT_NE(d->message.find("sheds the whole fleet and serves "
                              "nothing"),
              std::string::npos);
}

TEST(Lint, E106ScheduleSegmentBelowIdleDraw)
{
    ScenarioSpec s = cleanSpec();
    // Scalar cap generous; one in-horizon segment dips below idle.
    s.serve.power_cap_w = 100000.0;
    s.serve.power_cap_schedule = {{6.0, 2.0}, {12.0, 100000.0}};
    std::vector<Diagnostic> ds = lint(s);
    const Diagnostic* d = findCode(ds, "E106");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->path, "power_cap_schedule[0].cap_w");
}

TEST(Lint, W208DeadScheduleSegmentSkipsCapCheck)
{
    ScenarioSpec s = cleanSpec();
    // Out-of-horizon segment below idle: dead knob, not a fatal cap.
    s.serve.power_cap_schedule = {{30.0, 1.0}};
    std::vector<Diagnostic> ds = lint(s);
    const Diagnostic* d = findCode(ds, "W208");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->severity, Severity::Warning);
    EXPECT_EQ(d->path, "power_cap_schedule[0]");
    EXPECT_EQ(d->message,
              "schedule point at hour 30 starts at/after the 24h "
              "horizon: dead segment");
    EXPECT_EQ(findCode(ds, "E106"), nullptr);
}

// ---- service checks ------------------------------------------------------

TEST(Lint, W201SurgeWindowOutsideHorizon)
{
    ScenarioSpec s = cleanSpec();
    s.services[0].spec.load.surge_hour = 30.0;
    s.services[0].spec.load.surge_hours = 2.0;
    s.services[0].spec.load.surge_factor = 3.0;
    expectDiagnostic(s, "W201", Severity::Warning,
                     "services[0].surge_hour",
                     "surge window [30h, 32h) lies entirely outside "
                     "the 24h horizon: dead knob");
    // An in-horizon surge is fine.
    s.services[0].spec.load.surge_hour = 19.0;
    EXPECT_EQ(findCode(lint(s), "W201"), nullptr);
}

TEST(Lint, W205FeedbackRouterSingleShard)
{
    ScenarioSpec s = cleanSpec();
    s.fleet = {{ServerType::T2, 1}};
    s.serve.router = sim::RouterPolicy::LatencyFeedback;
    std::vector<Diagnostic> ds = lint(s);
    const Diagnostic* d = findCode(ds, "W205");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->path, "router");
    // Two shards give the feedback loop something to do: no warning.
    s.fleet = {{ServerType::T2, 2}};
    EXPECT_EQ(findCode(lint(s), "W205"), nullptr);
}

TEST(Lint, W206FracSumOverCommitted)
{
    ScenarioSpec s = cleanSpec();
    s.services[0].peak_qps_frac = 0.7;
    ServiceScenario second;
    second.spec.model = ModelId::DlrmRmc2;
    second.peak_qps_frac = 0.6;
    s.services.push_back(second);
    expectDiagnostic(s, "W206", Severity::Warning, "services",
                     "peak_qps_frac values sum to 1.3 > 1: at "
                     "coincident peaks the services demand more than "
                     "the full fleet's capacity, so provisioning can "
                     "never fit");
    s.services[1].peak_qps_frac = 0.3;
    EXPECT_EQ(findCode(lint(s), "W206"), nullptr);
}

TEST(Lint, W210ZeroSlotFleetEntry)
{
    ScenarioSpec s = cleanSpec();
    s.fleet.push_back({ServerType::T3, 0});
    expectDiagnostic(s, "W210", Severity::Warning, "fleet[1].slots",
                     "fleet entry T3 has zero slots: it can never "
                     "host a shard (dead entry)");
}

// ---- admission -----------------------------------------------------------

TEST(Lint, W207DeadlineSlackLooserThanSla)
{
    ScenarioSpec s = cleanSpec();
    s.serve.admission.policy = qos::AdmissionPolicy::Deadline;
    s.serve.admission.deadline_slack = 1.5;
    expectDiagnostic(s, "W207", Severity::Warning,
                     "admission.deadline_slack",
                     "deadline_slack 1.5 > 1 makes the admission "
                     "deadline looser than the SLA: queries admitted "
                     "under it can still violate, so the deadline "
                     "cannot protect the SLA (dead knob)");
}

// ---- observability -------------------------------------------------------

TEST(Lint, W211SampleRateWithoutTraceFile)
{
    ScenarioSpec s = cleanSpec();
    s.observability.metrics_file = "metrics.txt";
    s.observability.sample_rate = 0.5;
    expectDiagnostic(s, "W211", Severity::Warning,
                     "observability.sample_rate",
                     "sample_rate 0.5 is set but no trace_file is "
                     "configured: sampling only thins the per-query "
                     "trace, so the knob does nothing (dead knob)");
    // With a trace output the knob is live: no warning.
    s.observability.trace_file = "trace.jsonl";
    EXPECT_EQ(findCode(lint(s), "W211"), nullptr);
}

TEST(Lint, W211TraceFileWithZeroSampleRate)
{
    ScenarioSpec s = cleanSpec();
    s.observability.trace_file = "trace.jsonl";
    s.observability.sample_rate = 0.0;
    expectDiagnostic(s, "W211", Severity::Warning,
                     "observability.trace_file",
                     "trace_file 'trace.jsonl' is configured with "
                     "sample_rate 0: every query is skipped, so the "
                     "trace will be empty; drop trace_file or raise "
                     "sample_rate");
}

TEST(Lint, W211DefaultObservabilityClean)
{
    ScenarioSpec s = cleanSpec();
    EXPECT_EQ(findCode(lint(s), "W211"), nullptr);
    // A metrics-only block at the default (trace-everything) rate has
    // no dead knob; neither does a rate-0 block with no trace_file,
    // which is just "tracing off" spelled redundantly.
    s.observability.metrics_file = "metrics.csv";
    EXPECT_EQ(findCode(lint(s), "W211"), nullptr);
    s.observability.sample_rate = 0.0;
    EXPECT_EQ(findCode(lint(s), "W211"), nullptr);
    // Slack > 1 without the Deadline policy is inert, not flagged.
    s.serve.admission.policy = qos::AdmissionPolicy::None;
    EXPECT_EQ(findCode(lint(s), "W207"), nullptr);
}

// ---- faults --------------------------------------------------------------

TEST(Lint, E107NegativeFaultKnob)
{
    ScenarioSpec s = cleanSpec();
    s.serve.faults.crash_mtbf_hours = -1.0;
    expectDiagnostic(s, "E107", Severity::Error,
                     "faults.crash_mtbf_hours",
                     "crash_mtbf_hours must be non-negative (got -1)");
}

TEST(Lint, E108DegradeSlowdownBelowOne)
{
    ScenarioSpec s = cleanSpec();
    s.serve.faults.degrade_slowdown = 0.5;
    expectDiagnostic(s, "E108", Severity::Error,
                     "faults.degrade_slowdown",
                     "degrade_slowdown must be >= 1 (got 0.5)");
}

TEST(Lint, E110NegativeEventHour)
{
    ScenarioSpec s = cleanSpec();
    fault::FaultEvent e;
    e.t_hours = -2.0;
    e.fleet_index = 0;
    e.slot = 0;
    s.serve.faults.events = {e};
    expectDiagnostic(s, "E110", Severity::Error,
                     "faults.events[0].at_hour",
                     "at_hour must be non-negative (got -2)");
}

TEST(Lint, E111FleetIndexOutOfRange)
{
    ScenarioSpec s = cleanSpec();
    fault::FaultEvent e;
    e.t_hours = 3.0;
    e.fleet_index = 5;
    s.serve.faults.events = {e};
    expectDiagnostic(s, "E111", Severity::Error,
                     "faults.events[0].fleet",
                     "fleet index 5 does not exist (fleet has 1 "
                     "entries)");
}

TEST(Lint, E112SlotOutOfRange)
{
    ScenarioSpec s = cleanSpec();
    fault::FaultEvent e;
    e.t_hours = 3.0;
    e.fleet_index = 0;
    e.slot = 9;
    s.serve.faults.events = {e};
    expectDiagnostic(s, "E112", Severity::Error,
                     "faults.events[0].slot",
                     "slot 9 does not exist (T2 has 2 slots)");
}

TEST(Lint, E113DegradedEventSlowdownBelowOne)
{
    ScenarioSpec s = cleanSpec();
    fault::FaultEvent e;
    e.t_hours = 1.0;
    e.fleet_index = 0;
    e.slot = 0;
    e.state = fault::HealthState::Degraded;
    e.slowdown = 0.5;
    s.serve.faults.events = {e};
    expectDiagnostic(s, "E113", Severity::Error,
                     "faults.events[0].slowdown",
                     "slowdown must be >= 1 (got 0.5)");
}

TEST(Lint, E115SizeMinAboveSizeMax)
{
    ScenarioSpec s = cleanSpec();
    s.services[0].spec.sizes.min_size = 500;
    s.services[0].spec.sizes.max_size = 10;
    expectDiagnostic(s, "E115", Severity::Error, "services[0].size_min",
                     "size_min 500 > size_max 10: no query size fits "
                     "the clip range");
}

TEST(Lint, W202EventAtOrAfterHorizon)
{
    ScenarioSpec s = cleanSpec();
    fault::FaultEvent e;
    e.t_hours = 50.0;
    e.fleet_index = 0;
    e.slot = 0;
    s.serve.faults.events = {e};
    expectDiagnostic(s, "W202", Severity::Warning,
                     "faults.events[0].at_hour",
                     "event at hour 50 fires at/after the 24h "
                     "horizon: it can never apply");
}

TEST(Lint, W203CrashMttrAtLeastMtbf)
{
    ScenarioSpec s = cleanSpec();
    s.serve.faults.crash_mtbf_hours = 2.0;
    s.serve.faults.crash_mttr_hours = 3.0;
    expectDiagnostic(s, "W203", Severity::Warning,
                     "faults.crash_mttr_hours",
                     "crash MTTR (3h) >= MTBF (2h): servers spend "
                     "more time crashed than serving");
    // Crashes disabled (mtbf 0): the ratio is meaningless, no warning.
    s.serve.faults.crash_mtbf_hours = 0.0;
    EXPECT_EQ(findCode(lint(s), "W203"), nullptr);
}

TEST(Lint, W204DegradeMttrAtLeastMtbf)
{
    ScenarioSpec s = cleanSpec();
    s.serve.faults.degrade_mtbf_hours = 2.0;
    s.serve.faults.degrade_mttr_hours = 5.0;
    expectDiagnostic(s, "W204", Severity::Warning,
                     "faults.degrade_mttr_hours",
                     "degrade MTTR (5h) >= MTBF (2h): servers spend "
                     "more time degraded than healthy");
}

// ---- table-aware checks --------------------------------------------------

core::EfficiencyTable
tableWith(bool feasible, double qps, double power_w)
{
    core::EfficiencyEntry e;
    e.server = ServerType::T2;
    e.model = ModelId::DlrmRmc1;
    e.feasible = feasible;
    e.qps = qps;
    e.power_w = power_w;
    e.qps_per_watt = power_w > 0.0 ? qps / power_w : 0.0;
    core::EfficiencyTable t;
    t.set(e);
    return t;
}

TEST(Lint, E130ModelInfeasibleEverywhere)
{
    ScenarioSpec s = cleanSpec();
    core::EfficiencyTable t = tableWith(false, 0.0, 0.0);
    expectDiagnostic(
        s, "E130", Severity::Error, "services[0].model",
        "model DLRM-RMC1 is infeasible on every fleet type in the "
        "efficiency table: its SLA is tighter than the hardware's "
        "minimum achievable latency, so no shard can ever serve it",
        &t);
    // Table-free lint cannot judge feasibility: the check is silent.
    EXPECT_EQ(findCode(lint(s), "E130"), nullptr);
}

TEST(Lint, W209CapBelowMustServePeakDemand)
{
    ScenarioSpec s = cleanSpec();
    // 100 QPS peak at 0.5 QPS/W needs 200 W; cap the horizon at 90 W
    // via a schedule dip (above T2 idle, so E106 stays quiet... the
    // warning must fire on forecast demand, not on idle draw).
    core::EfficiencyTable t = tableWith(true, 100.0, 200.0);
    s.serve.power_cap_schedule = {{6.0, 90.0}};
    std::vector<Diagnostic> ds = lint(s, &t);
    const Diagnostic* d = findCode(ds, "W209");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->severity, Severity::Warning);
    EXPECT_EQ(d->path, "power_cap_w");
    EXPECT_EQ(d->message,
              "tightest power cap in the horizon (90 W) is below the "
              "forecast peak demand of the must-serve priority tier "
              "(needs at least 200 W at the fleet's best efficiency): "
              "must-serve services will shed capacity at peak");
    // A cap that covers the peak demand is clean.
    s.serve.power_cap_schedule = {{6.0, 250.0}};
    EXPECT_EQ(findCode(lint(s, &t), "W209"), nullptr);
}

TEST(Lint, W209OnlyCountsTopPriorityTier)
{
    // Low-priority bulk demand alone cannot trigger the must-serve
    // warning: it is shed first by design.
    ScenarioSpec s = cleanSpec();
    s.services[0].spec.qos.priority = 2;
    ServiceScenario bulk;
    bulk.spec.model = ModelId::DlrmRmc1;
    bulk.spec.load.peak_qps = 10000.0;
    bulk.spec.qos.priority = 0;
    s.services.push_back(bulk);
    core::EfficiencyTable t = tableWith(true, 100.0, 200.0);
    // 100 QPS top-tier peak needs 200 W; 300 W covers it even though
    // the bulk tier would need 20 kW.
    s.serve.power_cap_schedule = {{6.0, 300.0}};
    EXPECT_EQ(findCode(lint(s, &t), "W209"), nullptr);
}

// ---- corpus pins ---------------------------------------------------------

/**
 * Every seeded-defect file in tests/lint_specs/ parses and yields
 * exactly one diagnostic — the code its filename starts with.
 */
TEST(Lint, SeededDefectSpecsFireExactlyTheirCode)
{
    size_t n = 0;
    for (const auto& ent :
         std::filesystem::directory_iterator(lintSpecDir())) {
        if (ent.path().extension() != ".scn")
            continue;
        ++n;
        std::string stem = ent.path().stem().string();
        std::string expect = stem.substr(0, stem.find('_'));
        std::transform(expect.begin(), expect.end(), expect.begin(),
                       [](unsigned char c) { return std::toupper(c); });
        std::string err;
        auto spec = loadSpecFile(ent.path().string(), &err);
        ASSERT_TRUE(spec.has_value()) << ent.path() << ": " << err;
        std::vector<Diagnostic> ds = lint(*spec);
        ASSERT_EQ(ds.size(), 1u) << ent.path();
        EXPECT_EQ(ds[0].code, expect) << ent.path();
        EXPECT_EQ(ds[0].severity, expect[0] == 'E' ? Severity::Error
                                                   : Severity::Warning)
            << ent.path();
    }
    EXPECT_GE(n, 16u) << "seeded-defect corpus shrank";
}

/** The shipped scenario library lints clean, table-free. */
TEST(Lint, ShippedScenariosLintClean)
{
    size_t n = 0;
    for (const auto& ent :
         std::filesystem::directory_iterator(scenarioDir())) {
        if (ent.path().extension() != ".scn")
            continue;
        ++n;
        std::string err;
        auto spec = loadSpecFile(ent.path().string(), &err);
        ASSERT_TRUE(spec.has_value()) << ent.path() << ": " << err;
        std::vector<Diagnostic> ds = lint(*spec);
        for (const Diagnostic& d : ds)
            ADD_FAILURE()
                << ent.path() << ": " << formatDiagnostic(d);
    }
    EXPECT_GE(n, 6u) << "shipped scenario library shrank";
}

// ---- one range rule -------------------------------------------------------

/** One ranged schema key, an out-of-range value for it and its code. */
struct RangedKey
{
    const char* path;
    const char* code;  ///< as the README's code table gives it
    void (*breakSpec)(ScenarioSpec&);
};

// One row per ranged key of the schema (spec_io.cc), in schema order.
// Every value is finite, so toText writes it.
const RangedKey kRangedKeys[] = {
    {"services[0].peak_qps_frac", "E114",
     [](ScenarioSpec& s) { s.services[0].peak_qps_frac = -0.5; }},
    {"services[0].peak_qps", "E114",
     [](ScenarioSpec& s) { s.services[0].spec.load.peak_qps = -1.0; }},
    {"services[0].trough_frac", "E114",
     [](ScenarioSpec& s) { s.services[0].spec.load.trough_frac = 1.5; }},
    {"services[0].surge_hours", "E114",
     [](ScenarioSpec& s) { s.services[0].spec.load.surge_hours = -1.0; }},
    {"services[0].surge_factor", "E114",
     [](ScenarioSpec& s) { s.services[0].spec.load.surge_factor = -1.0; }},
    {"services[0].sla_ms", "E114",
     [](ScenarioSpec& s) { s.services[0].spec.sla_ms = -1.0; }},
    {"services[0].qos_sla_ms", "E114",
     [](ScenarioSpec& s) { s.services[0].spec.qos.sla_ms = -1.0; }},
    {"services[0].size_median", "E114",
     [](ScenarioSpec& s) { s.services[0].spec.sizes.median = 0.0; }},
    {"services[0].size_sigma", "E114",
     [](ScenarioSpec& s) { s.services[0].spec.sizes.sigma = -1.0; }},
    {"services[0].pooling_sigma", "E114",
     [](ScenarioSpec& s) { s.services[0].spec.pooling.sigma = -0.5; }},
    {"horizon_hours", "E104",
     [](ScenarioSpec& s) { s.serve.horizon_hours = 0.0; }},
    {"interval_hours", "E104",
     [](ScenarioSpec& s) { s.serve.interval_hours = -0.25; }},
    {"sla_ms", "E114", [](ScenarioSpec& s) { s.serve.sla_ms = -1.0; }},
    {"power_cap_w", "E114",
     [](ScenarioSpec& s) { s.serve.power_cap_w = -1.0; }},
    {"power_cap_schedule[0].from_hour", "E105",
     [](ScenarioSpec& s) { s.serve.power_cap_schedule[0].from_hour = -1.0; }},
    {"power_cap_schedule[0].cap_w", "E105",
     [](ScenarioSpec& s) { s.serve.power_cap_schedule[0].cap_w = -1.0; }},
    {"faults.crash_mtbf_hours", "E107",
     [](ScenarioSpec& s) { s.serve.faults.crash_mtbf_hours = -1.0; }},
    {"faults.crash_mttr_hours", "E107",
     [](ScenarioSpec& s) { s.serve.faults.crash_mttr_hours = -1.0; }},
    {"faults.degrade_mtbf_hours", "E107",
     [](ScenarioSpec& s) { s.serve.faults.degrade_mtbf_hours = -1.0; }},
    {"faults.degrade_mttr_hours", "E107",
     [](ScenarioSpec& s) { s.serve.faults.degrade_mttr_hours = -1.0; }},
    {"faults.degrade_slowdown", "E108",
     [](ScenarioSpec& s) { s.serve.faults.degrade_slowdown = 0.5; }},
    {"faults.events[0].at_hour", "E110",
     [](ScenarioSpec& s) { s.serve.faults.events[0].t_hours = -2.0; }},
    // On a failed event: the range holds whatever the state.
    {"faults.events[0].slowdown", "E113",
     [](ScenarioSpec& s) { s.serve.faults.events[0].slowdown = 0.5; }},
    {"trace.bucket_seconds", "E114",
     [](ScenarioSpec& s) { s.serve.trace.bucket_seconds = 0.0; }},
    {"trace.time_compression", "E114",
     [](ScenarioSpec& s) { s.serve.trace.time_compression = 0.5; }},
    {"observability.sample_rate", "E114",
     [](ScenarioSpec& s) { s.observability.sample_rate = 2.0; }},
};

/**
 * lint, validateSpec and the parser reject the same out-of-range
 * value, each naming the key: the schema's ranges are the one rule.
 */
TEST(Lint, RangedKeysAgreeAcrossSurfaces)
{
    ScenarioSpec base = cleanSpec();
    base.serve.power_cap_schedule = {{0.0, 1e6}};
    base.serve.faults.events = {
        {1.0, 0, 0, fault::HealthState::Failed, 1.0}};
    ASSERT_TRUE(lint(base).empty());
    EXPECT_EQ(std::size(kRangedKeys), 26u);

    for (const RangedKey& row : kRangedKeys) {
        SCOPED_TRACE(row.path);
        ScenarioSpec s = base;
        row.breakSpec(s);

        std::string err;
        EXPECT_FALSE(validateSpec(s, &err));
        EXPECT_NE(err.find(std::string(" at ") + row.path + ": "),
                  std::string::npos)
            << err;

        std::vector<Diagnostic> errors;
        std::string listed;
        for (const Diagnostic& d : lint(s))
            if (d.severity == Severity::Error) {
                errors.push_back(d);
                listed += formatDiagnostic(d) + "\n";
            }
        ASSERT_EQ(errors.size(), 1u) << listed;
        EXPECT_EQ(errors[0].code, row.code);
        EXPECT_EQ(errors[0].path, row.path);

        // "services[0].sla_ms" binds as key 'sla_ms' in services[0].
        std::string path = row.path;
        size_t dot = path.rfind('.');
        std::string key = "key '" + path.substr(dot + 1) + "' in " +
                          (dot == std::string::npos ? "scenario"
                                                    : path.substr(0, dot));
        EXPECT_FALSE(parseSpec(toText(s), &err).has_value());
        EXPECT_NE(err.find(key + " must be "), std::string::npos) << err;
    }
}

// ---- the run() gate ------------------------------------------------------

TEST(LintGateDeathTest, RunRejectsErroneousSpecBeforeProfiling)
{
    ScenarioSpec s = cleanSpec();
    s.fleet.clear();
    EXPECT_DEATH(run(s), "scenario 'clean': E101 error at fleet");
}

}  // namespace
}  // namespace hercules::scenario
