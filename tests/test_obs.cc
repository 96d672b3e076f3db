/**
 * @file
 * Telemetry layer tests: metrics-registry determinism and exports,
 * trace sampling + JSONL schema, leveled logging, the pinned
 * off-vs-on bit-identity of a telemetry-attached ClusterSim run, the
 * observability spec round-trip, and the schema pin of the run
 * summary's per-interval arrays.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "scenario/scenario.h"
#include "scenario/spec_io.h"
#include "sim/cluster_sim.h"
#include "util/json.h"
#include "util/logging.h"
#include "workload/trace_gen.h"

namespace hercules {
namespace {

std::string
readFile(const std::string& path)
{
    FILE* f = std::fopen(path.c_str(), "r");
    EXPECT_NE(f, nullptr) << path;
    if (f == nullptr)
        return "";
    std::string out;
    int c;
    while ((c = std::fgetc(f)) != EOF)
        out.push_back(static_cast<char>(c));
    std::fclose(f);
    return out;
}

// ---- metrics registry ----------------------------------------------------

TEST(MetricsRegistry, DeclareIsIdempotentAndOrdered)
{
    obs::MetricsRegistry reg;
    int a = reg.counter("cluster.arrivals");
    int b = reg.gauge("shard.0.queue_depth");
    EXPECT_EQ(reg.counter("cluster.arrivals"), a);
    EXPECT_NE(a, b);
    EXPECT_EQ(reg.numMetrics(), 2u);
    EXPECT_EQ(reg.name(a), "cluster.arrivals");
    EXPECT_EQ(reg.kind(a), obs::MetricKind::Counter);
    EXPECT_EQ(reg.kind(b), obs::MetricKind::Gauge);
}

TEST(MetricsRegistry, CounterGaugeHistogramUpdate)
{
    obs::MetricsRegistry reg;
    int c = reg.counter("c");
    int g = reg.gauge("g");
    int h = reg.histogram("h");
    reg.add(c, 3.0);
    reg.add(c, 2.0);
    reg.set(g, 7.5);
    reg.set(g, 4.25);
    reg.observe(h, 0.5);
    reg.observe(h, 100.0);
    EXPECT_DOUBLE_EQ(reg.value(c), 5.0);
    EXPECT_DOUBLE_EQ(reg.value(g), 4.25);
    EXPECT_EQ(reg.histogramCount(h), 2u);
    EXPECT_DOUBLE_EQ(reg.histogramSum(h), 100.5);
}

TEST(MetricsRegistry, SamplingAlignsSeriesAndBackfillsLateMetrics)
{
    obs::MetricsRegistry reg;
    int c = reg.counter("early");
    reg.add(c, 1.0);
    reg.sample(10.0);
    reg.add(c, 1.0);
    reg.sample(20.0);

    // A metric declared after two samples back-fills with zeros so
    // every series stays aligned with sampleTimes().
    int late = reg.gauge("late");
    reg.set(late, 9.0);
    reg.sample(30.0);

    EXPECT_EQ(reg.numSamples(), 3u);
    EXPECT_EQ(reg.sampleTimes(), (std::vector<double>{10.0, 20.0, 30.0}));
    EXPECT_EQ(reg.series(c), (std::vector<double>{1.0, 2.0, 2.0}));
    EXPECT_EQ(reg.series(late), (std::vector<double>{0.0, 0.0, 9.0}));
}

TEST(MetricsRegistry, HistogramBucketsAreFixedAndLogSpaced)
{
    const std::vector<double>& bounds = obs::MetricsRegistry::bucketBounds();
    ASSERT_GE(bounds.size(), 2u);
    EXPECT_DOUBLE_EQ(bounds[0], 0.01);
    for (size_t i = 1; i < bounds.size(); ++i)
        EXPECT_DOUBLE_EQ(bounds[i], bounds[i - 1] * 2.0);

    obs::MetricsRegistry reg;
    int h = reg.histogram("h");
    reg.observe(h, 0.005);  // below the first bound
    reg.observe(h, 0.015);  // second bucket
    reg.observe(h, 1e9);    // beyond every bound: +Inf bucket
    const std::vector<uint64_t>& counts = reg.bucketCounts(h);
    ASSERT_EQ(counts.size(), bounds.size() + 1);  // + implicit +Inf
    EXPECT_EQ(counts[0], 1u);
    EXPECT_EQ(counts[1], 1u);
    EXPECT_EQ(counts.back(), 1u);
}

TEST(MetricsRegistry, PrometheusExportSchema)
{
    obs::MetricsRegistry reg;
    int c = reg.counter("cluster.arrivals");
    reg.add(c, 12.0);
    int h = reg.histogram("svc.0.latency_ms");
    reg.observe(h, 0.5);

    std::string path = "obs_test_metrics.txt";
    ASSERT_TRUE(reg.writeFile(path));
    std::string text = readFile(path);
    EXPECT_NE(text.find("# TYPE cluster.arrivals counter\n"),
              std::string::npos);
    EXPECT_NE(text.find("cluster.arrivals 12\n"), std::string::npos);
    EXPECT_NE(text.find("# TYPE svc.0.latency_ms histogram\n"),
              std::string::npos);
    EXPECT_NE(text.find("svc.0.latency_ms_bucket{le=\"+Inf\"} 1\n"),
              std::string::npos);
    EXPECT_NE(text.find("svc.0.latency_ms_count 1\n"), std::string::npos);
    std::remove(path.c_str());
}

TEST(MetricsRegistry, CsvExportIsLongForm)
{
    obs::MetricsRegistry reg;
    int c = reg.counter("c");
    reg.add(c, 2.0);
    reg.sample(60.0);

    std::string path = "obs_test_metrics.csv";
    ASSERT_TRUE(reg.writeFile(path));
    std::string text = readFile(path);
    EXPECT_EQ(text.rfind("t_s,name,value\n", 0), 0u);
    EXPECT_NE(text.find("60.000000,c,2\n"), std::string::npos);
    std::remove(path.c_str());
}

// ---- write failures are reported ---------------------------------------

/**
 * Paths no export can be written to, each ending in `ext`: one in a
 * missing directory, and (when the system has /dev/full) a symlink to
 * it, where every write fails once the stream is flushed.
 */
std::vector<std::string>
unwritablePaths(const std::string& ext)
{
    std::vector<std::string> paths = {"/nonexistent-dir/out" + ext};
    if (std::filesystem::exists("/dev/full")) {
        std::string link = "obs_test_full" + ext;
        std::filesystem::remove(link);
        std::filesystem::create_symlink("/dev/full", link);
        paths.push_back(link);
    }
    return paths;
}

TEST(MetricsRegistry, WriteFileReportsEveryFailure)
{
    obs::MetricsRegistry reg;
    reg.add(reg.counter("c"), 1.0);
    reg.sample(1.0);
    for (const char* ext : {".json", ".csv", ".txt"}) {
        for (const std::string& path : unwritablePaths(ext)) {
            EXPECT_FALSE(reg.writeFile(path)) << path;
            std::filesystem::remove(path);  // the symlink, not /dev/full
        }
    }
}

TEST(Telemetry, WriteTraceFileReportsEveryFailure)
{
    for (const std::string& path : unwritablePaths(".jsonl")) {
        obs::ObsSpec spec;
        spec.trace_file = path;
        obs::Telemetry telemetry(spec);
        telemetry.declareService(0);
        telemetry.onDropped(0, 1.0);
        ASSERT_EQ(telemetry.traceRecords().size(), 1u);
        EXPECT_FALSE(telemetry.writeTraceFile()) << path;
        std::filesystem::remove(path);
    }
}

// ---- trace sampling + JSONL ----------------------------------------------

TEST(Trace, SamplingIsDeterministicWithExactEdges)
{
    for (uint64_t id = 0; id < 64; ++id) {
        EXPECT_TRUE(obs::traceSampled(id, 1.0));
        EXPECT_FALSE(obs::traceSampled(id, 0.0));
        EXPECT_EQ(obs::traceSampled(id, 0.25),
                  obs::traceSampled(id, 0.25));
    }
    // The hash is a uniformizer: the sampled fraction tracks the rate.
    size_t kept = 0;
    const size_t n = 100000;
    for (uint64_t id = 0; id < n; ++id)
        kept += obs::traceSampled(id, 0.1) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(kept) / n, 0.1, 0.01);
}

TEST(Trace, JsonlSchemaPinsKeyOrderAndNulls)
{
    obs::TraceRecord done;
    done.id = 17;
    done.service = 0;
    done.shard = 2;
    done.retry_hops = 0;
    done.arrival_s = 12.5;
    done.queue_wait_ms = 0.5;
    done.service_start_s = 12.5625;
    done.finish_s = 12.75;
    done.outcome = obs::TraceOutcome::Completed;

    obs::TraceRecord rejected;
    rejected.id = 18;
    rejected.service = 1;
    rejected.retry_hops = 3;
    rejected.arrival_s = 13.0;
    rejected.outcome = obs::TraceOutcome::Rejected;

    std::string path = "obs_test_trace.jsonl";
    util::JsonWriter w(path);
    obs::writeTraceJsonl(w, {done, rejected});
    ASSERT_TRUE(w.close());
    std::string text = readFile(path);
    EXPECT_EQ(text,
              "{\"id\": 17, \"service\": 0, \"outcome\": \"completed\", "
              "\"shard\": 2, \"retry_hops\": 0, "
              "\"arrival_s\": 12.500000, "
              "\"queue_wait_ms\": 0.500000, "
              "\"service_start_s\": 12.562500, "
              "\"finish_s\": 12.750000, \"latency_ms\": 250.000000}\n"
              "{\"id\": 18, \"service\": 1, \"outcome\": \"rejected\", "
              "\"shard\": null, \"retry_hops\": 3, "
              "\"arrival_s\": 13.000000, "
              "\"queue_wait_ms\": null, \"service_start_s\": null, "
              "\"finish_s\": null, \"latency_ms\": null}\n");
    std::remove(path.c_str());
}

// ---- leveled logging -----------------------------------------------------

TEST(Logging, ParseAndNameRoundTrip)
{
    using hercules::LogLevel;
    for (LogLevel lv : {LogLevel::Debug, LogLevel::Info, LogLevel::Warn,
                        LogLevel::Quiet})
        EXPECT_EQ(parseLogLevel(logLevelName(lv)), lv);
    EXPECT_FALSE(parseLogLevel("loud").has_value());
}

TEST(Logging, LevelGatesAndVerboseCompat)
{
    LogLevel before = logLevel();

    setLogLevel(LogLevel::Quiet);
    EXPECT_FALSE(logEnabled(LogLevel::Warn));
    EXPECT_FALSE(verboseEnabled());

    setLogLevel(LogLevel::Warn);
    EXPECT_TRUE(logEnabled(LogLevel::Warn));
    EXPECT_FALSE(logEnabled(LogLevel::Info));

    // The legacy switch maps onto the level without fighting it.
    setVerbose(true);
    EXPECT_TRUE(verboseEnabled());
    EXPECT_TRUE(logEnabled(LogLevel::Info));
    EXPECT_FALSE(logEnabled(LogLevel::Debug));
    setVerbose(false);
    EXPECT_FALSE(verboseEnabled());

    // setVerbose(false) never silences warnings below Warn.
    setLogLevel(LogLevel::Debug);
    setVerbose(true);  // already more verbose: no-op
    EXPECT_TRUE(logEnabled(LogLevel::Debug));

    setLogLevel(before);
}

// ---- ClusterSim off-vs-on bit identity -----------------------------------

sim::ClusterSimResult
runSmallCluster(obs::Telemetry* telemetry)
{
    model::Model m = model::buildModel(model::ModelId::DlrmRmc1);
    sched::SchedulingConfig cfg;
    cfg.mapping = sched::Mapping::CpuModelBased;
    cfg.cpu_threads = 4;
    cfg.cores_per_thread = 1;
    cfg.batch = 64;
    sim::PreparedWorkload w =
        sim::prepare(hw::serverSpec(hw::ServerType::T2), m, cfg);

    workload::DiurnalConfig dc;
    dc.peak_qps = 500.0;
    dc.trough_frac = 0.5;
    dc.noise_frac = 0.0;
    workload::DiurnalLoad load(dc);
    workload::TraceOptions topt;
    topt.horizon_hours = 0.003;
    topt.bucket_seconds = 2.0;
    topt.seed = 11;
    std::vector<workload::Query> trace =
        workload::TraceGenerator(load, topt).generate();

    sim::ClusterSim::Options copt;
    copt.router = sim::RouterPolicy::HerculesWeighted;
    copt.telemetry = telemetry;
    sim::ClusterSim cluster(copt);
    cluster.addShard(w, 1000.0);
    cluster.addShard(w, 1000.0);
    return cluster.run(trace, 2.0);
}

TEST(Telemetry, AttachedSinkNeverPerturbsTheSimulation)
{
    sim::ClusterSimResult off = runSmallCluster(nullptr);

    obs::ObsSpec spec;
    spec.trace_file = "obs_test_cluster_trace.jsonl";
    spec.metrics_file = "obs_test_cluster_metrics.txt";
    obs::Telemetry telemetry(spec);
    sim::ClusterSimResult on = runSmallCluster(&telemetry);

    EXPECT_EQ(on.injected, off.injected);
    EXPECT_EQ(on.completed, off.completed);
    EXPECT_EQ(on.dropped, off.dropped);
    EXPECT_EQ(on.rejected, off.rejected);
    EXPECT_EQ(on.sla_violations, off.sla_violations);
    EXPECT_DOUBLE_EQ(on.p50_ms, off.p50_ms);
    EXPECT_DOUBLE_EQ(on.p99_ms, off.p99_ms);
    EXPECT_DOUBLE_EQ(on.mean_ms, off.mean_ms);
    EXPECT_DOUBLE_EQ(on.max_ms, off.max_ms);
    EXPECT_EQ(on.des.events_executed, off.des.events_executed);

    // The sink saw the whole run: cluster counters match the result,
    // and every completion closed its span.
    const obs::MetricsRegistry& reg = telemetry.metrics();
    obs::MetricsRegistry& mreg = telemetry.metrics();
    EXPECT_DOUBLE_EQ(mreg.value(mreg.counter("cluster.arrivals")),
                     static_cast<double>(off.injected));
    EXPECT_DOUBLE_EQ(mreg.value(mreg.counter("cluster.completions")),
                     static_cast<double>(off.completed));
    EXPECT_GT(reg.numSamples(), 0u);

    size_t completed_spans = 0;
    for (const obs::TraceRecord& r : telemetry.traceRecords())
        if (r.outcome == obs::TraceOutcome::Completed) {
            ++completed_spans;
            EXPECT_GE(r.queue_wait_ms, 0.0);
            EXPECT_GE(r.finish_s, r.arrival_s);
        }
    EXPECT_EQ(completed_spans, off.completed);
}

TEST(Telemetry, DisabledSpecAttachesNothing)
{
    obs::ObsSpec spec;
    EXPECT_FALSE(spec.enabled());
    EXPECT_FALSE(spec.tracing());
    spec.metrics_file = "m.txt";
    EXPECT_TRUE(spec.enabled());
    EXPECT_FALSE(spec.tracing());
}

// ---- observability spec round-trip ---------------------------------------

TEST(SpecIo, ObservabilityBlockRoundTripsAndDefaultsOmit)
{
    scenario::ScenarioSpec def;
    EXPECT_EQ(scenario::toText(def).find("observability"),
              std::string::npos);

    scenario::ScenarioSpec s;
    s.observability.trace_file = "t.jsonl";
    s.observability.metrics_file = "m.csv";
    s.observability.sample_rate = 0.25;
    std::string text = scenario::toText(s);
    EXPECT_NE(text.find("\"observability\""), std::string::npos);

    std::string err;
    auto parsed = scenario::parseSpec(text, &err);
    ASSERT_TRUE(parsed.has_value()) << err;
    EXPECT_EQ(parsed->observability.trace_file, "t.jsonl");
    EXPECT_EQ(parsed->observability.metrics_file, "m.csv");
    EXPECT_DOUBLE_EQ(parsed->observability.sample_rate, 0.25);
    EXPECT_EQ(scenario::toText(*parsed), text);
}

TEST(SpecIo, ObservabilitySampleRateValidated)
{
    scenario::ScenarioSpec s;
    s.fleet.push_back({hw::ServerType::T2, 1});
    scenario::ServiceScenario svc;
    svc.spec.model = model::ModelId::DlrmRmc1;
    svc.spec.load.peak_qps = 100.0;
    s.services.push_back(svc);

    std::string err;
    EXPECT_TRUE(scenario::validateSpec(s, &err)) << err;
    s.observability.sample_rate = 1.5;
    EXPECT_FALSE(scenario::validateSpec(s, &err));
    EXPECT_NE(err.find("sample_rate"), std::string::npos);
}

// ---- run-summary trajectory arrays schema pin -----------------------------

TEST(IntervalArrays, JsonSchemaIsPinned)
{
    std::vector<sim::IntervalStats> ivs(2);
    ivs[0].p99_ms = 1.5;
    ivs[0].sla_violation_rate = 0.125;
    ivs[0].dropped = 3;
    ivs[0].provisioned_power_w = 100.0;
    ivs[0].consumed_power_w = 80.5;
    ivs[1].p99_ms = 2.0;
    ivs[1].sla_violation_rate = 0.0;
    ivs[1].dropped = 0;
    ivs[1].provisioned_power_w = 50.5;
    ivs[1].consumed_power_w = 40.0;

    // The arrays close every run summary: write one for a result
    // holding only these intervals and cut them out of the file.
    sim::ClusterSimResult r;
    r.intervals = ivs;
    std::string path = "obs_test_intervals.json";
    util::JsonWriter w(path);
    w.beginObject();
    scenario::writeRunSummary(w, r, "services", [](size_t) {});
    w.endObject();
    ASSERT_TRUE(w.close());
    const std::string text = readFile(path);
    const size_t at = text.find("  \"interval_p99_ms\"");
    ASSERT_NE(at, std::string::npos);
    ASSERT_EQ(text.substr(text.size() - 2), "}\n");

    // The exact bytes: key set, array lengths, precision, and comma
    // placement (last array unterminated) are all schema.
    EXPECT_EQ(text.substr(at, text.size() - 2 - at),
              "  \"interval_p99_ms\": [1.500, 2.000],\n"
              "  \"interval_sla_violation_rate\": [0.12500, 0.00000],\n"
              "  \"interval_dropped\": [3, 0],\n"
              "  \"interval_provisioned_power_w\": [100.0, 50.5],\n"
              "  \"interval_consumed_power_w\": [80.5, 40.0]\n");
    std::remove(path.c_str());
}

}  // namespace
}  // namespace hercules
