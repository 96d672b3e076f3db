/**
 * @file
 * Tests of the declarative scenario API (src/scenario/): exact text
 * round-trip on every shipped .scn in scenarios/ and of a spec setting
 * every key, a golden corpus of line-precise parse errors, the README
 * grammar against schemaKeys(), default-spec == legacy-defaults
 * equivalence, the time-varying power-cap schedule, and the golden
 * pin that scenario::run() on a spec mirroring the joint-arm wiring of
 * `bench_paper multiservice` reproduces a hand-wired
 * cluster::serveTraces() call bit-identically, as does a run() that
 * profiles its own table.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/serving.h"
#include "core/eval_engine.h"
#include "core/fingerprint.h"
#include "fault/fault.h"
#include "model/model_zoo.h"
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
readFile(const std::filesystem::path& p)
{
    std::ifstream in(p);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

// ---- shipped-library round trip ------------------------------------------

TEST(SpecIo, ShippedScenariosRoundTripExactly)
{
    size_t n = 0;
    for (const auto& ent :
         std::filesystem::directory_iterator(scenarioDir())) {
        if (ent.path().extension() != ".scn")
            continue;
        ++n;
        std::string text = readFile(ent.path());
        std::string err;
        auto spec = parseSpec(text, &err);
        ASSERT_TRUE(spec.has_value())
            << ent.path() << ": " << err;
        // The shipped files are in canonical form: serializing the
        // parsed spec reproduces the file byte for byte...
        EXPECT_EQ(toText(*spec), text) << ent.path();
        // ...and the round trip is a fixed point.
        auto again = parseSpec(toText(*spec), &err);
        ASSERT_TRUE(again.has_value()) << ent.path() << ": " << err;
        EXPECT_EQ(toText(*again), toText(*spec)) << ent.path();
    }
    EXPECT_GE(n, 6u) << "shipped scenario library shrank";
}

// Canonical text of a spec that sets all 64 leaf keys to non-default
// values: multi-line `services` items, a multi-line `faults` (it holds
// `events`) and, in the second spec, a `faults` without events, which
// stays inline. The always-written keys also appear at their defaults
// (`"from_hour": 0`, `"at_hour": 0`, `"state": "healthy"`).
const char* const kEveryKeySpec = R"spec({
  "name": "every_key",
  "description": "escapes: \"quote\" \\ tab\t newline\n done",
  "fleet": [
    {"type": "T2", "slots": 2},
    {"type": "T10", "slots": 3}
  ],
  "services": [
    {
      "name": "ranker",
      "model": "DIEN",
      "peak_qps_frac": 0.25,
      "peak_qps": 123.5,
      "trough_frac": 0.5,
      "peak_hour": 7.25,
      "noise_frac": 0.01,
      "load_seed": 99,
      "surge_hour": 6,
      "surge_hours": 1.5,
      "surge_factor": 2,
      "sla_ms": 31,
      "priority": 3,
      "tier": "throughput",
      "qos_sla_ms": 40,
      "size_median": 70,
      "size_sigma": 0.9,
      "size_min": 5,
      "size_max": 500,
      "pooling_sigma": 0.5
    },
    {
      "model": "DLRM-RMC3"
    }
  ],
  "provisioner": "priority-aware",
  "nh_seed": 23,
  "router": "p2c",
  "router_seed": 9,
  "feedback": {"gain": 0.2, "floor_frac": 0.1},
  "admission": {"policy": "queue_cap", "queue_cap": 17, "deadline_slack": 1.25, "cross_shard_retry": false},
  "horizon_hours": 6,
  "interval_hours": 0.25,
  "sla_ms": 33,
  "overprovision_rate": 0.07,
  "power_cap_w": 512.125,
  "power_cap_schedule": [
    {"from_hour": 0, "cap_w": 400},
    {"from_hour": 5, "cap_w": 1000000000}
  ],
  "faults": {
    "seed": 11,
    "crash_mtbf_hours": 8,
    "crash_mttr_hours": 0.75,
    "degrade_mtbf_hours": 6,
    "degrade_mttr_hours": 2,
    "degrade_slowdown": 3.5,
    "events": [
      {"at_hour": 1.5, "fleet": 1, "slot": 2, "state": "failed"},
      {"at_hour": 2.25, "fleet": 1, "slot": 2, "state": "healthy"},
      {"at_hour": 0, "slot": 1, "state": "degraded", "slowdown": 2.5}
    ]
  },
  "trace": {"bucket_seconds": 30, "time_compression": 480, "seed": 1234},
  "profile": {"table_cache": "t.csv", "eval_memo": "m.tsv", "num_queries": 111, "warmup_queries": 22, "bisect_iters": 3, "seed": 77},
  "observability": {"trace_file": "trace.jsonl", "metrics_file": "metrics.json", "sample_rate": 0.5}
}
)spec";

const char* const kInlineFaultsSpec = R"spec({
  "name": "inline_faults",
  "faults": {"seed": 3, "crash_mtbf_hours": 12, "degrade_slowdown": 2}
}
)spec";

TEST(SpecIo, EveryNonDefaultFieldRoundTrips)
{
    ScenarioSpec s;
    s.name = "every_key";
    s.description = "escapes: \"quote\" \\ tab\t newline\n done";
    s.fleet = {{ServerType::T2, 2}, {ServerType::T10, 3}};
    ServiceScenario svc;
    svc.name = "ranker";
    svc.spec.model = ModelId::Dien;
    svc.peak_qps_frac = 0.25;
    svc.spec.load.peak_qps = 123.5;
    svc.spec.load.trough_frac = 0.5;
    svc.spec.load.peak_hour = 7.25;
    svc.spec.load.noise_frac = 0.01;
    svc.spec.load.seed = 99;
    svc.spec.load.surge_hour = 6.0;
    svc.spec.load.surge_hours = 1.5;
    svc.spec.load.surge_factor = 2.0;
    svc.spec.sla_ms = 31.0;
    svc.spec.qos.priority = 3;
    svc.spec.qos.tier = qos::Tier::Throughput;
    svc.spec.qos.sla_ms = 40.0;
    svc.spec.sizes.median = 70.0;
    svc.spec.sizes.sigma = 0.9;
    svc.spec.sizes.min_size = 5;
    svc.spec.sizes.max_size = 500;
    svc.spec.pooling.sigma = 0.5;
    s.services.push_back(svc);
    ServiceScenario minimal;
    minimal.spec.model = ModelId::DlrmRmc3;
    s.services.push_back(minimal);
    s.provisioner = ProvisionerKind::PriorityAware;
    s.nh_seed = 23;
    s.serve.router = sim::RouterPolicy::PowerOfTwo;
    s.serve.router_seed = 9;
    s.serve.feedback.gain = 0.2;
    s.serve.feedback.floor_frac = 0.1;
    s.serve.admission.policy = qos::AdmissionPolicy::QueueCap;
    s.serve.admission.queue_cap = 17;
    s.serve.admission.deadline_slack = 1.25;
    s.serve.admission.cross_shard_retry = false;
    s.serve.horizon_hours = 6.0;
    s.serve.interval_hours = 0.25;
    s.serve.sla_ms = 33.0;
    s.serve.overprovision_rate = 0.07;
    s.serve.power_cap_w = 512.125;
    s.serve.power_cap_schedule = {{0.0, 400.0}, {5.0, 1e9}};
    s.serve.faults.seed = 11;
    s.serve.faults.crash_mtbf_hours = 8.0;
    s.serve.faults.crash_mttr_hours = 0.75;
    s.serve.faults.degrade_mtbf_hours = 6.0;
    s.serve.faults.degrade_mttr_hours = 2.0;
    s.serve.faults.degrade_slowdown = 3.5;
    s.serve.faults.events = {
        {1.5, 1, 2, fault::HealthState::Failed, 1.0},
        {2.25, 1, 2, fault::HealthState::Healthy, 1.0},
        {0.0, 0, 1, fault::HealthState::Degraded, 2.5},
    };
    s.serve.trace.bucket_seconds = 30.0;
    s.serve.trace.time_compression = 480.0;
    s.serve.trace.seed = 1234;
    s.profile.table_cache = "t.csv";
    s.profile.eval_memo = "m.tsv";
    s.profile.num_queries = 111;
    s.profile.warmup_queries = 22;
    s.profile.bisect_iters = 3;
    s.profile.seed = 77;
    s.observability.trace_file = "trace.jsonl";
    s.observability.metrics_file = "metrics.json";
    s.observability.sample_rate = 0.5;

    // Every C++ field lands on its key, in canonical order...
    EXPECT_EQ(toText(s), kEveryKeySpec);
    // ...and the text binds back onto the same fields.
    for (const char* text : {kEveryKeySpec, kInlineFaultsSpec}) {
        std::string err;
        auto parsed = parseSpec(text, &err);
        ASSERT_TRUE(parsed.has_value()) << err;
        EXPECT_EQ(toText(*parsed), text);
    }
}

TEST(SpecIo, KeysBindInAnyOrder)
{
    std::string err;
    auto spec = parseSpec("{\"services\": [{\"size_max\": 900, \"model\": "
                          "\"DLRM-RMC2\", \"name\": \"x\"}], "
                          "\"name\": \"reordered\"}",
                          &err);
    ASSERT_TRUE(spec.has_value()) << err;
    EXPECT_EQ(toText(*spec), "{\n"
                             "  \"name\": \"reordered\",\n"
                             "  \"services\": [\n"
                             "    {\n"
                             "      \"name\": \"x\",\n"
                             "      \"model\": \"DLRM-RMC2\",\n"
                             "      \"size_max\": 900\n"
                             "    }\n"
                             "  ]\n"
                             "}\n");
}

TEST(SpecIo, NonFiniteNumbersAreOmitted)
{
    // The grammar cannot spell them, so a C++-built spec that holds one
    // still serializes to text that parses.
    const double inf = std::numeric_limits<double>::infinity();
    ScenarioSpec s;
    s.serve.power_cap_w = -inf;
    s.serve.sla_ms = std::numeric_limits<double>::quiet_NaN();
    s.serve.trace.time_compression = inf;
    EXPECT_EQ(toText(s), "{\n  \"name\": \"scenario\"\n}\n");
}

TEST(SpecIo, UncappedSchedulePointRoundTrips)
{
    // cap_w is always written, but its +inf default has no spelling:
    // the point is written without it and binds back to +inf.
    ScenarioSpec s;
    s.serve.power_cap_schedule = {{18.0, 330.0}, {30.0}};
    std::string text = toText(s);
    EXPECT_NE(text.find("{\"from_hour\": 30}"), std::string::npos) << text;
    std::string err;
    auto back = parseSpec(text, &err);
    ASSERT_TRUE(back.has_value()) << err;
    ASSERT_EQ(back->serve.power_cap_schedule.size(), 2u);
    EXPECT_EQ(back->serve.power_cap_schedule[1].from_hour, 30.0);
    EXPECT_EQ(back->serve.power_cap_schedule[1].cap_w,
              std::numeric_limits<double>::infinity());
    EXPECT_EQ(toText(*back), text);
}

// ---- line/key-precise rejection ------------------------------------------

/** One malformed spec and the exact error parseSpec reports for it. */
struct ErrorRow
{
    const char* text;
    const char* error;
};

// Golden error strings: each must stay byte for byte. Rows hold one
// defect each, so the order in which keys are checked cannot change
// which error is reported.
const ErrorRow kErrorCorpus[] = {
    // Grammar.
    {"[1, 2]", "line 1: top-level value must be an object"},
    {"", "line 1: empty input"},
    {"{\n  \"name\": \"unterminated\n}", "line 2: unterminated string"},
    {"{\"name\": \"x\"} trailing",
     "line 1: trailing content after the top-level object"},
    {"{\"sla_ms\": 3.}", "line 1: malformed number"},
    {"{\"sla_ms\": 1e999}", "line 1: number out of range"},
    {"{\"name\": \"a\\qb\"}", "line 1: unsupported escape '\\q'"},
    {"{\"lint\": tru}", "line 1: unexpected token"},
    {"{\"sla_ms\": +1}", "line 1: unexpected character '+'"},
    {"{\"fleet\": [{\"type\": \"T2\"} {\"type\": \"T3\"}]}",
     "line 1: expected ',' or ']' in array"},
    {"{\"name\" \"x\"}", "line 1: expected ':' after key 'name'"},
    {"{\"name\": \"x\",}", "line 1: expected a key string"},
    {"{\"name\": \"x\"", "line 1: unterminated object"},
    {"{\"fleet\": [{\"type\": \"T2\"}", "line 1: unterminated array"},
    {"{\"name\": \"x\" \"lint\": true}",
     "line 1: expected ',' or '}' in object"},
    {"{\n  \"name\":\n", "line 3: unexpected end of input"},
    {"{\"name\": \"x", "line 1: unterminated string"},
    {"{\"name\": \"x\\", "line 1: unterminated string"},
    {"{\n  \"name\": \"x\",\n  \"name\": \"y\"\n}",
     "line 3: duplicate key 'name'"},
    {"{\"trace\": {\"seed\": 1, \"seed\": 2}}",
     "line 1: duplicate key 'seed'"},
    // A wrong value kind for each key kind.
    {"{\n  \"horizon_hours\": \"six\"\n}",
     "line 2: key 'horizon_hours' in scenario expects a number (got a "
     "string)"},
    {"{\"profile\": {\"num_queries\": true}}",
     "line 1: key 'num_queries' in profile expects an integer (got a "
     "boolean)"},
    {"{\"nh_seed\": \"7\"}",
     "line 1: key 'nh_seed' in scenario expects an integer (got a "
     "string)"},
    {"{\"admission\": {\"queue_cap\": [1]}}",
     "line 1: key 'queue_cap' in admission expects an integer (got an "
     "array)"},
    {"{\"name\": 5}",
     "line 1: key 'name' in scenario expects a string (got a number)"},
    {"{\"admission\": {\"cross_shard_retry\": 1}}",
     "line 1: key 'cross_shard_retry' in admission expects a boolean "
     "(got a number)"},
    {"{\"router\": {}}",
     "line 1: key 'router' in scenario expects a string (got an "
     "object)"},
    {"{\"feedback\": []}",
     "line 1: key 'feedback' in scenario expects an object (got an "
     "array)"},
    {"{\"fleet\": {}}",
     "line 1: key 'fleet' in scenario expects an array (got an "
     "object)"},
    {"{\"faults\": {\"events\": 3}}",
     "line 1: key 'events' in faults expects an array (got a number)"},
    // Each range kind.
    {"{\"services\": [{\"model\": \"DLRM-RMC1\", \"sla_ms\": -1}]}",
     "line 1: key 'sla_ms' in services[0] must be non-negative (got "
     "-1)"},
    {"{\n  \"interval_hours\": 0\n}",
     "line 2: key 'interval_hours' in scenario must be positive (got "
     "0)"},
    {"{\"faults\": {\"degrade_slowdown\": 0.5}}",
     "line 1: key 'degrade_slowdown' in faults must be >= 1 (got 0.5)"},
    {"{\"observability\": {\"sample_rate\": 2}}",
     "line 1: key 'sample_rate' in observability must be in [0, 1] (got "
     "2)"},
    {"{\"fleet\": [{\"type\": \"T2\", \"slots\": 3000000000}]}",
     "line 1: key 'slots' in fleet[0] is out of range"},
    {"{\"trace\": {\"seed\": -1}}",
     "line 1: key 'seed' in trace is out of range"},
    {"{\"nh_seed\": 9007199254740994}",
     "line 1: key 'nh_seed' in scenario is out of range"},
    {"{\"fleet\": [{\"type\": \"T2\", \"slots\": 1.5}]}",
     "line 1: key 'slots' in fleet[0] expects an integer (got a "
     "number)"},
    {"{\"profile\": {\"seed\": 1.5}}",
     "line 1: key 'seed' in profile expects an integer (got a number)"},
    // An unknown key at every nesting level.
    {"{\n  \"horizont\": 3\n}",
     "line 2: unknown key 'horizont' in scenario"},
    {"{\n"
     "  \"services\": [\n"
     "    {\"model\": \"DLRM-RMC1\"},\n"
     "    {\"model\": \"DLRM-RMC1\",\n"
     "     \"peek_qps\": 3}\n"
     "  ]\n"
     "}",
     "line 5: unknown key 'peek_qps' in services[1]"},
    {"{\"fleet\": [{\"type\": \"T2\", \"slot\": 2}]}",
     "line 1: unknown key 'slot' in fleet[0]"},
    {"{\"feedback\": {\"gain\": 1, \"floor\": 0}}",
     "line 1: unknown key 'floor' in feedback"},
    {"{\n  \"admission\": {\"polcy\": \"none\"}\n}",
     "line 2: unknown key 'polcy' in admission"},
    {"{\"faults\": {\"mtbf\": 3}}", "line 1: unknown key 'mtbf' in faults"},
    {"{\"faults\": {\"events\": [{\"at_hour\": 1, \"slots\": 0}]}}",
     "line 1: unknown key 'slots' in faults.events[0]"},
    {"{\"trace\": {\"compression\": 2}}",
     "line 1: unknown key 'compression' in trace"},
    {"{\"profile\": {\"cache\": \"t.csv\"}}",
     "line 1: unknown key 'cache' in profile"},
    {"{\"observability\": {\"trace\": \"t.jsonl\"}}",
     "line 1: unknown key 'trace' in observability"},
    {"{\"power_cap_schedule\": [{\"from_hour\": 1, \"cap\": 300}]}",
     "line 1: unknown key 'cap' in power_cap_schedule[0]"},
    // Required keys.
    {"{\"fleet\": [{\"slots\": 2}]}",
     "line 1: missing key 'type' in fleet[0]"},
    {"{\"services\": [{\"sla_ms\": 5}]}",
     "line 1: missing key 'model' in services[0]"},
    // A bad name for each enum.
    {"{\"fleet\": [{\"type\": \"T99\"}]}",
     "line 1: unknown server type 'T99' in fleet[0]"},
    {"{\"services\": [{\"model\": \"GPT\"}]}",
     "line 1: unknown model 'GPT' in services[0]"},
    {"{\"router\": \"random\"}",
     "line 1: unknown router policy 'random' in scenario"},
    {"{\"provisioner\": \"magic\"}",
     "line 1: unknown provisioner 'magic' in scenario"},
    {"{\"services\": [{\"model\": \"DLRM-RMC1\", \"tier\": \"gold\"}]}",
     "line 1: unknown tier 'gold' in services[0]"},
    {"{\"admission\": {\"policy\": \"lifo\"}}",
     "line 1: unknown admission policy 'lifo' in admission"},
    {"{\"faults\": {\"events\": [{\"state\": \"zombie\"}]}}",
     "line 1: unknown health state 'zombie' in faults.events[0]"},
    // A non-object item in each array.
    {"{\"fleet\": [\"T2\"]}", "line 1: fleet[0] expects an object"},
    {"{\n  \"services\": [\n    {\"model\": \"DLRM-RMC1\"},\n    3\n  ]\n}",
     "line 4: services[1] expects an object"},
    {"{\"power_cap_schedule\": [[6, 300]]}",
     "line 1: power_cap_schedule[0] expects an object"},
    {"{\"faults\": {\"events\": [true]}}",
     "line 1: faults.events[0] expects an object"},
};

TEST(SpecIo, ErrorMessageGoldenCorpus)
{
    for (const ErrorRow& row : kErrorCorpus) {
        SCOPED_TRACE(row.text);
        std::string err;
        EXPECT_FALSE(parseSpec(row.text, &err).has_value());
        EXPECT_EQ(err, row.error);
    }
}

// Knobs that would reach undefined behaviour in query generation
// (std::clamp with lo > hi, the log of a non-positive median) or a
// fatal() only after a cold profile. The parser rejects each with its
// line.
const ErrorRow kLateFailureRows[] = {
    {"{\"services\": [\n"
     "  {\"model\": \"DLRM-RMC1\",\n   \"size_median\": 0}\n]}",
     "line 3: key 'size_median' in services[0] must be positive (got 0)"},
    {"{\"services\": [\n"
     "  {\"model\": \"DLRM-RMC1\", \"size_median\": -5}\n]}",
     "line 2: key 'size_median' in services[0] must be positive (got -5)"},
    {"{\"services\": [{\"model\": \"DLRM-RMC1\", \"size_sigma\": -1}]}",
     "line 1: key 'size_sigma' in services[0] must be non-negative (got "
     "-1)"},
    {"{\"services\": [{\"model\": \"DLRM-RMC1\", \"pooling_sigma\": -0.5}]}",
     "line 1: key 'pooling_sigma' in services[0] must be non-negative "
     "(got -0.5)"},
    {"{\"services\": [{\"model\": \"DLRM-RMC1\", \"trough_frac\": 1.5}]}",
     "line 1: key 'trough_frac' in services[0] must be in [0, 1] (got "
     "1.5)"},
    {"{\"services\": [{\"model\": \"DLRM-RMC1\", \"trough_frac\": -0.1}]}",
     "line 1: key 'trough_frac' in services[0] must be in [0, 1] (got "
     "-0.1)"},
    {"{\n  \"trace\": {\"bucket_seconds\": 0}\n}",
     "line 2: key 'bucket_seconds' in trace must be positive (got 0)"},
    {"{\n  \"trace\": {\"time_compression\": 0.5}\n}",
     "line 2: key 'time_compression' in trace must be >= 1 (got 0.5)"},
};

TEST(SpecIo, RejectsSizeAndTraceKnobsThatFailLate)
{
    for (const ErrorRow& row : kLateFailureRows) {
        SCOPED_TRACE(row.text);
        std::string err;
        EXPECT_FALSE(parseSpec(row.text, &err).has_value());
        EXPECT_EQ(err, row.error);
    }

    // size_min <= size_max spans two keys, so lint's E115 (which
    // validateSpec, --parse-only and run() apply) rejects it rather
    // than the binder.
    std::string err;
    auto crossed = parseSpec("{\n"
                             "  \"name\": \"crossed\",\n"
                             "  \"fleet\": [{\"type\": \"T2\"}],\n"
                             "  \"services\": [\n"
                             "    {\"model\": \"DLRM-RMC1\",\n"
                             "     \"size_min\": 500, \"size_max\": 10}\n"
                             "  ]\n"
                             "}",
                             &err);
    ASSERT_TRUE(crossed.has_value()) << err;
    EXPECT_FALSE(validateSpec(*crossed, &err));
    EXPECT_EQ(err, "scenario 'crossed': E115 error at services[0].size_min: "
                   "size_min 500 > size_max 10: no query size fits the "
                   "clip range");
}

TEST(SpecIo, SchemaKeysMatchReadmeGrammar)
{
    // Every key the README's grammar block names, as a dotted path, in
    // order of first appearance: a key line is `"key":`, and a key
    // whose value opens `{` or `[` prefixes the keys inside it.
    std::string readme = readFile(std::filesystem::path(scenarioDir()) /
                                  ".." / "src" / "scenario" / "README.md");
    size_t begin = readme.find("```jsonc", readme.find("## Grammar"));
    size_t end = readme.find("```", begin + 8);
    ASSERT_NE(begin, std::string::npos);
    ASSERT_NE(end, std::string::npos);
    std::istringstream block(readme.substr(begin, end - begin));

    std::vector<std::string> keys;
    std::vector<std::string> prefixes = {""};
    std::string pending;  // prefix for the next '{' or '['
    std::string line;
    while (std::getline(block, line)) {
        line = line.substr(0, line.find("//"));
        for (size_t i = 0; i < line.size(); ++i) {
            char c = line[i];
            if (c == '"') {
                size_t close = line.find('"', i + 1);
                std::string word = line.substr(i + 1, close - i - 1);
                i = close;
                size_t next = line.find_first_not_of(' ', close + 1);
                if (next == std::string::npos || line[next] != ':')
                    continue;  // a string value
                std::string path = prefixes.back() + word;
                if (std::find(keys.begin(), keys.end(), path) == keys.end())
                    keys.push_back(path);
                pending = path;
            } else if (c == '{' || c == '[') {
                // The top-level object and array items keep the prefix.
                prefixes.push_back(pending.empty()
                                       ? prefixes.back()
                                       : pending + (c == '[' ? "[]." : "."));
                pending.clear();
            } else if (c == '}' || c == ']') {
                prefixes.pop_back();
                pending.clear();
            } else if (c == ',') {
                pending.clear();
            }
        }
    }
    EXPECT_EQ(keys, schemaKeys());
    EXPECT_EQ(schemaKeys().size(), 74u);  // 64 leaves + 10 containers
}

// ---- defaults mirror the legacy entry points -----------------------------

TEST(SpecDefaults, DefaultSpecMatchesLegacyServeDefaults)
{
    // A default ScenarioSpec must drive serveTraces exactly like a
    // default-constructed TraceServeOptions — the legacy entry
    // points' behaviour. Pin every field so drift in either struct
    // breaks this test, not an experiment.
    ScenarioSpec s;
    cluster::TraceServeOptions legacy;
    EXPECT_EQ(s.serve.horizon_hours, legacy.horizon_hours);
    EXPECT_EQ(s.serve.interval_hours, legacy.interval_hours);
    EXPECT_EQ(s.serve.sla_ms, legacy.sla_ms);
    EXPECT_EQ(s.serve.overprovision_rate, legacy.overprovision_rate);
    EXPECT_EQ(s.serve.power_cap_w, legacy.power_cap_w);
    EXPECT_TRUE(s.serve.power_cap_schedule.empty());
    EXPECT_EQ(s.serve.router, legacy.router);
    EXPECT_EQ(s.serve.router_seed, legacy.router_seed);
    EXPECT_EQ(s.serve.admission.policy, legacy.admission.policy);
    EXPECT_EQ(s.serve.admission.queue_cap, legacy.admission.queue_cap);
    EXPECT_EQ(s.serve.admission.deadline_slack,
              legacy.admission.deadline_slack);
    EXPECT_EQ(s.serve.admission.cross_shard_retry,
              legacy.admission.cross_shard_retry);
    EXPECT_EQ(s.serve.feedback.gain, legacy.feedback.gain);
    EXPECT_EQ(s.serve.feedback.floor_frac, legacy.feedback.floor_frac);
    EXPECT_EQ(s.serve.trace.horizon_hours, legacy.trace.horizon_hours);
    EXPECT_EQ(s.serve.trace.bucket_seconds,
              legacy.trace.bucket_seconds);
    EXPECT_EQ(s.serve.trace.time_compression,
              legacy.trace.time_compression);
    EXPECT_EQ(s.serve.trace.seed, legacy.trace.seed);
    EXPECT_EQ(s.provisioner, ProvisionerKind::Hercules);
    EXPECT_EQ(s.nh_seed, 17u);

    // Profiling defaults mirror the library measurement defaults.
    sim::MeasureOptions mo;
    EXPECT_EQ(s.profile.num_queries, mo.sim.num_queries);
    EXPECT_EQ(s.profile.warmup_queries, mo.sim.warmup_queries);
    EXPECT_EQ(s.profile.bisect_iters, mo.bisect_iters);
    EXPECT_EQ(s.profile.seed, mo.sim.seed);
    EXPECT_TRUE(s.profile.table_cache.empty());
    EXPECT_TRUE(s.profile.eval_memo.empty());

    // A default service spec is the legacy ServiceSpec.
    ServiceScenario svc;
    cluster::ServiceSpec legacy_svc;
    EXPECT_EQ(svc.spec.model, legacy_svc.model);
    EXPECT_EQ(svc.spec.load.peak_qps, legacy_svc.load.peak_qps);
    EXPECT_EQ(svc.spec.sla_ms, legacy_svc.sla_ms);
    EXPECT_EQ(svc.spec.qos.priority, legacy_svc.qos.priority);
    EXPECT_EQ(svc.peak_qps_frac, 0.0);

    // And the default spec's canonical text is the trivial one.
    EXPECT_EQ(toText(ScenarioSpec{}),
              "{\n  \"name\": \"scenario\"\n}\n");
}

// ---- time-varying power cap ----------------------------------------------

TEST(PowerCapSchedule, PowerCapAtSteps)
{
    const double inf = std::numeric_limits<double>::infinity();
    std::vector<cluster::PowerCapPoint> sched;
    // Empty schedule: the scalar cap alone.
    EXPECT_EQ(cluster::powerCapAt(sched, inf, 5.0), inf);
    EXPECT_EQ(cluster::powerCapAt(sched, 700.0, 5.0), 700.0);

    sched = {{18.0, 330.0}, {23.0, 1e9}};
    // Before the first point only the scalar applies.
    EXPECT_EQ(cluster::powerCapAt(sched, inf, 0.0), inf);
    EXPECT_EQ(cluster::powerCapAt(sched, 500.0, 17.99), 500.0);
    // Inside the brownout the step wins (min with the scalar).
    EXPECT_EQ(cluster::powerCapAt(sched, inf, 18.0), 330.0);
    EXPECT_EQ(cluster::powerCapAt(sched, inf, 22.5), 330.0);
    EXPECT_EQ(cluster::powerCapAt(sched, 200.0, 20.0), 200.0);
    // After the lift, the huge step leaves the scalar in charge.
    EXPECT_EQ(cluster::powerCapAt(sched, inf, 23.0), 1e9);
    EXPECT_EQ(cluster::powerCapAt(sched, 500.0, 23.5), 500.0);
}

// ---- golden: scenario::run == hand-wired serveTraces ---------------------

/** A valid CPU config for the hand-built efficiency entries. */
sched::SchedulingConfig
cpuConfig()
{
    sched::SchedulingConfig cfg;
    cfg.mapping = sched::Mapping::CpuModelBased;
    cfg.cpu_threads = 4;
    cfg.cores_per_thread = 1;
    cfg.batch = 64;
    return cfg;
}

/**
 * Hand-built (T1, T2) x (RMC1, RMC2, RMC3) efficiency table — the
 * `bench_paper multiservice` shape (heterogeneous types, three models)
 * without the profiling cost.
 */
core::EfficiencyTable
goldenTable()
{
    core::EfficiencyTable t;
    auto add = [&](ServerType st, ModelId m, double qps, double w) {
        core::EfficiencyEntry e;
        e.server = st;
        e.model = m;
        e.feasible = true;
        e.qps = qps;
        e.power_w = w;
        e.config = cpuConfig();
        t.set(e);
    };
    add(ServerType::T2, ModelId::DlrmRmc1, 2000.0, 100.0);
    add(ServerType::T2, ModelId::DlrmRmc2, 1000.0, 200.0);
    add(ServerType::T2, ModelId::DlrmRmc3, 1500.0, 120.0);
    add(ServerType::T1, ModelId::DlrmRmc1, 1200.0, 90.0);
    add(ServerType::T1, ModelId::DlrmRmc2, 600.0, 150.0);
    add(ServerType::T1, ModelId::DlrmRmc3, 900.0, 100.0);
    return t;
}

/**
 * The spec mirrors the joint arm of `bench_paper multiservice`: three
 * services with phase-shifted peaks (20h / 12h / 4h, seeds 5/6/7, the
 * small RMC2 size-shaped) co-served on a shared heterogeneous fleet
 * under the Hercules provisioner, 0.5h intervals, compressed replay.
 */
ScenarioSpec
goldenSpec()
{
    ScenarioSpec spec;
    spec.name = "golden_multiservice";
    spec.fleet = {{ServerType::T2, 2}, {ServerType::T1, 1}};
    const ModelId ids[3] = {ModelId::DlrmRmc1, ModelId::DlrmRmc2,
                            ModelId::DlrmRmc3};
    const double peaks[3] = {400.0, 200.0, 300.0};
    for (int s = 0; s < 3; ++s) {
        ServiceScenario svc;
        svc.spec.model = ids[s];
        svc.spec.load.peak_qps = peaks[s];
        svc.spec.load.trough_frac = 0.35;
        svc.spec.load.peak_hour = 20.0 - 8.0 * s;
        svc.spec.load.seed = 5 + static_cast<uint64_t>(s);
        if (s == 1) {
            svc.spec.sizes.sigma = 0.7;
            svc.spec.sizes.max_size = 300;
        }
        spec.services.push_back(svc);
    }
    spec.serve.horizon_hours = 3.0;
    spec.serve.interval_hours = 0.5;
    spec.serve.trace.time_compression = 480.0;
    spec.serve.trace.seed = 42;
    return spec;
}

void
expectBitIdentical(const cluster::MultiServeResult& a,
                   const cluster::MultiServeResult& b)
{
    EXPECT_EQ(a.trace_queries, b.trace_queries);
    EXPECT_EQ(a.reprovisions, b.reprovisions);
    EXPECT_EQ(a.shard_slots, b.shard_slots);
    EXPECT_EQ(a.estimated_r, b.estimated_r);
    ASSERT_EQ(a.service_r.size(), b.service_r.size());
    for (size_t s = 0; s < a.service_r.size(); ++s) {
        EXPECT_EQ(a.service_r[s], b.service_r[s]);
        EXPECT_EQ(a.service_capacity_qps[s], b.service_capacity_qps[s]);
        EXPECT_EQ(a.service_sla_ms[s], b.service_sla_ms[s]);
    }
    EXPECT_EQ(a.sim.injected, b.sim.injected);
    EXPECT_EQ(a.sim.completed, b.sim.completed);
    EXPECT_EQ(a.sim.dropped, b.sim.dropped);
    EXPECT_EQ(a.sim.rejected, b.sim.rejected);
    EXPECT_EQ(a.sim.mean_ms, b.sim.mean_ms);
    EXPECT_EQ(a.sim.p50_ms, b.sim.p50_ms);
    EXPECT_EQ(a.sim.p99_ms, b.sim.p99_ms);
    EXPECT_EQ(a.sim.max_ms, b.sim.max_ms);
    EXPECT_EQ(a.sim.sla_violations, b.sim.sla_violations);
    EXPECT_EQ(a.sim.sla_violation_rate, b.sim.sla_violation_rate);
    EXPECT_EQ(a.sim.avg_provisioned_power_w,
              b.sim.avg_provisioned_power_w);
    EXPECT_EQ(a.sim.avg_consumed_power_w, b.sim.avg_consumed_power_w);
    ASSERT_EQ(a.sim.intervals.size(), b.sim.intervals.size());
    for (size_t k = 0; k < a.sim.intervals.size(); ++k) {
        const sim::IntervalStats& ia = a.sim.intervals[k];
        const sim::IntervalStats& ib = b.sim.intervals[k];
        EXPECT_EQ(ia.arrivals, ib.arrivals) << "interval " << k;
        EXPECT_EQ(ia.completions, ib.completions) << "interval " << k;
        EXPECT_EQ(ia.dropped, ib.dropped) << "interval " << k;
        EXPECT_EQ(ia.rejected, ib.rejected) << "interval " << k;
        EXPECT_EQ(ia.p50_ms, ib.p50_ms) << "interval " << k;
        EXPECT_EQ(ia.p99_ms, ib.p99_ms) << "interval " << k;
        EXPECT_EQ(ia.sla_violation_rate, ib.sla_violation_rate)
            << "interval " << k;
        EXPECT_EQ(ia.provisioned_power_w, ib.provisioned_power_w)
            << "interval " << k;
        EXPECT_EQ(ia.consumed_power_w, ib.consumed_power_w)
            << "interval " << k;
        EXPECT_EQ(ia.power_capped, ib.power_capped)
            << "interval " << k;
    }
    ASSERT_EQ(a.sim.services.size(), b.sim.services.size());
    for (size_t s = 0; s < a.sim.services.size(); ++s) {
        const sim::ServiceRunStats& sa = a.sim.services[s];
        const sim::ServiceRunStats& sb = b.sim.services[s];
        EXPECT_EQ(sa.injected, sb.injected);
        EXPECT_EQ(sa.completed, sb.completed);
        EXPECT_EQ(sa.dropped, sb.dropped);
        EXPECT_EQ(sa.rejected, sb.rejected);
        EXPECT_EQ(sa.p50_ms, sb.p50_ms);
        EXPECT_EQ(sa.p99_ms, sb.p99_ms);
        EXPECT_EQ(sa.sla_violations, sb.sla_violations);
        EXPECT_EQ(sa.sla_violation_rate, sb.sla_violation_rate);
    }
}

TEST(ScenarioRun, GoldenBitIdenticalToServeTraces)
{
    core::EfficiencyTable table = goldenTable();
    ScenarioSpec spec = goldenSpec();

    // The hand-wired legacy call the spec claims to subsume.
    std::vector<cluster::ServiceSpec> services;
    for (const ServiceScenario& s : spec.services)
        services.push_back(s.spec);
    cluster::HerculesProvisioner provisioner;
    cluster::MultiServeResult direct = cluster::serveTraces(
        table, {ServerType::T2, ServerType::T1}, {2, 1}, services,
        provisioner, spec.serve);

    ScenarioResult via_spec = run(spec, &table);
    expectBitIdentical(via_spec.serve, direct);

    // The spec survives a text round trip with the run untouched.
    std::string err;
    auto reparsed = parseSpec(toText(spec), &err);
    ASSERT_TRUE(reparsed.has_value()) << err;
    ScenarioResult via_text = run(*reparsed, &table);
    expectBitIdentical(via_text.serve, direct);
}

TEST(ScenarioRun, SingletonScheduleEqualsScalarCap)
{
    core::EfficiencyTable table = goldenTable();
    ScenarioSpec scalar = goldenSpec();
    scalar.serve.power_cap_w = 450.0;

    ScenarioSpec sched = goldenSpec();
    sched.serve.power_cap_schedule = {{0.0, 450.0}};

    ScenarioResult a = run(scalar, &table);
    ScenarioResult b = run(sched, &table);
    expectBitIdentical(a.serve, b.serve);
}

TEST(ScenarioRun, ScheduleCapsOnlyInsideWindow)
{
    core::EfficiencyTable table = goldenTable();
    ScenarioSpec spec = goldenSpec();
    // A one-interval brownout in [1h, 1.5h) far below the plan.
    spec.serve.power_cap_schedule = {{1.0, 150.0}, {1.5, 1e9}};

    ScenarioResult r = run(spec, &table);
    ScenarioSpec uncapped = goldenSpec();
    ScenarioResult base = run(uncapped, &table);

    const auto& ivs = r.serve.sim.intervals;
    ASSERT_GE(ivs.size(), 4u);
    EXPECT_FALSE(ivs[0].power_capped);
    EXPECT_FALSE(ivs[1].power_capped);
    EXPECT_TRUE(ivs[2].power_capped);  // [1h, 1.5h)
    EXPECT_LE(ivs[2].provisioned_power_w, 150.0);
    EXPECT_FALSE(ivs[3].power_capped);
    // Outside the window the plan matches the uncapped run.
    EXPECT_EQ(ivs[0].provisioned_power_w,
              base.serve.sim.intervals[0].provisioned_power_w);
    EXPECT_EQ(ivs[3].provisioned_power_w,
              base.serve.sim.intervals[3].provisioned_power_w);
}

TEST(ScenarioRun, UnsortedScheduleIsFatal)
{
    core::EfficiencyTable table = goldenTable();
    ScenarioSpec spec = goldenSpec();
    spec.serve.power_cap_schedule = {{2.0, 100.0}, {1.0, 200.0}};
    EXPECT_DEATH(run(spec, &table), "power_cap_schedule");
}

TEST(ScenarioRun, PeakFracResolvesAgainstTable)
{
    core::EfficiencyTable table = goldenTable();
    ScenarioSpec spec = goldenSpec();
    // RMC1 full-fleet capacity on T2 x2 + T1 x1: 2*2000 + 1200.
    spec.services[0].peak_qps_frac = 0.5;
    resolvePeaks(spec, table);
    EXPECT_DOUBLE_EQ(spec.services[0].spec.load.peak_qps,
                     0.5 * (2 * 2000.0 + 1200.0));
    EXPECT_EQ(spec.services[0].peak_qps_frac, 0.0);
    EXPECT_EQ(spec.services[0].name, "DLRM-RMC1");
    // Services without a frac keep their absolute peak.
    EXPECT_DOUBLE_EQ(spec.services[1].spec.load.peak_qps, 200.0);
}

TEST(ScenarioRun, ValidateSpecCatchesUnrunnableSpecs)
{
    // The non-fatal twin of run()'s validation: what --parse-only
    // (and the CI scenario lint) rejects.
    std::string err;
    EXPECT_TRUE(validateSpec(goldenSpec(), &err));

    ScenarioSpec unsorted = goldenSpec();
    unsorted.serve.power_cap_schedule = {{2.0, 100.0}, {1.0, 200.0}};
    EXPECT_FALSE(validateSpec(unsorted, &err));
    EXPECT_NE(err.find("power_cap_schedule"), std::string::npos);

    EXPECT_FALSE(validateSpec(ScenarioSpec{}, &err));
    EXPECT_NE(err.find("empty fleet"), std::string::npos);

    ScenarioSpec no_services = goldenSpec();
    no_services.services.clear();
    EXPECT_FALSE(validateSpec(no_services, &err));
    EXPECT_NE(err.find("no services"), std::string::npos);

    ScenarioSpec bad_interval = goldenSpec();
    bad_interval.serve.interval_hours = 0.0;
    EXPECT_FALSE(validateSpec(bad_interval, &err));

    // The parser's query-size and trace ranges, for C++-built specs.
    struct Case
    {
        void (*breakSpec)(ScenarioSpec&);
        const char* error;
    };
    const Case cases[] = {
        {[](ScenarioSpec& s) { s.services[1].spec.sizes.median = 0.0; },
         "E114 error at services[1].size_median: size_median must be "
         "positive (got 0)"},
        {[](ScenarioSpec& s) { s.services[0].spec.sizes.sigma = -1.0; },
         "E114 error at services[0].size_sigma: size_sigma must be "
         "non-negative (got -1)"},
        {[](ScenarioSpec& s) { s.services[0].spec.pooling.sigma = -0.1; },
         "E114 error at services[0].pooling_sigma: pooling_sigma must be "
         "non-negative (got -0.1)"},
        {[](ScenarioSpec& s) { s.services[0].spec.load.trough_frac = 2.0; },
         "E114 error at services[0].trough_frac: trough_frac must be in "
         "[0, 1] (got 2)"},
        {[](ScenarioSpec& s) {
             s.services[0].spec.sizes.min_size = 500;
             s.services[0].spec.sizes.max_size = 10;
         },
         "E115 error at services[0].size_min: size_min 500 > size_max "
         "10: no query size fits the clip range"},
        {[](ScenarioSpec& s) { s.serve.trace.bucket_seconds = 0.0; },
         "E114 error at trace.bucket_seconds: bucket_seconds must be "
         "positive (got 0)"},
        {[](ScenarioSpec& s) { s.serve.trace.time_compression = 0.5; },
         "E114 error at trace.time_compression: time_compression must be "
         ">= 1 (got 0.5)"},
    };
    for (const Case& c : cases) {
        ScenarioSpec bad = goldenSpec();
        c.breakSpec(bad);
        EXPECT_FALSE(validateSpec(bad, &err));
        EXPECT_EQ(err, "scenario 'golden_multiservice': " +
                           std::string(c.error));
    }
}

TEST(ScenarioRun, SelfProfiledRunMatchesProfileThenRun)
{
    // One fleet type x one model under small measurement knobs, no
    // cache files: run() profiles its own table, and that must be the
    // same table (so the same replay) as profiling first.
    ScenarioSpec spec;
    spec.name = "self_profiled";
    spec.fleet = {{ServerType::T2, 2}};
    ServiceScenario svc;
    svc.spec.model = ModelId::DlrmRmc1;
    svc.peak_qps_frac = 0.5;
    spec.services.push_back(svc);
    spec.serve.horizon_hours = 1.0;
    spec.serve.interval_hours = 0.5;
    spec.serve.trace.time_compression = 480.0;
    spec.profile.num_queries = 200;
    spec.profile.warmup_queries = 40;
    spec.profile.bisect_iters = 3;

    ScenarioResult self = run(spec);
    core::EfficiencyTable table = profileTable(spec);
    ScenarioResult given = run(spec, &table);

    expectBitIdentical(self.serve, given.serve);
    EXPECT_EQ(self.resolved.services[0].spec.load.peak_qps,
              given.resolved.services[0].spec.load.peak_qps);
    EXPECT_GT(self.serve.sim.completed, 0u);
    EXPECT_GT(self.profile_wall_ms, 0.0);
}

// ---- cache reuse ---------------------------------------------------------

/** A cheap self-profiled spec serving `models` on a T2 + T3 fleet. */
ScenarioSpec
cacheSpec(const std::string& name, const std::vector<ModelId>& models,
          const std::string& dir)
{
    ScenarioSpec spec;
    spec.name = name;
    spec.fleet = {{ServerType::T2, 2}, {ServerType::T3, 1}};
    for (ModelId m : models) {
        ServiceScenario svc;
        svc.spec.model = m;
        svc.peak_qps_frac = 0.4;
        spec.services.push_back(svc);
    }
    spec.serve.horizon_hours = 1.0;
    spec.serve.interval_hours = 0.5;
    spec.serve.trace.time_compression = 960.0;
    spec.profile.num_queries = 200;
    spec.profile.warmup_queries = 40;
    spec.profile.bisect_iters = 3;
    if (!dir.empty()) {
        spec.profile.table_cache = dir + "/table.csv";
        spec.profile.eval_memo = dir + "/memo.tsv";
    }
    return spec;
}

/** A fresh, empty directory under the working directory. */
std::string
freshDir(const std::string& name)
{
    std::filesystem::remove_all(name);
    std::filesystem::create_directory(name);
    return name;
}

/** Every line of a text file. */
std::vector<std::string>
readLines(const std::string& path)
{
    std::ifstream in(path);
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    return lines;
}

void
writeLines(const std::string& path, const std::vector<std::string>& lines)
{
    std::ofstream out(path);
    for (const std::string& line : lines)
        out << line << "\n";
}

/*
 * Two specs sharing one table cache and one eval memo: a spec that
 * needs cells the cache lacks re-profiles (reusing the memo), and one
 * whose cells the cache holds reuses only those cells. Either way the
 * run equals the same spec run cold, with no cache at all.
 */
TEST(ScenarioCache, SharedCachesServeEachSpecAsCold)
{
    const std::string dir = freshDir("scenario_cache_shared");
    const ScenarioSpec one =
        cacheSpec("one", {ModelId::DlrmRmc1}, dir);
    const ScenarioSpec two =
        cacheSpec("two", {ModelId::DlrmRmc1, ModelId::DlrmRmc3}, dir);
    for (const ScenarioSpec* order : {&one, &two, &one}) {
        SCOPED_TRACE(order->name);
        ScenarioResult shared = run(*order);
        ScenarioSpec cold_spec = *order;
        cold_spec.profile.table_cache.clear();
        cold_spec.profile.eval_memo.clear();
        ScenarioResult cold = run(cold_spec);
        EXPECT_EQ(shared.table, cold.table);
        expectBitIdentical(shared.serve, cold.serve);
        for (size_t s = 0; s < cold.resolved.services.size(); ++s)
            EXPECT_EQ(shared.resolved.services[s].spec.load.peak_qps,
                      cold.resolved.services[s].spec.load.peak_qps);
    }
    std::filesystem::remove_all(dir);
}

/*
 * A table cache is reused only under the build fingerprint and the
 * profile options it was written with; an eval memo only under the
 * fingerprint.
 */
TEST(ScenarioCache, OtherBuildOrOptionsAreNotReused)
{
    const std::string dir = freshDir("scenario_cache_stale");
    const ScenarioSpec spec = cacheSpec("stale", {ModelId::DlrmRmc1}, dir);
    const core::EfficiencyTable table = profileTable(spec);
    ASSERT_TRUE(cachedTable(spec).has_value());
    EXPECT_EQ(*cachedTable(spec), table);

    for (auto change : std::vector<void (*)(ScenarioSpec&)>{
             [](ScenarioSpec& s) { s.profile.num_queries += 1; },
             [](ScenarioSpec& s) { s.profile.warmup_queries += 1; },
             [](ScenarioSpec& s) { s.profile.bisect_iters += 1; },
             [](ScenarioSpec& s) { s.profile.seed += 1; },
             [](ScenarioSpec& s) {
                 s.fleet.push_back({ServerType::T7, 1});
             }}) {
        ScenarioSpec other = spec;
        change(other);
        EXPECT_FALSE(cachedTable(other).has_value());
    }

    // Another build: the same files with a foreign fingerprint.
    const std::string fp = "fp=" + core::buildFingerprintHex();
    const std::string foreign = "fp=0123456789abcdef";
    ASSERT_NE(fp, foreign);
    for (const std::string& path :
         {spec.profile.table_cache, spec.profile.eval_memo}) {
        std::vector<std::string> lines = readLines(path);
        ASSERT_GT(lines.size(), 1u);
        const size_t at = lines[0].find(fp);
        ASSERT_NE(at, std::string::npos) << path << ": " << lines[0];
        lines[0].replace(at, fp.size(), foreign);
        writeLines(path, lines);
    }
    EXPECT_FALSE(cachedTable(spec).has_value());
    core::EvalEngine engine(core::EvalOptions{});
    EXPECT_EQ(engine.loadCache(spec.profile.eval_memo), 0u);
    // Re-profiling rewrites both under this build.
    EXPECT_EQ(profileTable(spec), table);
    EXPECT_TRUE(cachedTable(spec).has_value());
    EXPECT_GT(engine.loadCache(spec.profile.eval_memo), 0u);
    std::filesystem::remove_all(dir);
}

// ---- result JSON --------------------------------------------------------

TEST(ResultJson, NamesAreEscaped)
{
    core::EfficiencyTable table = goldenTable();
    ScenarioSpec spec = goldenSpec();
    spec.name = "a \"b\" \\ c";
    spec.services[0].name = spec.name;
    ScenarioResult r = run(spec, &table);
    EXPECT_TRUE(r.failed_writes.empty());

    const std::string path = "scenario_test_escaped.json";
    ASSERT_TRUE(writeResultJson(path, r));
    const std::string text = readFile(path);
    EXPECT_NE(text.find("\"scenario\": \"a \\\"b\\\" \\\\ c\","),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("{\"name\": \"a \\\"b\\\" \\\\ c\", "),
              std::string::npos)
        << text;
    std::filesystem::remove(path);
}

TEST(ResultJson, WriteFailuresAreReported)
{
    core::EfficiencyTable table = goldenTable();
    ScenarioSpec spec = goldenSpec();
    spec.serve.horizon_hours = 1.0;
    spec.observability.trace_file = "/nonexistent-dir/t.jsonl";
    spec.observability.metrics_file = "/nonexistent-dir/m.json";
    ScenarioResult r = run(spec, &table);
    EXPECT_EQ(r.failed_writes,
              (std::vector<std::string>{"/nonexistent-dir/t.jsonl",
                                        "/nonexistent-dir/m.json"}));

    EXPECT_FALSE(writeResultJson("/nonexistent-dir/r.json", r));
    if (std::filesystem::exists("/dev/full")) {
        EXPECT_FALSE(writeResultJson("/dev/full", r));
    }
}

TEST(ScenarioRun, ProvisionerNamesRoundTrip)
{
    for (ProvisionerKind k :
         {ProvisionerKind::Hercules, ProvisionerKind::Greedy,
          ProvisionerKind::PriorityAware, ProvisionerKind::Nh})
        EXPECT_EQ(parseProvisionerKind(provisionerKindName(k)), k);
    EXPECT_FALSE(parseProvisionerKind("bogus").has_value());
}

}  // namespace
}  // namespace hercules::scenario
