/**
 * @file
 * Scenario benchmark: times calls into the Hercules library's
 * public API (scenario::run and the functions of each layer) on three
 * workloads, checks every run's simulated output, and prints the
 * metrics by name and unit. The last stdout line is one JSON object:
 *
 *   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
 *
 * With --trace 0 the metrics are the end-to-end ones. With --trace 1 a
 * separate traced run follows the timed runs and the metrics are the
 * per-layer ones; its spans are written as Chrome trace-event JSON.
 *
 * Load shape: a closed loop, one caller issuing one scenario run at a
 * time in one process, telemetry off. The arrival process inside each
 * run is open-loop, but it lives in the generated trace.
 *
 * Usage: scenario_bench --workload NAME --seed N --seconds S --trace 0|1
 *                       [--root DIR] [--out DIR]
 * --root is the checkout holding perfbench/; --out receives the span
 * file. perfbench/run.py builds this program and passes both.
 */
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "checks.h"
#include "cluster/serving.h"
#include "core/eval_engine.h"
#include "core/profiler.h"
#include "hw/cost_model.h"
#include "scenario/scenario.h"
#include "scenario/spec_io.h"
#include "sched/gradient_search.h"
#include "sim/prepared.h"
#include "sim/server_sim.h"
#include "spans.h"
#include "workload/trace_gen.h"

namespace {

using namespace hercules;
using perfbench::nowS;
using perfbench::SpanRecorder;

/** One benchmark workload. */
struct Workload
{
    const char* name;
    const char* spec_file;  ///< under perfbench/scenarios/
    /** true: every timed run profiles its own table from scratch;
     *  false: the table is profiled in setup and shared by the runs. */
    bool cold;
};

const Workload kWorkloads[] = {
    {"profile_cold", "three_service_phase_shift.scn", true},
    {"replay_oblivious", "three_service_phase_shift.scn", false},
    {"replay_stateful", "shard_crash_recovery.scn", false},
};

struct Options
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string root = ".";
    std::string out = ".";
};

[[noreturn]] void
usage(const std::string& msg)
{
    std::fprintf(stderr,
                 "scenario_bench: %s\nusage: scenario_bench --workload "
                 "NAME --seed N --seconds S --trace 0|1 [--root DIR] "
                 "[--out DIR]\n",
                 msg.c_str());
    std::exit(2);
}

Options
parseArgs(int argc, char** argv)
{
    Options o;
    bool seen_seed = false, seen_seconds = false;
    for (int i = 1; i < argc; ++i) {
        std::string key = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + key);
        std::string val = argv[++i];
        char* end = nullptr;
        if (key == "--workload") {
            o.workload = val;
        } else if (key == "--seed") {
            o.seed = std::strtoull(val.c_str(), &end, 10);
            seen_seed = *end == '\0' && !val.empty();
        } else if (key == "--seconds") {
            o.seconds = std::strtod(val.c_str(), &end);
            seen_seconds = *end == '\0' && o.seconds > 0.0;
        } else if (key == "--trace") {
            if (val != "0" && val != "1")
                usage("--trace takes 0 or 1");
            o.trace = val == "1";
        } else if (key == "--root") {
            o.root = val;
        } else if (key == "--out") {
            o.out = val;
        } else {
            usage("unknown argument " + key);
        }
    }
    if (o.workload.empty() || !seen_seed || !seen_seconds)
        usage("--workload, --seed and a positive --seconds are required");
    return o;
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

std::string
hex(uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
    return buf;
}

/** Reference digests of one workload (perfbench/reference.txt). */
struct Reference
{
    bool found = false;
    uint64_t table = 0;  ///< efficiency table (seed-independent)
    uint64_t serve = 0;  ///< serving outcome at the spec's own seed
};

Reference
loadReference(const std::string& path, const std::string& workload)
{
    Reference ref;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string name, table, serve;
        ls >> name >> table >> serve;
        if (name != workload)
            continue;
        ref.found = true;
        ref.table = std::strtoull(table.c_str(), nullptr, 16);
        ref.serve = std::strtoull(serve.c_str(), nullptr, 16);
    }
    return ref;
}

/**
 * Tallies scenario runs and their output checks. A run fails when any
 * check on its output fails; problems outside a run (setup, traced
 * extras) make the result incorrect without counting as a failed run.
 */
class Checks
{
  public:
    /** Record one scenario run with its problems (empty = passed). */
    void
    run(const std::string& label, const std::vector<std::string>& bad)
    {
        ++attempted_;
        if (bad.empty())
            return;
        ++failed_;
        for (const std::string& b : bad)
            note(label + ": " + b);
    }

    /** Record a check outside a scenario run. */
    void
    expect(bool ok, const std::string& what)
    {
        if (!ok) {
            ok_ = false;
            note(what);
        }
    }

    int attempted() const { return attempted_; }
    int failed() const { return failed_; }
    bool correct() const { return ok_ && failed_ == 0 && attempted_ > 0; }

  private:
    void
    note(const std::string& msg)
    {
        std::fprintf(stderr, "CHECK FAILED: %s\n", msg.c_str());
    }

    int attempted_ = 0;
    int failed_ = 0;
    bool ok_ = true;
};

/**
 * The spec one workload hands to the library: the pinned scenario file
 * with the benchmark seed as its arrival-trace seed, no table or memo
 * cache (nothing is read from or written to the working directory) and
 * telemetry off.
 * @param default_seed out: the file's own trace seed.
 */
scenario::ScenarioSpec
loadWorkloadSpec(const Options& o, const Workload& w,
                 uint64_t* default_seed)
{
    std::string err;
    auto spec = scenario::loadSpecFile(
        o.root + "/perfbench/scenarios/" + w.spec_file, &err);
    if (!spec.has_value()) {
        std::fprintf(stderr, "scenario_bench: %s\n", err.c_str());
        std::exit(1);
    }
    *default_seed = spec->serve.trace.seed;
    spec->serve.trace.seed = o.seed;
    spec->profile.table_cache.clear();
    spec->profile.eval_memo.clear();
    spec->observability = obs::ObsSpec{};
    if (!scenario::validateSpec(*spec, &err)) {
        std::fprintf(stderr, "scenario_bench: %s\n", err.c_str());
        std::exit(1);
    }
    return *spec;
}

/** Checks common to every scenario run's output. */
std::vector<std::string>
checkRun(const cluster::MultiServeResult& serve,
         const core::EfficiencyTable& table, const Reference& ref,
         uint64_t expect_serve)
{
    std::vector<std::string> bad = perfbench::checkInvariants(serve);
    uint64_t td = perfbench::tableDigest(table);
    if (td != ref.table)
        bad.push_back("table digest " + hex(td) + " != reference " +
                      hex(ref.table));
    uint64_t sd = perfbench::serveDigest(serve);
    if (sd != expect_serve)
        bad.push_back("serve digest " + hex(sd) + " != expected " +
                      hex(expect_serve));
    return bad;
}

// ---- traced run ----------------------------------------------------------

/** The profiler options scenario::profileTable derives from a spec. */
core::ProfilerOptions
profilerOptions(const scenario::ScenarioSpec& spec)
{
    core::ProfilerOptions popt;
    popt.search.measure.sim.num_queries = spec.profile.num_queries;
    popt.search.measure.sim.warmup_queries = spec.profile.warmup_queries;
    popt.search.measure.bisect_iters = spec.profile.bisect_iters;
    popt.search.measure.sim.seed = spec.profile.seed;
    for (const scenario::FleetEntry& e : spec.fleet)
        popt.servers.push_back(e.type);
    for (const scenario::ServiceScenario& s : spec.services)
        if (std::find(popt.models.begin(), popt.models.end(),
                      s.spec.model) == popt.models.end())
            popt.models.push_back(s.spec.model);
    return popt;
}

/** Engine counters of one profiling pass. */
struct ProfileStats
{
    core::EvalEngine::Stats engine{};
    int threads = 1;
};

/** Profile through core::offlineProfile on an engine owned here. */
core::EfficiencyTable
profileOwned(const scenario::ScenarioSpec& spec, ProfileStats* ps)
{
    core::ProfilerOptions popt = profilerOptions(spec);
    core::EvalEngine engine(popt.search.eval);
    popt.search.engine = &engine;
    core::EfficiencyTable table = core::offlineProfile(popt);
    ps->engine = engine.stats();
    ps->threads = engine.pool().threads();
    return table;
}

/** The provisioner scenario::run builds for a spec. */
std::unique_ptr<cluster::Provisioner>
makeProvisioner(const scenario::ScenarioSpec& spec)
{
    switch (spec.provisioner) {
      case scenario::ProvisionerKind::Hercules:
        return std::make_unique<cluster::HerculesProvisioner>();
      case scenario::ProvisionerKind::Greedy:
        return std::make_unique<cluster::GreedyProvisioner>();
      case scenario::ProvisionerKind::PriorityAware:
        return std::make_unique<cluster::PriorityAwareProvisioner>();
      case scenario::ProvisionerKind::Nh:
        return std::make_unique<cluster::NhProvisioner>(spec.nh_seed);
    }
    return nullptr;
}

/** Records one span per provision() call of the wrapped policy. */
class TimedProvisioner : public cluster::Provisioner
{
  public:
    TimedProvisioner(std::unique_ptr<cluster::Provisioner> inner,
                     SpanRecorder* spans, int parent)
        : inner_(std::move(inner)), spans_(spans), parent_(parent)
    {
    }

    cluster::Allocation
    provision(const cluster::ProvisionProblem& p,
              const std::vector<double>& loads, double r) override
    {
        int id = spans_->begin("cluster.provision", parent_);
        cluster::Allocation a = inner_->provision(p, loads, r);
        spans_->end(id);
        return a;
    }

    const char* name() const override { return inner_->name(); }

  private:
    std::unique_ptr<cluster::Provisioner> inner_;
    SpanRecorder* spans_;
    int parent_;
};

/** What the traced scenario run produced. */
struct TracedRun
{
    core::EfficiencyTable table;
    cluster::MultiServeResult serve;
    scenario::ScenarioSpec resolved;
    int run = -1, profile = -1, serve_span = -1;  ///< span ids
};

/**
 * scenario::run's steps, called one by one under spans: validate,
 * profile (or copy the shared table), resolve, serveTraces with a timed
 * provisioner. The ClusterSim phase split is attached to
 * cluster.serveTraces as child spans on the phase track.
 */
TracedRun
tracedScenarioRun(const scenario::ScenarioSpec& spec,
                  const core::EfficiencyTable* shared, SpanRecorder& spans,
                  ProfileStats* ps)
{
    TracedRun t;
    t.run = spans.begin("scenario.run");
    std::string err;
    if (!scenario::validateSpec(spec, &err)) {
        std::fprintf(stderr, "scenario_bench: %s\n", err.c_str());
        std::exit(1);
    }
    t.profile = spans.begin("scenario.profile", t.run);
    t.table = shared != nullptr ? *shared : profileOwned(spec, ps);
    spans.end(t.profile);

    t.resolved = spec;
    scenario::resolvePeaks(t.resolved, t.table);
    std::vector<hw::ServerType> fleet;
    std::vector<int> slots;
    for (const scenario::FleetEntry& e : spec.fleet) {
        fleet.push_back(e.type);
        slots.push_back(e.shard_slots);
    }
    std::vector<cluster::ServiceSpec> services;
    for (const scenario::ServiceScenario& s : t.resolved.services)
        services.push_back(s.spec);

    t.serve_span = spans.begin("cluster.serveTraces", t.run);
    TimedProvisioner policy(makeProvisioner(spec), &spans, t.serve_span);
    t.serve = cluster::serveTraces(t.table, fleet, slots, services, policy,
                                   spec.serve);
    spans.end(t.serve_span);
    spans.end(t.run);

    // ClusterSim::run is serveTraces' last call; its phase totals are
    // laid end to end, ending where serveTraces ended.
    const obs::DesProfile& des = t.serve.sim.des;
    double end = spans[t.serve_span].end_s;
    double at = end - des.run_wall_ms * 1e-3;
    int sim_run = spans.add({"sim.run", at, end, t.serve_span,
                             perfbench::kPhases, ""});
    for (auto [name, ms] : {std::pair{"sim.route", des.route_wall_ms},
                            std::pair{"sim.advance", des.advance_wall_ms},
                            std::pair{"sim.harvest", des.harvest_wall_ms}}) {
        spans.add({name, at, at + ms * 1e-3, sim_run, perfbench::kPhases,
                   ""});
        at += ms * 1e-3;
    }
    return t;
}

/** Per-cell sched.search timings. */
struct SearchPass
{
    std::vector<double> ms;
    double evals = 0.0;
};

/**
 * Time herculesTaskSearch on every cell, each on an engine of its own
 * (so no cell is served from another's memo), and check that each
 * search finds the tuple the shared-engine profile recorded.
 */
SearchPass
searchPass(const scenario::ScenarioSpec& spec,
           const core::EfficiencyTable& table, SpanRecorder& spans,
           Checks& checks)
{
    SearchPass out;
    core::ProfilerOptions popt = profilerOptions(spec);
    for (model::ModelId mid : popt.models) {
        model::Model m = model::buildModel(mid, popt.variant);
        for (hw::ServerType st : popt.servers) {
            core::EvalEngine engine(popt.search.eval);
            sched::SearchOptions sub = popt.search;
            sub.engine = &engine;
            std::string cell = std::string(hw::serverTypeName(st)) +
                               " x " + m.name;
            int id = spans.begin("sched.search", -1,
                                 "\"cell\": \"" + cell + "\"");
            sched::SearchResult r = sched::herculesTaskSearch(
                hw::serverSpec(st), m, m.sla_ms, sub);
            spans.end(id);
            out.ms.push_back(spans[id].durS() * 1e3);
            out.evals += r.evals;

            const core::EfficiencyEntry* e = table.get(st, mid);
            checks.expect(e != nullptr &&
                              r.best.has_value() == e->feasible &&
                              (!e->feasible || r.best_qps == e->qps),
                          "sched.search on " + cell +
                              " disagrees with the table");
        }
    }
    return out;
}

/** Unit probes of the measurement layer, each a median of rounds. */
struct Probes
{
    double events_per_s = 0.0;
    double peak_queue_depth = 0.0;
    double prepare_us = 0.0;
    double graph_timing_ns = 0.0;
};

/**
 * simulateServer on each feasible table cell's winning config at the
 * spec's probe depth (events/s over a fixed work budget per round),
 * sim::prepare per call, and CostModel::cpuGraphTiming per call on the
 * spec's models.
 */
Probes
probeLayers(const scenario::ScenarioSpec& spec,
            const core::EfficiencyTable& table, Checks& checks)
{
    constexpr int kRounds = 15;
    core::ProfilerOptions popt = profilerOptions(spec);
    std::vector<model::Model> models;
    for (model::ModelId id : popt.models)
        models.push_back(model::buildModel(id, popt.variant));

    struct Probe
    {
        const core::EfficiencyEntry* entry;
        const model::Model* model;
        sim::PreparedWorkload prepared;
        hw::CostModel cost;
    };
    std::vector<Probe> cells;
    for (const model::Model& m : models)
        for (hw::ServerType st : popt.servers) {
            const core::EfficiencyEntry* e = table.get(st, m.id);
            if (e != nullptr && e->feasible)
                cells.push_back({e, &m,
                                 sim::prepare(hw::serverSpec(st), m, e->config),
                                 hw::CostModel(hw::serverSpec(st))});
        }
    Probes p;
    checks.expect(!cells.empty(), "no feasible table cell to probe");
    if (cells.empty())
        return p;

    double sink = 0.0;
    std::vector<double> eps, prep_us, graph_ns;
    for (int round = 0; round < kRounds; ++round) {
        double t0 = nowS();
        uint64_t events = 0;
        for (const Probe& c : cells) {
            sim::SimOptions so = popt.search.measure.sim;
            so.offered_qps = c.entry->qps;
            sim::ServerSimResult r = sim::simulateServer(c.prepared, so);
            events += r.events_executed;
            p.peak_queue_depth = std::max(
                p.peak_queue_depth,
                static_cast<double>(r.peak_event_queue_depth));
        }
        eps.push_back(static_cast<double>(events) / (nowS() - t0));

        constexpr int kPrepares = 20;
        t0 = nowS();
        for (int i = 0; i < kPrepares; ++i)
            for (const Probe& c : cells)
                sink += sim::prepare(hw::serverSpec(c.entry->server),
                                     *c.model, c.entry->config)
                            .config.batch;
        prep_us.push_back((nowS() - t0) * 1e6 /
                          (kPrepares * static_cast<double>(cells.size())));

        constexpr int kTimings = 200;
        t0 = nowS();
        for (const Probe& c : cells)
            for (int i = 0; i < kTimings; ++i)
                sink += c.cost.cpuGraphTiming(c.model->graph,
                                              c.entry->config.batch,
                                              c.prepared.cpu_cx)
                            .latency_us;
        graph_ns.push_back((nowS() - t0) * 1e9 /
                           (kTimings * static_cast<double>(cells.size())));
    }
    checks.expect(sink > 0.0, "layer probes computed nothing");
    p.events_per_s = median(eps);
    p.prepare_us = median(prep_us);
    p.graph_timing_ns = median(graph_ns);
    return p;
}

// ---- output --------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
printMetrics(const char* title, const std::vector<Metric>& ms)
{
    std::printf("\n%s\n", title);
    for (const Metric& m : ms)
        std::printf("  %-28s %16.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
}

void
printResultLine(const Checks& checks, const std::vector<Metric>& ms)
{
    std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
                "\"metrics\": {",
                checks.correct() ? "true" : "false", checks.attempted(),
                checks.failed());
    for (size_t i = 0; i < ms.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", ms[i].name.c_str(), ms[i].value,
                    ms[i].unit.c_str());
    std::printf("}}\n");
}

}  // namespace

int
main(int argc, char** argv)
{
    const Options o = parseArgs(argc, argv);
    const Workload* w = nullptr;
    for (const Workload& k : kWorkloads)
        if (o.workload == k.name)
            w = &k;
    if (w == nullptr)
        usage("unknown workload " + o.workload);
    const Reference ref =
        loadReference(o.root + "/perfbench/reference.txt", w->name);
    Checks checks;
    checks.expect(ref.found, std::string("no reference digests for ") +
                                 w->name);

    // ---- setup: load + resolve the spec; the replays also profile the
    // table their runs share. Repeated (>= 3 times, >= 0.5 s) for a
    // median. A set-up cheaper than 10 ms is also repeated for 0.1 s
    // after every timed run, so that its median spans the same stretch
    // of host load as run_s instead of one half-second.
    scenario::ScenarioSpec spec;
    core::EfficiencyTable shared;
    uint64_t default_seed = 0;
    std::vector<double> setup_s;
    auto setUp = [&](size_t min_reps, double min_seconds) {
        const size_t first = setup_s.size();
        const double begin = nowS();
        do {
            double t0 = nowS();
            spec = loadWorkloadSpec(o, *w, &default_seed);
            if (!w->cold)
                shared = scenario::profileTable(spec);
            setup_s.push_back(nowS() - t0);
            if (!w->cold)
                checks.expect(perfbench::tableDigest(shared) == ref.table,
                              "setup table digest " +
                                  hex(perfbench::tableDigest(shared)) +
                                  " != reference " + hex(ref.table));
        } while (setup_s.size() - first < min_reps ||
                 nowS() - begin < min_seconds);
    };
    setUp(3, 0.5);
    const bool cheap_setup = median(setup_s) < 0.01;
    const bool default_seed_run = o.seed == default_seed;

    // ---- timed runs: one scenario::run at a time for --seconds.
    std::vector<double> run_s, cpu_s;
    uint64_t expect_serve = default_seed_run ? ref.serve : 0;
    uint64_t first_serve = 0, first_table = 0;
    const double loop_begin = nowS();
    while (run_s.empty() || nowS() - loop_begin < o.seconds) {
        double c0 = cpuSeconds();
        double t0 = nowS();
        scenario::ScenarioResult r = w->cold ? scenario::run(spec)
                                             : scenario::run(spec, &shared);
        run_s.push_back(nowS() - t0);
        cpu_s.push_back(cpuSeconds() - c0);
        if (run_s.size() == 1) {
            first_serve = perfbench::serveDigest(r.serve);
            first_table = perfbench::tableDigest(r.table);
            // Off the default seed there is no reference: later runs
            // must repeat the first one bit for bit.
            if (!default_seed_run)
                expect_serve = first_serve;
        }
        checks.run("run " + std::to_string(run_s.size()),
                   checkRun(r.serve, r.table, ref, expect_serve));
        if (cheap_setup)
            setUp(1, 0.1);
    }
    const double rss_mb = peakRssMb();
    const size_t reps = run_s.size();

    std::printf("workload %s  seed %" PRIu64 "  (%s)\n", w->name, o.seed,
                default_seed_run ? "default seed: reference digest checked"
                                 : "non-default seed: runs checked "
                                   "against each other");
    std::printf("serve digest %s  table digest %s\n",
                hex(first_serve).c_str(), hex(first_table).c_str());
    std::printf("run_s over %zu repetitions: median %.4f  min %.4f  "
                "max %.4f\n",
                reps, median(run_s),
                *std::min_element(run_s.begin(), run_s.end()),
                *std::max_element(run_s.begin(), run_s.end()));
    std::printf("run_s samples:");
    for (double s : run_s)
        std::printf(" %.4f", s);
    std::printf("\nsetup_s over %zu repetitions: median %.6f\n",
                setup_s.size(), median(setup_s));

    const std::vector<Metric> end_to_end = {
        {"run_s", median(run_s), "s"},
        {"cpu_s", median(cpu_s), "s"},
        {"peak_rss_mb", rss_mb, "MB"},
        {"setup_s", median(setup_s), "s"},
    };
    printMetrics("end-to-end metrics", end_to_end);
    std::printf("  %-28s %16.6g %s\n", "error_rate",
                ratio(checks.failed(), checks.attempted()),
                "(failed / attempted runs)");

    if (!o.trace) {
        printResultLine(checks, end_to_end);
        return checks.correct() ? 0 : 1;
    }

    // ---- traced run ------------------------------------------------------
    SpanRecorder spans;
    ProfileStats prof;
    int setup_profile = -1;
    if (!w->cold) {
        // The replays profile in setup: trace that profile on an engine
        // owned here, so core.* and sched.* describe the work in setup_s.
        setup_profile = spans.begin("setup.profile");
        core::EfficiencyTable own = profileOwned(spec, &prof);
        spans.end(setup_profile);
        checks.expect(own == shared,
                      "owned-engine profile differs from profileTable");
    }
    TracedRun t = tracedScenarioRun(spec, w->cold ? nullptr : &shared,
                                    spans, &prof);
    checks.run("traced run", checkRun(t.serve, t.table, ref, expect_serve));

    workload::TraceOptions topt = t.resolved.serve.trace;
    topt.horizon_hours = t.resolved.serve.horizon_hours;
    std::vector<workload::ServiceTraceSpec> trace_specs;
    for (const scenario::ServiceScenario& s : t.resolved.services)
        trace_specs.push_back({s.spec.load, s.spec.sizes, s.spec.pooling});
    int tg = spans.begin("workload.trace_gen");
    size_t queries =
        workload::generateMultiServiceTrace(trace_specs, topt).size();
    spans.end(tg);
    checks.expect(queries == t.serve.trace_queries,
                  "separate trace generation gave " +
                      std::to_string(queries) + " queries, the run " +
                      std::to_string(t.serve.trace_queries));

    SearchPass search = searchPass(spec, t.table, spans, checks);
    Probes probes = probeLayers(spec, t.table, checks);

    const std::string span_file =
        o.out + "/trace_" + w->name + ".json";
    checks.expect(spans.writeChromeJson(span_file),
                  "cannot write " + span_file);

    // ---- per-layer metrics --------------------------------------------
    const obs::DesProfile& des = t.serve.sim.des;
    const sim::ClusterSimResult& cs = t.serve.sim;
    const double run_traced = spans[t.run].durS();
    const double profile_s_t = spans[t.profile].durS();
    const double serve_s_t = spans[t.serve_span].durS();
    const double trace_gen_s = spans[tg].durS();
    int provision_calls = 0;
    const double provision_s =
        spans.totalS("cluster.provision", &provision_calls);
    const double sim_run_s = des.run_wall_ms * 1e-3;
    const double route_s = des.route_wall_ms * 1e-3;
    const double profile_wall =
        w->cold ? profile_s_t : spans[setup_profile].durS();
    const double busy_s = prof.engine.measure_wall_ms * 1e-3;
    const double misses = static_cast<double>(prof.engine.misses);
    const double hits = static_cast<double>(prof.engine.hits);
    size_t killed = 0;
    for (const sim::HealthTransition& ht : cs.health_transitions)
        killed += ht.killed_inflight;

    // Layer rows of the traced run; they partition scenario.run except
    // for scenario::run's own glue (validate, resolve), which stays
    // unattributed.
    const std::vector<Metric> rows = {
        {"core+sched+sim.measure (profile)", profile_s_t, "s"},
        {"workload (trace generation)", trace_gen_s, "s"},
        {"cluster (shard build, faults, provision)",
         serve_s_t - sim_run_s - trace_gen_s + provision_s, "s"},
        {"sim (ClusterSim route/advance/harvest)",
         sim_run_s - provision_s, "s"},
    };
    double covered = 0.0;
    for (const Metric& r : rows)
        covered += r.value;
    const double unattributed = run_traced - covered;
    const double unattributed_frac = ratio(unattributed, run_traced);

    std::printf("\nper-layer table (traced run, %.4f s)\n", run_traced);
    for (const Metric& r : rows)
        std::printf("  %-42s %10.4f s  %6.1f%%\n", r.name.c_str(), r.value,
                    100.0 * ratio(r.value, run_traced));
    std::printf("  %-42s %10.4f s  %6.1f%%\n", "unattributed",
                unattributed, 100.0 * unattributed_frac);
    if (unattributed_frac > 0.10)
        std::printf("FLAG: layer rows cover only %.1f%% of run_s "
                    "(need >= 90%%)\n",
                    100.0 * (1.0 - unattributed_frac));
    std::printf("span self time: scenario.run %.4f s, "
                "cluster.serveTraces %.4f s\nspans written to %s\n",
                spans.selfS(t.run), spans.selfS(t.serve_span),
                span_file.c_str());

    const double n_search = static_cast<double>(search.ms.size());
    const double events = static_cast<double>(des.events_executed);
    const double rejected = static_cast<double>(cs.rejected);
    const double retries = static_cast<double>(cs.admission_retries);

    const std::vector<Metric> per_layer = {
        {"scenario.profile_s", profile_s_t, "s"},
        {"scenario.serve_s", serve_s_t, "s"},
        {"scenario.unattributed_frac", unattributed_frac, "ratio"},
        {"core.evals", misses, "count"},
        {"core.hits", hits, "count"},
        {"core.simulations", static_cast<double>(prof.engine.simulations),
         "count"},
        {"core.hit_rate", ratio(hits, hits + misses), "ratio"},
        {"core.busy_s", busy_s, "s"},
        {"core.pool_util", ratio(busy_s, profile_wall * prof.threads),
         "ratio"},
        {"sched.search_ms_p50", median(search.ms), "ms"},
        {"sched.search_ms_max",
         search.ms.empty()
             ? 0.0
             : *std::max_element(search.ms.begin(), search.ms.end()),
         "ms"},
        {"sched.evals_per_search", ratio(search.evals, n_search), "count"},
        {"sim.measure_ms", ratio(busy_s * 1e3, misses), "ms"},
        {"sim.sims_per_measure",
         ratio(static_cast<double>(prof.engine.simulations), misses),
         "count"},
        {"sim.probe_events_per_s", probes.events_per_s, "1/s"},
        {"sim.probe_peak_queue_depth", probes.peak_queue_depth, "count"},
        {"sim.prepare_us", probes.prepare_us, "us"},
        {"hw.graph_timing_ns", probes.graph_timing_ns, "ns"},
        {"workload.trace_gen_s", trace_gen_s, "s"},
        {"workload.queries", static_cast<double>(t.serve.trace_queries),
         "count"},
        {"cluster.provision_calls", static_cast<double>(provision_calls),
         "count"},
        {"cluster.provision_ms", provision_s * 1e3, "ms"},
        {"cluster.serve_setup_s", serve_s_t - sim_run_s, "s"},
        {"sim.run_s", sim_run_s, "s"},
        {"sim.route_s", route_s, "s"},
        {"sim.advance_s", des.advance_wall_ms * 1e-3, "s"},
        {"sim.harvest_s", des.harvest_wall_ms * 1e-3, "s"},
        {"sim.route_self_s", route_s - provision_s, "s"},
        {"sim.events", events, "count"},
        {"sim.peak_queue_depth",
         static_cast<double>(des.peak_event_queue_depth), "count"},
        {"sim.events_per_s", ratio(events, sim_run_s), "1/s"},
        {"sim.bytes_per_query",
         ratio(rss_mb * 1024.0 * 1024.0,
               static_cast<double>(t.serve.trace_queries)),
         "B"},
        {"qos.rejected", rejected, "count"},
        {"qos.retries", retries, "count"},
        {"qos.retry_save_rate", ratio(retries, retries + rejected),
         "ratio"},
        {"fault.transitions",
         static_cast<double>(cs.health_transitions.size()), "count"},
        {"fault.killed_inflight", static_cast<double>(killed), "count"},
        {"obs.trace_overhead_frac", run_traced / median(run_s) - 1.0,
         "ratio"},
    };
    printMetrics("per-layer metrics", per_layer);
    printResultLine(checks, per_layer);
    return checks.correct() ? 0 : 1;
}
