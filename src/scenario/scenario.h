/**
 * @file
 * The declarative scenario API: one spec, one entry point for every
 * serving experiment.
 *
 * A ScenarioSpec composes the *whole* experiment the online-serving
 * stack can express — the heterogeneous shard fleet, N co-served
 * services (model, diurnal curve incl. unforecast surge windows,
 * query-size/pooling distributions, SLA, QoS class), the query router
 * and its feedback knobs, the provisioning policy, admission control,
 * horizon/interval, and a time-varying power-cap schedule — plus the
 * offline-profiling knobs that size the efficiency table the run is
 * built from. Specs serialize to a text (JSON-subset) format with
 * exact round-trip and line/key-precise parse errors (spec_io.h), so
 * an experiment is a file in scenarios/, not a new .cpp.
 *
 * scenario::run() is the single entry point: it profiles (or loads)
 * the efficiency table, resolves fraction-of-capacity peak loads and
 * per-service SLAs, builds the provisioner, and drives
 * cluster::serveTraces. A spec whose fields mirror a hand-wired
 * serveTraces call reproduces it bit-identically (golden-pinned in
 * tests/test_scenario.cc).
 */
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "cluster/serving.h"
#include "core/efficiency_table.h"
#include "core/profiler.h"
#include "obs/telemetry.h"
#include "util/json.h"

namespace hercules::scenario {

/** One server type of the scenario's shard fleet. */
struct FleetEntry
{
    hw::ServerType type = hw::ServerType::T2;
    /** Simulated shard slots of this type (the availability Nh). */
    int shard_slots = 1;
};

/** One co-served service of the scenario. */
struct ServiceScenario
{
    /** Display name; empty = the model's name. */
    std::string name;
    /**
     * Peak load as a fraction of the service's *full-fleet* capacity
     * (every slot of every feasible type serving only it), resolved
     * against the profiled efficiency table at run time. > 0 overrides
     * spec.load.peak_qps — this is how a scenario file stays portable
     * across profiling configurations.
     */
    double peak_qps_frac = 0.0;
    /** The underlying service spec (model, curve, SLA, QoS, sizes). */
    cluster::ServiceSpec spec;
};

/** The cluster provisioning policies a scenario can pick. */
enum class ProvisionerKind {
    Hercules,
    Greedy,
    PriorityAware,
    Nh,
};

/** @return display name ("hercules", "greedy", "priority-aware", "nh"). */
const char* provisionerKindName(ProvisionerKind k);

/** Parse a name as printed by provisionerKindName(). */
std::optional<ProvisionerKind> parseProvisionerKind(
    const std::string& name);

/**
 * How the efficiency table the run is built from is obtained. Defaults
 * mirror the library measurement defaults (sim::SimOptions /
 * sim::MeasureOptions); scenario files meant for CI smoke set smaller
 * values.
 */
struct ProfileSpec
{
    /**
     * Efficiency-table CSV cache: reused when it was written by this
     * build under these profile options and holds every cell the spec
     * needs (cachedTable()), else rewritten after a fresh profile.
     * Empty = always profile.
     */
    std::string table_cache;
    /**
     * EvalEngine memo spill (sim::EvalEngine::saveCache format, under
     * this build's fingerprint): loaded before profiling, saved after, so repeated runs (and CI
     * jobs restoring the file from an actions cache) warm-start the
     * measurement layer instead of re-simulating. Empty = off.
     */
    std::string eval_memo;
    int num_queries = 600;     ///< queries per measurement probe
    int warmup_queries = 120;  ///< excluded from probe statistics
    int bisect_iters = 6;      ///< QPS bisection refinement steps
    uint64_t seed = 42;        ///< measurement RNG seed
};

/** The whole experiment, declaratively. */
struct ScenarioSpec
{
    std::string name = "scenario";
    std::string description;
    /** The heterogeneous shard fleet; must be non-empty to run. */
    std::vector<FleetEntry> fleet;
    /** Co-served services; must be non-empty to run. */
    std::vector<ServiceScenario> services;
    ProvisionerKind provisioner = ProvisionerKind::Hercules;
    /** Seed of the heterogeneity-oblivious NH provisioner. */
    uint64_t nh_seed = 17;
    ProfileSpec profile;
    /**
     * Everything cluster::serveTraces consumes: horizon/interval,
     * fallback SLA, over-provision rate, router + feedback, admission,
     * scalar power cap and the time-varying cap schedule, and the
     * arrival-trace options (compression, bucket, seed).
     */
    cluster::TraceServeOptions serve;
    /**
     * Telemetry emission (spec block "observability"): per-query JSONL
     * trace and/or metrics export, with deterministic query-id-hash
     * sampling. Both files empty (the default) = telemetry off —
     * bit-identical to a build without the subsystem; non-empty only
     * *adds* output files, never changes a simulated statistic.
     */
    obs::ObsSpec observability;
};

/** Outcome of one scenario run. */
struct ScenarioResult
{
    /**
     * The spec as executed: peak_qps resolved from peak_qps_frac,
     * service names filled in. Serializing this spec reproduces the
     * run without the table (peak_qps_frac is cleared once resolved).
     */
    ScenarioSpec resolved;
    /** The efficiency table the run was built from. */
    core::EfficiencyTable table;
    /** The serving outcome (aggregates, per-service, per-interval). */
    cluster::MultiServeResult serve;
    double profile_wall_ms = 0.0;  ///< table profile/load wall time
    double serve_wall_ms = 0.0;    ///< serveTraces wall time
    /** Telemetry files that could not be opened, written or closed. */
    std::vector<std::string> failed_writes;
};

/**
 * The spec's table from its CSV cache (ScenarioSpec::profile's
 * table_cache), when the file exists and may be reused: its provenance
 * line names this build's fingerprint (core/fingerprint.h) and the
 * spec's profile options, and it has every (fleet type x service
 * model) cell the spec needs. The result holds those cells only, in
 * the order a fresh profile inserts them. Otherwise std::nullopt, with
 * the reason on stderr when a file was there.
 */
std::optional<core::EfficiencyTable> cachedTable(const ScenarioSpec& spec);

/**
 * Profile (or load) the efficiency table a spec's run needs: the
 * (fleet type x service model) grid under the spec's measurement
 * knobs. A reusable cache (cachedTable()) is returned as is; otherwise
 * the grid is profiled with the EvalEngine memo spill of
 * ScenarioSpec::profile applied, and the cache is rewritten.
 */
core::EfficiencyTable profileTable(const ScenarioSpec& spec);

/**
 * Resolve every service's peak_qps_frac against a profiled table, in
 * place: load.peak_qps = frac * full-fleet capacity, frac cleared.
 * run() does this internally; callers that derive further knobs from
 * the resolved loads (e.g. a power-cap sweep) use it up front.
 */
void resolvePeaks(ScenarioSpec& spec,
                  const core::EfficiencyTable& table);

/**
 * Table-free validation: true exactly when lint(spec) (scenario/lint.h)
 * reports no error. Otherwise *error is "scenario '<name>': " followed
 * by each error's formatDiagnostic line, joined by "; ". --parse-only
 * and CI scenario-smoke use it to reject a spec that parses but cannot
 * run; a C++-built spec gets the parser's range checks through it.
 */
bool validateSpec(const ScenarioSpec& spec,
                  std::string* error = nullptr);

/**
 * Run one scenario end to end — THE entry point every serving
 * experiment goes through.
 *
 * With `table` null the efficiency table comes from profileTable();
 * passing one (e.g. shared across a sweep of spec deltas) skips
 * profiling. Before profiling, fatals with validateSpec's message
 * when lint(spec, table) reports an error, so a malformed 24h replay
 * fails in microseconds instead of minutes; warnings never block.
 */
ScenarioResult run(const ScenarioSpec& spec,
                   const core::EfficiencyTable* table = nullptr);

/**
 * Write one serving run's summary as members of the object open in
 * `w`: the per-service stats (array `services_key`, each entry led by
 * the members `service_head(s)` writes), run totals, percentiles,
 * power, DES counts and the per-interval trajectory arrays — the keys
 * BENCH_scenario.json and the serving arms of BENCH_paper.json share
 * (listed in src/scenario/README.md).
 */
void writeRunSummary(util::JsonWriter& w, const sim::ClusterSimResult& r,
                     const char* services_key,
                     const std::function<void(size_t)>& service_head);

/**
 * Write a BENCH_scenario.json-style result file: provenance header
 * (caller-supplied git SHA + ISO timestamp), the resolved spec's
 * headline knobs, the fault timeline, and the run summary with each
 * "services" entry led by the service's spec.
 * @return true when the file was opened, written and closed.
 */
bool writeResultJson(const std::string& path, const ScenarioResult& r,
                     const char* git_sha = "unknown",
                     const std::string& generated_at = "");

}  // namespace hercules::scenario
