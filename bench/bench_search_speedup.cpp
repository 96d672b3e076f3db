/**
 * @file
 * Perf trajectory of the evaluation engine: serial vs pooled vs
 * memoized herculesTaskSearch and EfficiencyTable construction.
 *
 * Reported per mode: wall time, distinct simulator measurements
 * (engine misses), cache hit rate — plus a bit-identity check of the
 * winning configuration/QPS against the serial path (the engine's
 * ordered reductions and per-candidate RNG streams guarantee it). The
 * warm-start + early-abort shortcuts are benchmarked separately since
 * they deliberately trade probe fidelity for simulation count.
 *
 * Results land in BENCH_search.json next to the binary.
 */
#include <chrono>
#include <cstdio>
#include <string>

#include "bench/bench_common.h"
#include "core/profiler.h"
#include "sched/space.h"
#include "util/table.h"
#include "util/thread_pool.h"

using namespace hercules;

namespace {

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

struct ModeResult
{
    std::string name;
    double wall_ms = 0.0;
    int evals = 0;       ///< distinct simulator measurements paid for
    int cache_hits = 0;  ///< steps served from the memo
    uint64_t simulations = 0;
    double best_qps = 0.0;
    std::string best_cfg;
    bool identical_to_serial = false;

    double
    hitRate() const
    {
        int total = evals + cache_hits;
        return total > 0 ? static_cast<double>(cache_hits) / total : 0.0;
    }
};

ModeResult
runSearch(const char* name, const hw::ServerSpec& server,
          const model::Model& m, double sla_ms, sched::SearchOptions opt,
          core::EvalEngine& engine)
{
    opt.engine = &engine;
    core::EvalEngine::Stats before = engine.stats();
    Clock::time_point t0 = Clock::now();
    sched::SearchResult r =
        sched::herculesTaskSearch(server, m, sla_ms, opt);
    ModeResult out;
    out.name = name;
    out.wall_ms = msSince(t0);
    out.evals = r.evals;
    out.cache_hits = r.cache_hits;
    out.simulations = engine.stats().simulations - before.simulations;
    out.best_qps = r.best_qps;
    out.best_cfg = r.best ? r.best->key() : "(infeasible)";
    return out;
}

}  // namespace

int
main()
{
    bench::banner("Search speedup",
                  "Serial vs pooled vs memoized task-scheduling search "
                  "and efficiency-table build");

    int hw_threads = util::ThreadPool::hardwareThreads();
    std::printf("hardware threads: %d\n\n", hw_threads);

    model::Model m = model::buildModel(model::ModelId::DlrmRmc1);
    const hw::ServerSpec& server = hw::serverSpec(hw::ServerType::T2);
    double sla_ms = 20.0;
    sched::SearchOptions opt = bench::benchSearchOptions();

    std::printf("search space: %zu valid configs; the gradient search "
                "measures a fraction of them\n\n",
                sched::spaceSize(server, m, opt.space));

    // ---- herculesTaskSearch: serial / pooled / memoized ----------------
    sched::SearchOptions serial_opt = opt;
    serial_opt.eval.threads = 1;
    core::EvalEngine serial_engine(serial_opt.eval);
    ModeResult serial = runSearch("serial (1 thread)", server, m, sla_ms,
                                  serial_opt, serial_engine);
    serial.identical_to_serial = true;

    sched::SearchOptions pooled_opt = opt;
    pooled_opt.eval.threads = 0;  // all hardware threads
    core::EvalEngine pooled_engine(pooled_opt.eval);
    ModeResult pooled = runSearch("pooled", server, m, sla_ms, pooled_opt,
                                  pooled_engine);
    pooled.identical_to_serial = pooled.best_cfg == serial.best_cfg &&
                                 pooled.best_qps == serial.best_qps;

    // Same engine again: every step replays from the memo.
    ModeResult memo = runSearch("pooled + memoized", server, m, sla_ms,
                                pooled_opt, pooled_engine);
    memo.identical_to_serial = memo.best_cfg == serial.best_cfg &&
                               memo.best_qps == serial.best_qps;

    // Warm-start + early-abort: fewer simulations per measurement, at
    // the cost of slightly different probe placement (reported, not
    // required to be identical).
    sched::SearchOptions fast_opt = opt;
    fast_opt.eval.threads = 0;
    fast_opt.eval.warm_start = true;
    fast_opt.eval.abort_tail_factor = 8.0;
    fast_opt.eval.bisect_rel_tol = 0.05;
    core::EvalEngine fast_engine(fast_opt.eval);
    ModeResult fast = runSearch("pooled + shortcuts", server, m, sla_ms,
                                fast_opt, fast_engine);
    fast.identical_to_serial = fast.best_cfg == serial.best_cfg &&
                               fast.best_qps == serial.best_qps;

    TablePrinter t({"Mode", "Wall (ms)", "Evals", "Hits", "Hit rate",
                    "Sims", "Best QPS", "Identical"});
    for (const ModeResult* r : {&serial, &pooled, &memo, &fast}) {
        t.addRow({r->name, fmtDouble(r->wall_ms, 1),
                  std::to_string(r->evals), std::to_string(r->cache_hits),
                  fmtPercent(r->hitRate()),
                  std::to_string(r->simulations),
                  fmtDouble(r->best_qps, 1),
                  r->identical_to_serial ? "yes" : "no"});
    }
    t.print();

    double pool_speedup =
        pooled.wall_ms > 0.0 ? serial.wall_ms / pooled.wall_ms : 0.0;
    double memo_speedup =
        memo.wall_ms > 0.0 ? serial.wall_ms / memo.wall_ms : 0.0;
    std::printf("\nherculesTaskSearch speedup: %.2fx pooled, %.2fx "
                "memoized replay (target: >= 3x pooled on 4+ hardware "
                "threads)\n",
                pool_speedup, memo_speedup);

    // ---- EfficiencyTable build ----------------------------------------
    core::ProfilerOptions popt;
    popt.search = opt;
    popt.servers = {hw::ServerType::T1, hw::ServerType::T2,
                    hw::ServerType::T3};
    popt.models = {model::ModelId::DlrmRmc1, model::ModelId::MtWnd};
    if (!bench::fastMode())
        popt.models.push_back(model::ModelId::DlrmRmc2);

    popt.search.eval.threads = 1;
    Clock::time_point t0 = Clock::now();
    core::EfficiencyTable table_serial = core::offlineProfile(popt);
    double table_serial_ms = msSince(t0);

    popt.search.eval.threads = 0;
    t0 = Clock::now();
    core::EfficiencyTable table_pooled = core::offlineProfile(popt);
    double table_pooled_ms = msSince(t0);
    bool table_identical = table_serial == table_pooled;
    double table_speedup =
        table_pooled_ms > 0.0 ? table_serial_ms / table_pooled_ms : 0.0;

    std::printf("\nEfficiencyTable (%zu cells): %.0f ms serial, %.0f ms "
                "pooled (%.2fx), identical: %s\n",
                table_serial.size(), table_serial_ms, table_pooled_ms,
                table_speedup, table_identical ? "yes" : "no");

    // ---- JSON trajectory ----------------------------------------------
    util::JsonWriter w("BENCH_search.json");
    w.beginObject();
    w.key("git_sha").str(bench::gitSha());
    w.key("generated_at").str(isoUtcTimestamp());
    w.key("hardware_threads").integer(hw_threads);
    w.key("search").beginObject();
    w.key("serial_ms").fixed(serial.wall_ms, 2);
    w.key("pooled_ms").fixed(pooled.wall_ms, 2);
    w.key("memoized_ms").fixed(memo.wall_ms, 2);
    w.key("pooled_speedup").fixed(pool_speedup, 3);
    w.key("memoized_speedup").fixed(memo_speedup, 3);
    w.key("evals").integer(serial.evals);
    w.key("memoized_hit_rate").fixed(memo.hitRate(), 4);
    w.key("pooled_identical").boolean(pooled.identical_to_serial);
    w.key("memoized_identical").boolean(memo.identical_to_serial);
    w.key("shortcut_sims").integer(fast.simulations);
    w.key("baseline_sims").integer(serial.simulations);
    w.endObject();
    w.key("efficiency_table").beginObject();
    w.key("cells").integer(table_serial.size());
    w.key("serial_ms").fixed(table_serial_ms, 2);
    w.key("pooled_ms").fixed(table_pooled_ms, 2);
    w.key("speedup").fixed(table_speedup, 3);
    w.key("identical").boolean(table_identical);
    w.endObject();
    w.endObject();
    bench::closeJson(w, "BENCH_search.json");

    bool ok = pooled.identical_to_serial && memo.identical_to_serial &&
              table_identical;
    std::printf("\ndeterminism: %s\n", ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
}
