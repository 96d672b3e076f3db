#include "sched/gradient_search.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "sched/search_session.h"

namespace hercules::sched {

namespace {

using detail::Evaluator;
using detail::mergeResult;
using detail::Session;

/** A position on a search grid of two index axes. */
struct GridPoint
{
    int xi, yi;
};
using GridPoints = std::vector<GridPoint>;

/**
 * The ascent step of Algorithm 1 on an nx x ny grid: from a feasible
 * `at` of value `cur`, value the three forward neighbours (more x, more
 * y, both; in that order) and move to the best while it beats `cur`
 * (ties keep the earliest). `before` sees each step's candidates ahead
 * of valuing them, `moved` each accepted position; either may be empty.
 *
 * @return the value at the final position, where `at` is left.
 */
double
ascend(int nx, int ny, GridPoint& at, double cur,
       const std::function<double(GridPoint)>& value,
       const std::function<void(const GridPoints&)>& before = {},
       const std::function<void(GridPoint)>& moved = {})
{
    while (true) {
        GridPoints cands;
        if (at.xi + 1 < nx)
            cands.push_back({at.xi + 1, at.yi});
        if (at.yi + 1 < ny)
            cands.push_back({at.xi, at.yi + 1});
        if (at.xi + 1 < nx && at.yi + 1 < ny)
            cands.push_back({at.xi + 1, at.yi + 1});
        if (cands.empty())
            return cur;
        if (before)
            before(cands);
        double best_q = -1.0;
        GridPoint best_c = at;
        for (const GridPoint& c : cands) {
            double q = value(c);
            if (q > best_q) {
                best_q = q;
                best_c = c;
            }
        }
        if (best_q <= cur)
            return cur;  // convex surface: no improving direction left
        at = best_c;
        cur = best_q;
        if (moved)
            moved(at);
    }
}

/**
 * The Psp(M + D) climber of Algorithm 1: ascend() over index axes from
 * the origin (minimal parallelism), recording through the owning
 * (sub-)search's evaluator. The neighbours of each step are prefetched
 * onto the engine pool and then reduced in candidate order.
 *
 * @param nx, ny    axis lengths.
 * @param cfg_at    builds the configuration at a grid position.
 * @param ev        evaluator of the owning (sub-)search.
 * @param at        origin in, final position out.
 * @return best feasible QPS found along the climb (-1 when none).
 */
double
climb2d(int nx, int ny,
        const std::function<SchedulingConfig(GridPoint)>& cfg_at,
        Evaluator& ev, GridPoint& at)
{
    double cur = ev.qps(cfg_at(at));

    // If even the origin is infeasible, scan the batch axis once — the
    // origin may violate SLA while larger batches cannot help, but a
    // tiny query-fused batch sometimes only becomes feasible later.
    // (Kept serial: the scan stops at the first feasible batch, and
    // prefetching past it would measure batches the walk never uses.)
    for (GridPoint p{at.xi, at.yi + 1}; cur < 0.0 && p.yi < ny; ++p.yi) {
        cur = ev.qps(cfg_at(p));
        if (cur >= 0.0)
            at = p;
    }
    if (cur < 0.0)
        return -1.0;
    ev.markAccepted(cfg_at(at));

    return ascend(
        nx, ny, at, cur, [&](GridPoint p) { return ev.qps(cfg_at(p)); },
        [&](const GridPoints& cands) {
            std::vector<SchedulingConfig> cfgs;
            cfgs.reserve(cands.size());
            for (const GridPoint& c : cands)
                cfgs.push_back(cfg_at(c));
            ev.prefetch(cfgs);
        },
        [&](GridPoint p) { ev.markAccepted(cfg_at(p)); });
}

/**
 * Outer Psp(O) loop: stops when per-o peaks start decreasing.
 *
 * When the engine pool has parallelism, every arm runs speculatively at
 * once (disjoint configuration spaces — each arm owns one
 * cores-per-thread value). The reduction then replays the serial
 * early-termination rule in arm order: arms past the termination point
 * are discarded wholesale — their trace, counters and best never merge
 * — so the result is bit-identical to the serial walk, speculation only
 * spends idle cores.
 */
void
opParallelismLoop(Session& ctx, int max_o,
                  const std::function<double(int, SearchResult&)>& arm,
                  SearchResult& result)
{
    if (max_o < 1)
        return;
    size_t n = static_cast<size_t>(max_o);
    std::vector<SearchResult> partial(n);
    std::vector<double> peak(n, -1.0);
    std::vector<char> computed(n, 0);
    if (ctx.engine.speculative()) {
        // Cap speculation at pool width + 1: on a narrow pool a deep
        // arm list would make discarded climbs compete with the kept
        // arms' neighbour prefetches for slots. Arms past the cap are
        // computed lazily below (identical values either way).
        size_t spec = std::min(
            n, static_cast<size_t>(ctx.engine.pool().threads()) + 1);
        ctx.engine.pool().parallelFor(spec, [&](size_t i) {
            peak[i] = arm(static_cast<int>(i) + 1, partial[i]);
            computed[i] = 1;
        });
    }

    double prev = -1.0;
    for (int o = 1; o <= max_o; ++o) {
        size_t i = static_cast<size_t>(o - 1);
        if (!computed[i])
            peak[i] = arm(o, partial[i]);
        mergeResult(result, std::move(partial[i]));
        if (o > 1 && peak[i] < prev)
            break;  // Algorithm 1: terminate on decreasing op-parallelism
        if (peak[i] >= 0.0)
            prev = peak[i];
    }
}

void
searchCpuModelBased(Session& ctx, SearchResult& result)
{
    const auto& batches = ctx.opt.space.batches;
    int cores = ctx.server.cpu.cores;
    int max_o = std::min(ctx.opt.space.max_cores_per_thread, cores);
    opParallelismLoop(
        ctx, max_o,
        [&](int o, SearchResult& out) {
            int max_threads = cores / o;
            if (max_threads < 1)
                return -1.0;
            Evaluator ev(ctx, out);
            auto cfg_at = [&](GridPoint p) {
                SchedulingConfig cfg;
                cfg.mapping = Mapping::CpuModelBased;
                cfg.cpu_threads = p.xi + 1;
                cfg.cores_per_thread = o;
                cfg.batch = batches[static_cast<size_t>(p.yi)];
                return cfg;
            };
            GridPoint at{0, 0};
            return climb2d(max_threads, static_cast<int>(batches.size()),
                           cfg_at, ev, at);
        },
        result);
    // Anchor sweep along the fully-threaded edge (one thread per core,
    // the DeepRecSys corner): cheap insurance that measurement noise in
    // an early climb step can never leave Hercules below a baseline
    // whose space it supersedes. The engine memo dedupes repeats.
    Evaluator ev(ctx, result);
    std::vector<SchedulingConfig> anchors;
    anchors.reserve(batches.size());
    for (int b : batches) {
        SchedulingConfig cfg;
        cfg.mapping = Mapping::CpuModelBased;
        cfg.cpu_threads = cores;
        cfg.cores_per_thread = 1;
        cfg.batch = b;
        anchors.push_back(cfg);
    }
    ev.prefetch(anchors);
}

void
searchCpuSdPipeline(Session& ctx, SearchResult& result)
{
    const auto& batches = ctx.opt.space.batches;
    int cores = ctx.server.cpu.cores;
    int max_o = std::min(ctx.opt.space.max_cores_per_thread, cores);
    opParallelismLoop(
        ctx, max_o,
        [&](int o, SearchResult& out) {
            int max_sparse = std::max(cores / o - 1, 0);
            if (max_sparse < 1)
                return -1.0;
            Evaluator ev(ctx, out);
            auto cfg_at = [&](GridPoint p) {
                SchedulingConfig cfg;
                cfg.mapping = Mapping::CpuSdPipeline;
                cfg.cpu_threads = p.xi + 1;
                cfg.cores_per_thread = o;
                cfg.batch = batches[static_cast<size_t>(p.yi)];
                cfg.dense_threads = balancedDenseThreads(
                    ctx.server, ctx.model, cfg.cpu_threads, o, cfg.batch);
                return cfg;
            };
            GridPoint at{0, 0};
            return climb2d(max_sparse, static_cast<int>(batches.size()),
                           cfg_at, ev, at);
        },
        result);
}

void
searchGpuModelBased(Session& ctx, SearchResult& result)
{
    const auto& fusions = ctx.opt.space.fusion_limits;
    // Helper counts matter only when a cold path exists; the engine
    // memo dedupes the configs they leave identical.
    const std::vector<int> helpers =
        hostHelperThreads(ctx.server, ctx.opt.space);

    // Helper arms are independent (disjoint cpu_threads values) and the
    // seed walked all of them — no early termination — so they always
    // fan out; the reduction stays in helper order.
    std::vector<SearchResult> partial(helpers.size());
    ctx.engine.pool().parallelFor(helpers.size(), [&](size_t i) {
        int h = helpers[i];
        Evaluator ev(ctx, partial[i]);
        auto cfg_at = [&](GridPoint p) {
            SchedulingConfig cfg;
            cfg.mapping = Mapping::GpuModelBased;
            cfg.gpu_threads = p.xi + 1;
            cfg.fusion_limit = fusions[static_cast<size_t>(p.yi)];
            cfg.cpu_threads = h;
            cfg.cores_per_thread = 1;
            return cfg;
        };
        GridPoint at{0, 0};
        climb2d(ctx.opt.space.max_gpu_threads,
                static_cast<int>(fusions.size()), cfg_at, ev, at);
    });
    for (SearchResult& r : partial)
        mergeResult(result, std::move(r));
}

void
searchGpuSdPipeline(Session& ctx, SearchResult& result)
{
    const auto& batches = ctx.opt.space.batches;
    const auto& fusions = ctx.opt.space.fusion_limits;
    int cores = ctx.server.cpu.cores;
    // Host-side SparseNet lookups are bandwidth-bound, so m x o and
    // (m*o) x 1 allocations are nearly equivalent; probing o in {1, 2}
    // keeps the nested host/accelerator search tractable.
    int max_o = std::min({2, ctx.opt.space.max_cores_per_thread, cores});

    opParallelismLoop(
        ctx, max_o,
        [&](int o, SearchResult& out) {
            int max_threads = cores / o;
            if (max_threads < 1)
                return -1.0;
            Evaluator ev(ctx, out);
            // Accelerator-side warm start: each host-side move re-runs
            // the small (co-location x fusion) climb from the last
            // optimum (paper: "following each move-step of host-side
            // search, the accelerator-side search is performed"). The
            // warm state makes the host-candidate loop order-dependent,
            // so it stays serial; parallelism comes from the inner
            // climbs' neighbour prefetch and the o-arms.
            GridPoint warm{0, 0};
            auto inner = [&](GridPoint h) {
                auto inner_cfg = [&](GridPoint g) {
                    SchedulingConfig cfg;
                    cfg.mapping = Mapping::GpuSdPipeline;
                    cfg.cpu_threads = h.xi + 1;
                    cfg.cores_per_thread = o;
                    cfg.batch = batches[static_cast<size_t>(h.yi)];
                    cfg.gpu_threads = g.xi + 1;
                    cfg.fusion_limit = fusions[static_cast<size_t>(g.yi)];
                    return cfg;
                };
                return climb2d(ctx.opt.space.max_gpu_threads,
                               static_cast<int>(fusions.size()),
                               inner_cfg, ev, warm);
            };
            GridPoint at{0, 0};
            double cur = inner(at);
            if (cur < 0.0)
                return -1.0;  // an infeasible host origin ends the arm
            return ascend(max_threads, static_cast<int>(batches.size()),
                          at, cur, inner);
        },
        result);
}

SearchResult
searchMapping(Session& ctx, Mapping mapping)
{
    SearchResult result;
    switch (mapping) {
      case Mapping::CpuModelBased:
        searchCpuModelBased(ctx, result);
        break;
      case Mapping::CpuSdPipeline:
        searchCpuSdPipeline(ctx, result);
        break;
      case Mapping::GpuModelBased:
        searchGpuModelBased(ctx, result);
        break;
      case Mapping::GpuSdPipeline:
        searchGpuSdPipeline(ctx, result);
        break;
    }
    return result;
}

}  // namespace

SearchResult
gradientSearchMapping(const hw::ServerSpec& server, const model::Model& m,
                      Mapping mapping, double sla_ms,
                      const SearchOptions& opt)
{
    Session session(server, m, sla_ms, opt);
    return searchMapping(session, mapping);
}

SearchResult
herculesTaskSearch(const hw::ServerSpec& server, const model::Model& m,
                   double sla_ms, const SearchOptions& opt)
{
    // One session across the partition strategies: their timing store
    // is shared because they share graphs and host contexts (a GPU S-D
    // pipeline's SparseNet threads time what a CPU S-D pipeline's do).
    Session session(server, m, sla_ms, opt);

    // Partition strategies explore disjoint configuration spaces, so
    // they fan out as independent pool tasks; the merge below runs in
    // catalog order for a thread-count-independent result.
    std::vector<Mapping> mappings = applicableMappings(server, m);
    std::vector<SearchResult> results(mappings.size());
    session.engine.pool().parallelFor(mappings.size(), [&](size_t i) {
        results[i] = searchMapping(session, mappings[i]);
    });

    SearchResult combined;
    for (SearchResult& r : results)
        mergeResult(combined, std::move(r));
    return combined;
}

SearchResult
exhaustiveSearch(const hw::ServerSpec& server, const model::Model& m,
                 Mapping mapping, double sla_ms, const SearchOptions& opt)
{
    SearchResult result;
    Session session(server, m, sla_ms, opt);
    Evaluator ev(session, result);
    // The oracle grid is embarrassingly parallel: prefetch evaluates
    // every enumerated config on the pool and records them in
    // enumeration order.
    ev.prefetch(enumerateConfigs(server, m, mapping, opt.space));
    return result;
}

}  // namespace hercules::sched
