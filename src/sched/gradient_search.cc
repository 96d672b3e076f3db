#include "sched/gradient_search.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>

#include "util/logging.h"

namespace hercules::sched {

namespace {

/**
 * Ordered reduction of a partial result into the combined one. Strict
 * `>` on QPS keeps the earliest-merged winner on ties, so the reduction
 * order — always program order, never completion order — fully
 * determines the outcome regardless of the engine's thread count.
 */
void
mergeResult(SearchResult& acc, SearchResult&& r)
{
    acc.evals += r.evals;
    acc.cache_hits += r.cache_hits;
    acc.trace.insert(acc.trace.end(),
                     std::make_move_iterator(r.trace.begin()),
                     std::make_move_iterator(r.trace.end()));
    if (r.best && r.best_qps > acc.best_qps) {
        acc.best = r.best;
        acc.best_point = r.best_point;
        acc.best_qps = r.best_qps;
    }
}

/**
 * Trace recorder on top of the evaluation engine, owned by one
 * (sub-)search. The engine memoizes across evaluators; this class keeps
 * the per-search bookkeeping the seed's Evaluator kept: first-request
 * dedup, the trace, the eval/cache-hit counters and the running best.
 */
class Evaluator
{
  public:
    Evaluator(core::EvalEngine& engine, sim::TimingStore& timings,
              const hw::ServerSpec& server, const model::Model& m,
              double sla_ms, const SearchOptions& opt,
              SearchResult& result)
        : engine_(engine), timings_(timings), server_(server), model_(m),
          sla_ms_(sla_ms), opt_(opt), result_(result)
    {
    }

    /** Latency-bounded QPS of a config; -1 when invalid/infeasible. */
    double
    qps(const SchedulingConfig& cfg)
    {
        auto [it, inserted] = seen_.try_emplace(cfg.key());
        if (inserted)
            record(cfg, engine_.evaluate(request(cfg)), it->second);
        return it->second ? it->second->qps : -1.0;
    }

    /**
     * Fan a candidate batch onto the engine pool, then record results
     * in request order — the trace and counters come out exactly as if
     * the batch had been evaluated serially.
     */
    void
    prefetch(const std::vector<SchedulingConfig>& cfgs)
    {
        std::vector<const SchedulingConfig*> fresh;
        std::vector<core::EvalRequest> reqs;
        fresh.reserve(cfgs.size());
        reqs.reserve(cfgs.size());
        for (const SchedulingConfig& cfg : cfgs) {
            if (seen_.count(cfg.key()))
                continue;
            fresh.push_back(&cfg);
            reqs.push_back(request(cfg));
        }
        std::vector<core::EvalResult> results =
            engine_.evaluateMany(reqs);
        for (size_t i = 0; i < fresh.size(); ++i) {
            auto [it, inserted] = seen_.try_emplace(fresh[i]->key());
            if (inserted)
                record(*fresh[i], std::move(results[i]), it->second);
        }
    }

    /** Mark the latest trace entry for `cfg` as an accepted move. */
    void
    markAccepted(const SchedulingConfig& cfg)
    {
        std::string key = cfg.key();
        for (auto rit = result_.trace.rbegin();
             rit != result_.trace.rend(); ++rit) {
            if (rit->cfg.key() == key) {
                rit->accepted = true;
                return;
            }
        }
    }

  private:
    core::EvalRequest
    request(const SchedulingConfig& cfg)
    {
        core::EvalRequest r;
        r.server = &server_;
        r.model = &model_;
        r.cfg = cfg;
        r.sla_ms = sla_ms_;
        r.measure = opt_.measure;
        r.measure.power_budget_w = opt_.power_budget_w;
        r.timings = &timings_;
        return r;
    }

    void
    record(const SchedulingConfig& cfg, core::EvalResult&& res,
           std::optional<sim::OperatingPoint>& slot)
    {
        if (!res.valid) {
            slot = std::nullopt;  // invalid: never measured, not traced
            return;
        }
        if (res.cache_hit)
            ++result_.cache_hits;
        else
            ++result_.evals;

        SearchStep step;
        step.cfg = cfg;
        if (res.point) {
            step.qps = res.point->qps;
            step.tail_ms = res.point->result.tail_ms;
            step.peak_power_w = res.point->result.peak_power_w;
            step.qps_per_watt = res.point->result.qps_per_watt;
        }
        result_.trace.push_back(step);

        if (res.point && res.point->qps > result_.best_qps) {
            result_.best = cfg;
            result_.best_point = *res.point;
            result_.best_qps = res.point->qps;
        }
        slot = std::move(res.point);
    }

    core::EvalEngine& engine_;
    sim::TimingStore& timings_;
    const hw::ServerSpec& server_;
    const model::Model& model_;
    double sla_ms_;
    const SearchOptions& opt_;
    SearchResult& result_;
    std::unordered_map<std::string, std::optional<sim::OperatingPoint>>
        seen_;
};

/**
 * Everything a mapping search needs to spawn sub-evaluators. The
 * timing store belongs to the outermost search call and is freed when
 * it returns.
 */
struct SearchCtx
{
    core::EvalEngine& engine;
    sim::TimingStore& timings;
    const hw::ServerSpec& server;
    const model::Model& model;
    double sla_ms;
    const SearchOptions& opt;

    Evaluator
    make(SearchResult& result) const
    {
        return Evaluator(engine, timings, server, model, sla_ms, opt,
                         result);
    }
};

/**
 * The Psp(M + D) climber of Algorithm 1: a 2D gradient ascent over
 * index axes, moving to the best of the three forward neighbours while
 * throughput improves. The neighbours of each step are prefetched onto
 * the engine pool and then reduced in candidate order.
 *
 * @param nx, ny    axis lengths.
 * @param cfg_at    builds the configuration at position (xi, yi).
 * @param ev        evaluator of the owning (sub-)search.
 * @param start_xi, start_yi  origin (minimal parallelism).
 * @return best feasible QPS found along the climb (-1 when none).
 */
double
climb2d(int nx, int ny,
        const std::function<SchedulingConfig(int, int)>& cfg_at,
        Evaluator& ev, int start_xi = 0, int start_yi = 0,
        int* final_xi = nullptr, int* final_yi = nullptr)
{
    int xi = start_xi;
    int yi = start_yi;
    double cur = ev.qps(cfg_at(xi, yi));
    double best = cur;
    if (cur >= 0.0)
        ev.markAccepted(cfg_at(xi, yi));

    // If even the origin is infeasible, scan the batch axis once — the
    // origin may violate SLA while larger batches cannot help, but a
    // tiny query-fused batch sometimes only becomes feasible later.
    // (Kept serial: the scan stops at the first feasible batch, and
    // prefetching past it would measure batches the walk never uses.)
    if (cur < 0.0) {
        for (int y = start_yi + 1; y < ny; ++y) {
            double q = ev.qps(cfg_at(xi, y));
            if (q >= 0.0) {
                yi = y;
                cur = best = q;
                ev.markAccepted(cfg_at(xi, yi));
                break;
            }
        }
        if (cur < 0.0)
            return -1.0;
    }

    while (true) {
        struct Cand
        {
            int xi, yi;
        };
        std::vector<Cand> cands;
        if (xi + 1 < nx)
            cands.push_back({xi + 1, yi});
        if (yi + 1 < ny)
            cands.push_back({xi, yi + 1});
        if (xi + 1 < nx && yi + 1 < ny)
            cands.push_back({xi + 1, yi + 1});
        if (cands.empty())
            break;

        std::vector<SchedulingConfig> cfgs;
        cfgs.reserve(cands.size());
        for (const Cand& c : cands)
            cfgs.push_back(cfg_at(c.xi, c.yi));
        ev.prefetch(cfgs);

        double best_q = -1.0;
        Cand best_c{xi, yi};
        for (const Cand& c : cands) {
            double q = ev.qps(cfg_at(c.xi, c.yi));
            if (q > best_q) {
                best_q = q;
                best_c = c;
            }
        }
        if (best_q <= cur)
            break;  // convex surface: no improving direction left
        xi = best_c.xi;
        yi = best_c.yi;
        cur = best_q;
        best = std::max(best, cur);
        ev.markAccepted(cfg_at(xi, yi));
    }
    if (final_xi)
        *final_xi = xi;
    if (final_yi)
        *final_yi = yi;
    return best;
}

/**
 * Outer Psp(O) loop: returns when per-o peaks start decreasing.
 *
 * When the engine pool has parallelism, every arm runs speculatively at
 * once (disjoint configuration spaces — each arm owns one
 * cores-per-thread value). The reduction then replays the serial
 * early-termination rule in arm order: arms past the termination point
 * are discarded wholesale — their trace, counters and best never merge
 * — so the result is bit-identical to the serial walk, speculation only
 * spends idle cores.
 */
double
opParallelismLoop(const SearchCtx& ctx, int max_o,
                  const std::function<double(int, SearchResult&)>& arm,
                  SearchResult& result)
{
    if (max_o < 1)
        return -1.0;
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

    double best = -1.0;
    double prev = -1.0;
    for (int o = 1; o <= max_o; ++o) {
        size_t i = static_cast<size_t>(o - 1);
        if (!computed[i])
            peak[i] = arm(o, partial[i]);
        mergeResult(result, std::move(partial[i]));
        best = std::max(best, peak[i]);
        if (o > 1 && peak[i] < prev)
            break;  // Algorithm 1: terminate on decreasing op-parallelism
        if (peak[i] >= 0.0)
            prev = peak[i];
    }
    return best;
}

double
searchCpuModelBased(const SearchCtx& ctx, SearchResult& result)
{
    const auto& batches = ctx.opt.space.batches;
    int cores = ctx.server.cpu.cores;
    int max_o = std::min(ctx.opt.space.max_cores_per_thread, cores);
    double best = opParallelismLoop(
        ctx, max_o,
        [&](int o, SearchResult& out) {
            int max_threads = cores / o;
            if (max_threads < 1)
                return -1.0;
            Evaluator ev = ctx.make(out);
            auto cfg_at = [&](int xi, int yi) {
                SchedulingConfig cfg;
                cfg.mapping = Mapping::CpuModelBased;
                cfg.cpu_threads = xi + 1;
                cfg.cores_per_thread = o;
                cfg.batch = batches[static_cast<size_t>(yi)];
                return cfg;
            };
            return climb2d(max_threads, static_cast<int>(batches.size()),
                           cfg_at, ev);
        },
        result);
    // Anchor sweep along the fully-threaded edge (one thread per core,
    // the DeepRecSys corner): cheap insurance that measurement noise in
    // an early climb step can never leave Hercules below a baseline
    // whose space it supersedes. The engine memo dedupes repeats.
    Evaluator ev = ctx.make(result);
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
    for (const SchedulingConfig& cfg : anchors)
        best = std::max(best, ev.qps(cfg));
    return best;
}

double
searchCpuSdPipeline(const SearchCtx& ctx, SearchResult& result)
{
    const auto& batches = ctx.opt.space.batches;
    int cores = ctx.server.cpu.cores;
    int max_o = std::min(ctx.opt.space.max_cores_per_thread, cores);
    return opParallelismLoop(
        ctx, max_o,
        [&](int o, SearchResult& out) {
            int max_sparse = std::max(cores / o - 1, 0);
            if (max_sparse < 1)
                return -1.0;
            Evaluator ev = ctx.make(out);
            auto cfg_at = [&](int xi, int yi) {
                SchedulingConfig cfg;
                cfg.mapping = Mapping::CpuSdPipeline;
                cfg.cpu_threads = xi + 1;
                cfg.cores_per_thread = o;
                cfg.batch = batches[static_cast<size_t>(yi)];
                cfg.dense_threads = balancedDenseThreads(
                    ctx.server, ctx.model, cfg.cpu_threads, o, cfg.batch);
                return cfg;
            };
            return climb2d(max_sparse, static_cast<int>(batches.size()),
                           cfg_at, ev);
        },
        result);
}

double
searchGpuModelBased(const SearchCtx& ctx, SearchResult& result)
{
    const auto& fusions = ctx.opt.space.fusion_limits;
    // Host helper-thread options matter only when a cold path exists;
    // the engine memo dedupes identical configs either way.
    std::vector<int> helpers = {1};
    for (int h : ctx.opt.space.host_helper_threads)
        if (h <= ctx.server.cpu.cores)
            helpers.push_back(h);

    // Helper arms are independent (disjoint cpu_threads values) and the
    // seed walked all of them — no early termination — so they always
    // fan out; the reduction stays in helper order.
    std::vector<SearchResult> partial(helpers.size());
    std::vector<double> peak(helpers.size(), -1.0);
    ctx.engine.pool().parallelFor(helpers.size(), [&](size_t i) {
        int h = helpers[i];
        Evaluator ev = ctx.make(partial[i]);
        auto cfg_at = [&](int xi, int yi) {
            SchedulingConfig cfg;
            cfg.mapping = Mapping::GpuModelBased;
            cfg.gpu_threads = xi + 1;
            cfg.fusion_limit = fusions[static_cast<size_t>(yi)];
            cfg.cpu_threads = h;
            cfg.cores_per_thread = 1;
            return cfg;
        };
        peak[i] = climb2d(ctx.opt.space.max_gpu_threads,
                          static_cast<int>(fusions.size()), cfg_at, ev);
    });

    double best = -1.0;
    for (size_t i = 0; i < helpers.size(); ++i) {
        mergeResult(result, std::move(partial[i]));
        best = std::max(best, peak[i]);
    }
    return best;
}

double
searchGpuSdPipeline(const SearchCtx& ctx, SearchResult& result)
{
    const auto& batches = ctx.opt.space.batches;
    const auto& fusions = ctx.opt.space.fusion_limits;
    int cores = ctx.server.cpu.cores;
    // Host-side SparseNet lookups are bandwidth-bound, so m x o and
    // (m*o) x 1 allocations are nearly equivalent; probing o in {1, 2}
    // keeps the nested host/accelerator search tractable.
    int max_o = std::min({2, ctx.opt.space.max_cores_per_thread, cores});

    return opParallelismLoop(
        ctx, max_o,
        [&](int o, SearchResult& out) {
            int max_threads = cores / o;
            if (max_threads < 1)
                return -1.0;
            Evaluator ev = ctx.make(out);
            // Accelerator-side warm start: each host-side move re-runs
            // the small (co-location x fusion) climb from the last
            // optimum (paper: "following each move-step of host-side
            // search, the accelerator-side search is performed"). The
            // warm state makes the host-candidate loop order-dependent,
            // so it stays serial; parallelism comes from the inner
            // climbs' neighbour prefetch and the o-arms.
            int warm_g = 0;
            int warm_f = 0;
            auto inner = [&](int hxi, int hyi) {
                auto inner_cfg = [&](int gxi, int gyi) {
                    SchedulingConfig cfg;
                    cfg.mapping = Mapping::GpuSdPipeline;
                    cfg.cpu_threads = hxi + 1;
                    cfg.cores_per_thread = o;
                    cfg.batch = batches[static_cast<size_t>(hyi)];
                    cfg.gpu_threads = gxi + 1;
                    cfg.fusion_limit = fusions[static_cast<size_t>(gyi)];
                    return cfg;
                };
                return climb2d(ctx.opt.space.max_gpu_threads,
                               static_cast<int>(fusions.size()),
                               inner_cfg, ev, warm_g, warm_f, &warm_g,
                               &warm_f);
            };
            int xi = 0, yi = 0;
            double cur = inner(xi, yi);
            double best = cur;
            if (cur < 0.0)
                return -1.0;
            while (true) {
                struct Cand
                {
                    int xi, yi;
                };
                std::vector<Cand> cands;
                if (xi + 1 < max_threads)
                    cands.push_back({xi + 1, yi});
                if (yi + 1 < static_cast<int>(batches.size()))
                    cands.push_back({xi, yi + 1});
                if (xi + 1 < max_threads &&
                    yi + 1 < static_cast<int>(batches.size()))
                    cands.push_back({xi + 1, yi + 1});
                if (cands.empty())
                    break;
                double best_q = -1.0;
                Cand best_c{xi, yi};
                for (const Cand& c : cands) {
                    double q = inner(c.xi, c.yi);
                    if (q > best_q) {
                        best_q = q;
                        best_c = c;
                    }
                }
                if (best_q <= cur)
                    break;
                xi = best_c.xi;
                yi = best_c.yi;
                cur = best_q;
                best = std::max(best, cur);
            }
            return best;
        },
        result);
}

/** Resolve the engine to use: the caller's shared one or a private one. */
core::EvalEngine*
resolveEngine(const SearchOptions& opt,
              std::unique_ptr<core::EvalEngine>& owned)
{
    if (opt.engine)
        return opt.engine;
    owned = std::make_unique<core::EvalEngine>(opt.eval);
    return owned.get();
}

SearchResult
searchMapping(const SearchCtx& ctx, Mapping mapping)
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
    std::unique_ptr<core::EvalEngine> owned;
    core::EvalEngine* engine = resolveEngine(opt, owned);
    sim::TimingStore timings(server, m);
    return searchMapping({*engine, timings, server, m, sla_ms, opt},
                         mapping);
}

SearchResult
herculesTaskSearch(const hw::ServerSpec& server, const model::Model& m,
                   double sla_ms, const SearchOptions& opt)
{
    std::unique_ptr<core::EvalEngine> owned;
    core::EvalEngine* engine = resolveEngine(opt, owned);
    // One timing store across the partition strategies: they share
    // graphs and host contexts (a GPU S-D pipeline's SparseNet threads
    // time what a CPU S-D pipeline's do).
    sim::TimingStore timings(server, m);
    const SearchCtx ctx{*engine, timings, server, m, sla_ms, opt};

    // Partition strategies explore disjoint configuration spaces, so
    // they fan out as independent pool tasks; the merge below runs in
    // catalog order for a thread-count-independent result.
    std::vector<Mapping> mappings = applicableMappings(server, m);
    std::vector<SearchResult> results(mappings.size());
    engine->pool().parallelFor(mappings.size(), [&](size_t i) {
        results[i] = searchMapping(ctx, mappings[i]);
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
    std::unique_ptr<core::EvalEngine> owned;
    core::EvalEngine* engine = resolveEngine(opt, owned);
    sim::TimingStore timings(server, m);
    SearchCtx ctx{*engine, timings, server, m, sla_ms, opt};
    Evaluator ev = ctx.make(result);
    // The oracle grid is embarrassingly parallel: prefetch evaluates
    // every enumerated config on the pool and records them in
    // enumeration order.
    ev.prefetch(enumerateConfigs(server, m, mapping, opt.space));
    return result;
}

}  // namespace hercules::sched
