#include "sched/baselines.h"

#include <algorithm>
#include <memory>

// sched sits below core in layers.json; baselines evaluate through
// the shared EvalEngine so baseline and Hercules searches hit one memo
// and one pool. Same justified up-edge as sched/gradient_search.h.
// layer-lint: allow(core)
#include "core/eval_engine.h"
#include "sim/prepared.h"
#include "util/logging.h"

namespace hercules::sched {

namespace {

/** Merge `r` into `acc`, keeping the higher-QPS best. */
void
merge(SearchResult& acc, SearchResult r)
{
    acc.evals += r.evals;
    acc.cache_hits += r.cache_hits;
    acc.trace.insert(acc.trace.end(), r.trace.begin(), r.trace.end());
    if (r.best && r.best_qps > acc.best_qps) {
        acc.best = r.best;
        acc.best_point = r.best_point;
        acc.best_qps = r.best_qps;
    }
}

/**
 * 1D hill climb along a prebuilt config sequence: evaluate in order
 * while the latency-bounded QPS keeps improving (the hill-climbing
 * search of DeepRecSys).
 *
 * Accelerator baselines use model-based scheduling without Hercules's
 * locality-aware hot split: every co-located client must hold a full
 * model copy, so configurations whose per-thread budget cannot fit the
 * embeddings are rejected (`require_full_residency`). This is what
 * caps Baymax co-location for large models (Fig 6, MT-WnD 1.03x).
 */
SearchResult
hillClimb(const hw::ServerSpec& server, const model::Model& m,
          double sla_ms, const SearchOptions& opt,
          const std::vector<SchedulingConfig>& seq,
          bool require_full_residency = false)
{
    SearchResult result;
    // The hill climb is sequential by definition (each step's verdict
    // gates the next), so the engine is used for its memo — baseline
    // configs overlapping a Hercules search sharing the engine are
    // free — rather than for fan-out.
    std::unique_ptr<core::EvalEngine> owned;
    core::EvalEngine* engine = opt.engine;
    if (!engine) {
        owned = std::make_unique<core::EvalEngine>(opt.eval);
        engine = owned.get();
    }
    // Neighbouring steps differ in one knob and share most timings.
    sim::TimingStore timings(server, m);
    double prev = -1.0;
    for (const SchedulingConfig& cfg : seq) {
        if (sim::validateConfig(server, m, cfg))
            continue;
        if (require_full_residency && cfg.usesGpu()) {
            // Residency needs the prepared placement; the engine will
            // prepare again on a cache miss, but a redundant prepare is
            // far cheaper than the alternative (measuring the config
            // and discarding it — the seed skipped such configs without
            // tracing them, and that contract is kept).
            sim::PreparedWorkload w = sim::prepare(server, m, cfg);
            if (w.gpu_cx.hot_hit_rate < 1.0)
                continue;  // the baseline cannot partition the model
        }
        core::EvalRequest req;
        req.server = &server;
        req.model = &m;
        req.cfg = cfg;
        req.sla_ms = sla_ms;
        req.measure = opt.measure;
        req.measure.power_budget_w = opt.power_budget_w;
        req.timings = &timings;
        core::EvalResult res = engine->evaluate(req);
        if (res.cache_hit)
            ++result.cache_hits;
        else
            ++result.evals;
        const auto& point = res.point;
        SearchStep step;
        step.cfg = cfg;
        if (point) {
            step.qps = point->qps;
            step.tail_ms = point->result.tail_ms;
            step.peak_power_w = point->result.peak_power_w;
            step.qps_per_watt = point->result.qps_per_watt;
        }
        result.trace.push_back(step);
        if (point && point->qps > result.best_qps) {
            result.best = cfg;
            result.best_point = *point;
            result.best_qps = point->qps;
            result.trace.back().accepted = true;
        }
        if (point && prev >= 0.0 && point->qps < prev)
            break;  // hill climb: stop once throughput decreases
        if (point)
            prev = point->qps;
    }
    return result;
}

}  // namespace

SearchResult
deepRecSysSearch(const hw::ServerSpec& server, const model::Model& m,
                 double sla_ms, const SearchOptions& opt)
{
    std::vector<SchedulingConfig> seq;
    for (int b : opt.space.batches) {
        SchedulingConfig cfg;
        cfg.mapping = Mapping::CpuModelBased;
        cfg.cpu_threads = server.cpu.cores;  // one thread per core
        cfg.cores_per_thread = 1;
        cfg.batch = b;
        seq.push_back(cfg);
    }
    return hillClimb(server, m, sla_ms, opt, seq);
}

SearchResult
deepRecSysGpuSearch(const hw::ServerSpec& server, const model::Model& m,
                    double sla_ms, const SearchOptions& opt,
                    bool allow_partition)
{
    if (!server.hasGpu())
        fatal("deepRecSysGpuSearch: %s has no accelerator",
              server.name.c_str());
    std::vector<SchedulingConfig> seq;
    SchedulingConfig cfg;
    cfg.mapping = Mapping::GpuModelBased;
    cfg.gpu_threads = 1;
    cfg.fusion_limit = 0;  // one query per launch
    cfg.cpu_threads = std::min(4, server.cpu.cores);
    cfg.cores_per_thread = 1;
    seq.push_back(cfg);
    return hillClimb(server, m, sla_ms, opt, seq,
                     /*require_full_residency=*/!allow_partition);
}

SearchResult
baymaxSearch(const hw::ServerSpec& server, const model::Model& m,
             double sla_ms, const SearchOptions& opt,
             bool allow_partition)
{
    if (!server.hasGpu())
        fatal("baymaxSearch: %s has no accelerator", server.name.c_str());
    std::vector<SchedulingConfig> seq;
    for (int g = 1; g <= opt.space.max_gpu_threads; ++g) {
        SchedulingConfig cfg;
        cfg.mapping = Mapping::GpuModelBased;
        cfg.gpu_threads = g;
        cfg.fusion_limit = 0;  // co-location only, no fusion
        cfg.cpu_threads = std::min(4, server.cpu.cores);
        cfg.cores_per_thread = 1;
        seq.push_back(cfg);
    }
    return hillClimb(server, m, sla_ms, opt, seq,
                     /*require_full_residency=*/!allow_partition);
}

SearchResult
baselineSearch(const hw::ServerSpec& server, const model::Model& m,
               double sla_ms, const SearchOptions& opt)
{
    SearchResult result = deepRecSysSearch(server, m, sla_ms, opt);
    if (server.hasGpu())
        merge(result, baymaxSearch(server, m, sla_ms, opt,
                                   /*allow_partition=*/true));
    return result;
}

}  // namespace hercules::sched
