#include "sched/baselines.h"

#include <algorithm>

#include "sched/search_session.h"
#include "sim/prepared.h"
#include "util/logging.h"

namespace hercules::sched {

namespace {

/**
 * 1D hill climb along a prebuilt config sequence: evaluate in order
 * while the latency-bounded QPS keeps improving (the hill-climbing
 * search of DeepRecSys). Each step that raises the running best is
 * marked accepted.
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
    detail::Session session(server, m, sla_ms, opt);
    detail::Evaluator ev(session, result);
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
        double running_best = result.best_qps;
        double q = ev.qps(cfg);
        if (q > running_best)
            ev.markAccepted(cfg);
        if (q >= 0.0 && prev >= 0.0 && q < prev)
            break;  // hill climb: stop once throughput decreases
        if (q >= 0.0)
            prev = q;
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
        detail::mergeResult(result,
                            baymaxSearch(server, m, sla_ms, opt,
                                         /*allow_partition=*/true));
    return result;
}

}  // namespace hercules::sched
