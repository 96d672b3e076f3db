#include "sched/space.h"

#include <algorithm>
#include <cmath>

#include "hw/cost_model.h"
#include "model/partition.h"
#include "sim/prepared.h"
#include "util/logging.h"

namespace hercules::sched {

std::vector<Mapping>
applicableMappings(const hw::ServerSpec& server, const model::Model& m)
{
    std::vector<Mapping> maps = {Mapping::CpuModelBased};
    if (m.graph.hasStage(model::Stage::Sparse) &&
        m.graph.hasStage(model::Stage::Dense))
        maps.push_back(Mapping::CpuSdPipeline);
    if (server.hasGpu()) {
        maps.push_back(Mapping::GpuModelBased);
        if (m.graph.hasStage(model::Stage::Sparse))
            maps.push_back(Mapping::GpuSdPipeline);
    }
    return maps;
}

std::vector<int>
hostHelperThreads(const hw::ServerSpec& server, const SpaceOptions& opt)
{
    std::vector<int> helpers = {1};
    for (int h : opt.host_helper_threads)
        if (h <= server.cpu.cores)
            helpers.push_back(h);
    return helpers;
}

int
balancedDenseThreads(const hw::ServerSpec& server, const model::Model& m,
                     int sparse_threads, int cores_per_thread, int batch)
{
    int used = sparse_threads * cores_per_thread;
    int left = server.cpu.cores - used;
    if (left <= 0)
        return 0;

    hw::CostModel cost(server);
    model::Graph sparse = model::sparseSubgraph(m.graph);
    model::Graph dense = model::denseSubgraph(m.graph);
    if (sparse.size() == 0 || dense.size() == 0)
        return std::min(1, left);

    hw::CpuExecContext scx;
    scx.workers = cores_per_thread;
    scx.mem_bw_gbps = cost.perThreadBwGbps(sparse_threads);
    scx.use_nmp = server.hasNmp();
    scx.nmp_share = 1.0 / std::max(sparse_threads, 1);
    double sparse_us = cost.cpuGraphTiming(sparse, batch, scx).latency_us;

    hw::CpuExecContext dcx;
    dcx.workers = 1;
    dcx.mem_bw_gbps = scx.mem_bw_gbps;
    double dense_us = cost.cpuGraphTiming(dense, batch, dcx).latency_us;

    // Dense threads needed so the dense stage keeps up with the sparse
    // stage's aggregate output rate.
    double needed = std::ceil(static_cast<double>(sparse_threads) *
                              dense_us / std::max(sparse_us, 1e-9));
    return std::clamp(static_cast<int>(needed), 1, left);
}

std::vector<SchedulingConfig>
enumerateConfigs(const hw::ServerSpec& server, const model::Model& m,
                 Mapping mapping, const SpaceOptions& opt)
{
    std::vector<SchedulingConfig> out;
    int cores = server.cpu.cores;
    auto push = [&](SchedulingConfig cfg) {
        if (!sim::validateConfig(server, m, cfg))
            out.push_back(std::move(cfg));
    };

    switch (mapping) {
      case Mapping::CpuModelBased:
        for (int o = 1; o <= std::min(opt.max_cores_per_thread, cores);
             ++o) {
            for (int t = 1; t * o <= cores; ++t) {
                for (int b : opt.batches) {
                    SchedulingConfig cfg;
                    cfg.mapping = mapping;
                    cfg.cpu_threads = t;
                    cfg.cores_per_thread = o;
                    cfg.batch = b;
                    push(cfg);
                }
            }
        }
        break;

      case Mapping::CpuSdPipeline:
        for (int o = 1; o <= std::min(opt.max_cores_per_thread, cores);
             ++o) {
            for (int t = 1; t * o < cores; ++t) {
                for (int d = 1; t * o + d <= cores; ++d) {
                    for (int b : opt.batches) {
                        SchedulingConfig cfg;
                        cfg.mapping = mapping;
                        cfg.cpu_threads = t;
                        cfg.cores_per_thread = o;
                        cfg.dense_threads = d;
                        cfg.batch = b;
                        push(cfg);
                    }
                }
            }
        }
        break;

      case Mapping::GpuModelBased: {
        const std::vector<int> helpers = hostHelperThreads(server, opt);
        for (int g = 1; g <= opt.max_gpu_threads; ++g) {
            for (int f : opt.fusion_limits) {
                for (int h : helpers) {
                    SchedulingConfig cfg;
                    cfg.mapping = mapping;
                    cfg.gpu_threads = g;
                    cfg.fusion_limit = f;
                    cfg.cpu_threads = h;
                    cfg.cores_per_thread = 1;
                    push(cfg);
                }
            }
        }
        break;
      }

      case Mapping::GpuSdPipeline:
        for (int o = 1; o <= std::min(opt.max_cores_per_thread, cores);
             ++o) {
            for (int t = 1; t * o <= cores; ++t) {
                for (int b : opt.batches) {
                    for (int g = 1; g <= opt.max_gpu_threads; ++g) {
                        for (int f : opt.fusion_limits) {
                            SchedulingConfig cfg;
                            cfg.mapping = mapping;
                            cfg.cpu_threads = t;
                            cfg.cores_per_thread = o;
                            cfg.batch = b;
                            cfg.gpu_threads = g;
                            cfg.fusion_limit = f;
                            push(cfg);
                        }
                    }
                }
            }
        }
        break;
    }
    return out;
}

size_t
spaceSize(const hw::ServerSpec& server, const model::Model& m,
          const SpaceOptions& opt)
{
    size_t total = 0;
    for (Mapping mapping : applicableMappings(server, m))
        total += enumerateConfigs(server, m, mapping, opt).size();
    return total;
}

}  // namespace hercules::sched
