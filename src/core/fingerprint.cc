#include "core/fingerprint.h"

#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/eval_engine.h"
#include "core/profiler.h"
#include "hw/cost_model.h"
#include "hw/power.h"
#include "model/model_zoo.h"
#include "sched/gradient_search.h"

namespace hercules::core {

namespace {

/** FNV-1a over the bits of the values fed to it. */
struct Digest
{
    uint64_t h = 14695981039346656037ull;

    void
    add(double v)
    {
        uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        for (int i = 0; i < 8; ++i) {
            h ^= (bits >> (8 * i)) & 0xffu;
            h *= 1099511628211ull;
        }
    }

    void
    add(const std::string& s)
    {
        for (unsigned char c : s) {
            h ^= c;
            h *= 1099511628211ull;
        }
        add(static_cast<double>(s.size()));
    }

    void
    add(const sim::ServerSimResult& r)
    {
        for (double v : {r.achieved_qps, r.mean_ms, r.p99_ms, r.tail_ms,
                         r.cpu_util, r.mem_bw_util, r.gpu_util, r.pcie_util,
                         r.nmp_util, r.avg_power_w, r.peak_power_w,
                         r.mean_exec_ms, r.mean_load_ms,
                         static_cast<double>(r.completed)})
            add(v);
    }

    /** Every step of a search, in order, and its outcome. */
    void
    add(const sched::SearchResult& r)
    {
        for (const sched::SearchStep& s : r.trace) {
            add(s.cfg.key());
            for (double v : {s.qps, s.tail_ms, s.peak_power_w,
                             s.qps_per_watt, s.accepted ? 1.0 : 0.0})
                add(v);
        }
        add(r.best ? r.best->key() : std::string("-"));
        add(r.best_qps);
        add(r.best_point.result);
        for (double v : {r.best_point.capacity, r.best_point.bracket_lo,
                         r.best_point.bracket_hi,
                         static_cast<double>(r.best_point.sims),
                         static_cast<double>(r.evals),
                         static_cast<double>(r.cache_hits)})
            add(v);
    }
};

/**
 * One short task-scheduling search on T8 (CPU, NMP and GPU, so every
 * mapping is applicable) over a small space: it runs the search, the
 * evaluation engine, every measurement step (saturation probe,
 * bisection, keep-up test, light-load retry, power check) and the
 * simulator on all four mappings. The profiler's cell for the same
 * search is digested too; it re-runs the search on the engine's memo.
 */
void
addCanonicalCell(Digest& d, const model::Model& m, double power_budget_w)
{
    EvalEngine engine(EvalOptions{1});
    sched::SearchOptions o;
    o.space.batches = {32, 128};
    o.space.fusion_limits = {0, 1000};
    o.space.max_gpu_threads = 2;
    o.space.max_cores_per_thread = 2;
    o.space.host_helper_threads = {2};
    o.measure.sim.num_queries = 250;
    o.measure.sim.warmup_queries = 50;
    o.measure.sim.seed = 1;
    o.measure.bisect_iters = 2;
    o.measure.power_budget_w = power_budget_w;
    o.engine = &engine;
    const hw::ServerSpec& server = hw::serverSpec(hw::ServerType::T8);
    d.add(sched::herculesTaskSearch(server, m, m.sla_ms, o));
    const EfficiencyEntry e = profilePair(server, m, m.sla_ms, o);
    for (double v : {e.feasible ? 1.0 : 0.0, e.qps, e.power_w, e.avg_power_w,
                     e.qps_per_watt})
        d.add(v);
    d.add(e.config.key());
}

uint64_t
computeFingerprint()
{
    Digest d;
    std::vector<model::Model> models;
    for (model::ModelId id : model::allModels())
        models.push_back(model::buildModel(id));

    for (hw::ServerType t : hw::allServerTypes()) {
        const hw::ServerSpec& s = hw::serverSpec(t);
        const hw::CostModel cost(s);
        hw::CpuExecContext cx;
        cx.workers = 2;
        cx.mem_bw_gbps = cost.perThreadBwGbps(4);
        cx.use_nmp = s.hasNmp();
        cx.nmp_share = 0.25;
        for (const model::Model& m : models) {
            hw::GraphTiming g = cost.cpuGraphTiming(m.graph, 64, cx);
            for (double v : {g.latency_us, g.busy_us, g.idle_frac, g.flops,
                             g.dram_bytes, g.nmp_busy_us, g.nmp_energy_uj})
                d.add(v);
            if (!s.hasGpu())
                continue;
            hw::GpuExecContext gx;
            gx.colocated = 2;
            gx.hot_hit_rate = 0.75;
            hw::GpuBatchPlan plan = cost.gpuBatchPlan(m.graph, gx);
            std::vector<double> kernels;
            plan.batchOnlyKernelsUs(64, kernels);
            d.add(plan.latencyUs(64, 1.25, kernels.data()));
            d.add(plan.inputBytes(64, 1.25));
        }
        if (s.hasGpu())
            d.add(cost.pcieTransferUs(1e6, cost.pcieBwGbps()));
        const hw::PowerModel power(s);
        for (double u : {0.0, 0.5, 1.0})
            d.add(power.serverPowerW(hw::Utilization{u, u, u}));
    }

    // RMC3 does not fit the device, so its GPU placements also run the
    // hot split (the device memory budget) and the host cold path. DIEN
    // adds the sequence operators and SLA-infeasible configurations;
    // its 375 W budget (the online power check) rejects probes that
    // unconstrained would pass (peaks reach 378.5 W).
    addCanonicalCell(d, model::buildModel(model::ModelId::DlrmRmc3),
                     std::numeric_limits<double>::infinity());
    addCanonicalCell(d, model::buildModel(model::ModelId::Dien), 375.0);
    return d.h;
}

}  // namespace

uint64_t
buildFingerprint()
{
    static const uint64_t fingerprint = computeFingerprint();
    return fingerprint;
}

std::string
buildFingerprintHex()
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(buildFingerprint()));
    return buf;
}

}  // namespace hercules::core
