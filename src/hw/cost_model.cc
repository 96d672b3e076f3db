#include "hw/cost_model.h"

#include <algorithm>
#include <cmath>

#include "hw/calibration.h"
#include "util/logging.h"

namespace hercules::hw {

using model::EmbeddingParams;
using model::Graph;
using model::Node;
using model::OpKind;

CostModel::CostModel(const ServerSpec& server) : server_(server) {}

double
CostModel::effectiveHostBwGbps(int threads) const
{
    using namespace calib;
    threads = std::max(threads, 1);
    // Rank-level parallelism limits random-gather efficiency: a 4-rank
    // config (CPU-T1) exposes fewer open banks than an 8-rank one.
    double rank_factor =
        std::min(1.0, static_cast<double>(server_.mem.totalRanks()) / 8.0);
    double base = server_.mem.peakBwGbps() * kDdrGatherEff * rank_factor;
    double interference =
        1.0 + kCpuInterferencePerThread * static_cast<double>(threads - 1);
    return base / interference;
}

double
CostModel::perThreadBwGbps(int threads) const
{
    threads = std::max(threads, 1);
    return effectiveHostBwGbps(threads) / static_cast<double>(threads);
}

const NmpLut&
CostModel::nmpLut(int emb_dim) const
{
    if (!server_.hasNmp())
        panic("nmpLut: server %s has no NMP memory", server_.name.c_str());
    auto it = nmp_luts_.find(emb_dim);
    if (it == nmp_luts_.end()) {
        it = nmp_luts_
                 .emplace(emb_dim,
                          std::make_unique<NmpLut>(server_.mem, emb_dim))
                 .first;
    }
    return *it->second;
}

namespace {

/** Batch-dependent GEMM efficiency on the CPU. */
double
cpuBatchEff(int batch)
{
    double b = static_cast<double>(batch);
    return b / (b + calib::kCpuBatchHalf);
}

/**
 * Batch-dependent fraction of peak FLOPs reached on the GPU: maximum
 * GEMM efficiency times the occupancy a b-row kernel can achieve.
 */
double
gpuBatchEff(int batch)
{
    double b = static_cast<double>(batch);
    return calib::kGpuEffMax * b / (b + calib::kGpuBatchHalf);
}

/** MPS interference slowdown with g co-located clients. */
double
colocSlowdown(int colocated)
{
    int g = std::max(colocated, 1);
    return 1.0 + calib::kGpuColocPenalty * static_cast<double>(g - 1);
}

}  // namespace

CostModel::OpTiming
CostModel::cpuOpTiming(const Node& n, int batch,
                       const CpuExecContext& cx) const
{
    using namespace calib;
    model::OpCost cost = model::opCostPerItem(n);
    double b = static_cast<double>(batch);
    OpTiming t;
    t.flops = cost.flops * b;

    if (n.kind() == OpKind::EmbeddingLookup) {
        const auto& p = std::get<EmbeddingParams>(n.params);
        double pooling =
            std::max(1.0, p.avgPooling() * cx.pooling_scale);
        if (cx.use_nmp && p.pooled) {
            // In-DIMM gather-and-reduce: host just dispatches the dummy
            // SLS-NMP operator and waits for the LUT latency, scaled by
            // this thread's share of the NMP device.
            NmpResult r = nmpLut(p.emb_dim).lookup(batch, pooling);
            double share = std::clamp(cx.nmp_share, 1e-3, 1.0);
            t.nmp_us = r.latency_us / share;
            t.nmp_energy_uj = r.energy_uj;
            t.latency_us = kNmpHostDispatchUs + t.nmp_us;
            return t;
        }
        t.dram_bytes = b * pooling * p.emb_dim * 4.0;
        double bw = std::max(cx.mem_bw_gbps, 1e-3) * 1e9;
        t.latency_us = kCpuOpOverheadUs + t.dram_bytes / bw * 1e6;
        return t;
    }

    // Compute-bound operator on a single op-worker core.
    double gflops = server_.cpu.effGflopsPerCore() * cpuBatchEff(batch);
    double us = cost.flops * b / (gflops * 1e9) * 1e6;
    t.latency_us = kCpuOpOverheadUs + us;
    return t;
}

double
CostModel::cpuOpLatencyUs(const Node& n, int batch,
                          const CpuExecContext& cx) const
{
    return cpuOpTiming(n, batch, cx).latency_us;
}

GraphTiming
CostModel::cpuGraphTiming(const Graph& g, int batch,
                          const CpuExecContext& cx,
                          std::vector<OpRecord>* ops) const
{
    using namespace calib;
    int workers = std::max(cx.workers, 1);

    GraphTiming t;
    if (ops != nullptr) {
        ops->clear();
        ops->reserve(g.nodes().size());
    }

    // Greedy list scheduling: walk nodes in topological order, placing
    // each op on the earliest-available worker no earlier than its
    // dependencies complete. Independent SparseNet lookups spread across
    // workers; the DenseNet chain serializes (Fig 5). An operator that
    // draws no DRAM or NMP adds +0.0 to those sums, which changes no bit.
    std::vector<double> worker_free(static_cast<size_t>(workers), 0.0);
    std::vector<double> node_end(g.nodes().size(), 0.0);
    for (int id : g.topoOrder()) {
        const Node& n = g.node(id);
        double ready = 0.0;
        for (int d : n.deps)
            ready = std::max(ready, node_end[static_cast<size_t>(d)]);

        OpTiming op = cpuOpTiming(n, batch, cx);
        t.flops += op.flops;
        t.dram_bytes += op.dram_bytes;
        t.nmp_busy_us += op.nmp_us;
        t.nmp_energy_uj += op.nmp_energy_uj;

        // Earliest-available worker.
        size_t w = 0;
        for (size_t i = 1; i < worker_free.size(); ++i)
            if (worker_free[i] < worker_free[w])
                w = i;
        double start = std::max(ready, worker_free[w]);
        double end = start + op.latency_us;
        worker_free[w] = end;
        node_end[static_cast<size_t>(id)] = end;
        t.busy_us += op.latency_us;
        if (ops != nullptr)
            ops->push_back({id, static_cast<int>(w), start, end});
    }

    double makespan = 0.0;
    for (double f : worker_free)
        makespan = std::max(makespan, f);

    // Bandwidth lower bound: gathers scheduled on parallel workers still
    // share this thread's DRAM bandwidth; NMP ops serialize on the NMP
    // device share.
    double bw = std::max(cx.mem_bw_gbps, 1e-3) * 1e9;
    double mem_lb_us = t.dram_bytes / bw * 1e6;
    double latency = std::max({makespan, mem_lb_us, t.nmp_busy_us});

    t.latency_us = kCpuQueryOverheadUs + latency;
    double span = makespan * static_cast<double>(workers);
    t.idle_frac = span > 0.0 ? 1.0 - t.busy_us / span : 0.0;
    return t;
}

namespace {

/** HBM bandwidth (B/s) an embedding gather kernel reaches. */
double
hbmGatherBw(const GpuSpec& gpu)
{
    return gpu.hbm_gbps * calib::kGpuHbmGatherEff * 1e9;
}

/** Peak arithmetic rate (FLOP/s). */
double
peakFlops(const GpuSpec& gpu)
{
    return gpu.peakTflops() * 1e12;
}

/**
 * One embedding gather kernel (us): `b` items of `avg_pooling * ps`
 * rows each, the resident `hot` fraction of them gathered from HBM.
 */
double
gpuEmbeddingKernelUs(double b, double avg_pooling, double emb_dim,
                     double ps, double hot, double hbm_bw, double slow)
{
    double pooling = std::max(1.0, avg_pooling * ps * hot);
    double bytes = b * pooling * emb_dim * 4.0;
    return calib::kGpuKernelLaunchUs + bytes / hbm_bw * 1e6 * slow;
}

/** One compute kernel (us) of `flops_per_item` over a batch. */
double
gpuComputeKernelUs(int batch, double flops_per_item, bool recurrent,
                   double peak_flops, double slow)
{
    double eff = gpuBatchEff(batch);
    if (recurrent) {
        // Sequence-serial recurrence keeps the device poorly utilized
        // regardless of batch.
        eff *= 0.30;
    }
    double flops = flops_per_item * static_cast<double>(batch);
    double rate = peak_flops * eff;
    return calib::kGpuKernelLaunchUs + flops / rate * 1e6 * slow;
}

}  // namespace

double
CostModel::gpuKernelLatencyUs(const Node& n, int batch,
                              const GpuExecContext& cx) const
{
    if (!server_.hasGpu())
        panic("gpuKernelLatencyUs: server %s has no GPU",
              server_.name.c_str());

    const GpuSpec& gpu = *server_.gpu;
    double slow = colocSlowdown(cx.colocated);
    if (n.kind() == OpKind::EmbeddingLookup) {
        const auto& p = std::get<EmbeddingParams>(n.params);
        return gpuEmbeddingKernelUs(static_cast<double>(batch),
                                    p.avgPooling(), p.emb_dim,
                                    cx.pooling_scale, cx.hot_hit_rate,
                                    hbmGatherBw(gpu), slow);
    }
    return gpuComputeKernelUs(batch, model::opCostPerItem(n).flops,
                              n.kind() == OpKind::Gru, peakFlops(gpu),
                              slow);
}

GpuBatchPlan
CostModel::gpuBatchPlan(const Graph& g, const GpuExecContext& cx) const
{
    if (!server_.hasGpu())
        panic("gpuBatchPlan: server %s has no GPU", server_.name.c_str());

    GpuBatchPlan plan;
    plan.hot_hit_rate_ = cx.hot_hit_rate;
    plan.slowdown_ = colocSlowdown(cx.colocated);
    plan.hbm_bw_ = hbmGatherBw(*server_.gpu);
    plan.peak_flops_ = peakFlops(*server_.gpu);

    // Kernels issue back to back on the thread's stream, in
    // topological order.
    plan.steps_.reserve(g.nodes().size());
    for (int id : g.topoOrder()) {
        const Node& n = g.node(id);
        GpuBatchPlan::Step s;
        if (n.kind() == OpKind::EmbeddingLookup) {
            const auto& p = std::get<EmbeddingParams>(n.params);
            s.embedding = true;
            s.avg_pooling = p.avgPooling();
            s.emb_dim = p.emb_dim;
        } else {
            s.recurrent = n.kind() == OpKind::Gru;
            s.flops_per_item = model::opCostPerItem(n).flops;
        }
        plan.steps_.push_back(s);
    }

    using Kind = GpuBatchPlan::InputTerm::Kind;
    auto add = [&](Kind k, double a, double b = 0.0) {
        plan.inputs_.push_back({k, a, b});
    };
    for (const auto& n : g.nodes()) {
        switch (n.kind()) {
          case OpKind::EmbeddingLookup: {
            // Resident fraction receives raw indices. The cold fraction
            // of a pooled lookup was pre-reduced on the host and arrives
            // as one partial-sum vector per table; a non-pooled cold
            // fraction must ship the gathered rows themselves.
            const auto& p = std::get<EmbeddingParams>(n.params);
            add(Kind::Indices, p.avgPooling());
            if (cx.hot_hit_rate < 1.0) {
                if (p.pooled)
                    add(Kind::Constant, p.emb_dim * 4.0);
                else
                    add(Kind::ColdRows, p.avgPooling(), p.emb_dim);
            }
            break;
          }
          case OpKind::Fc:
            if (n.deps.empty())  // root dense features
                add(Kind::Constant, model::opCostPerItem(n).input_bytes);
            break;
          case OpKind::Interaction: {
            // Dependencies severed by partitioning arrive over PCIe.
            const auto& p = std::get<model::InteractionParams>(n.params);
            int missing = p.num_features - static_cast<int>(n.deps.size());
            if (missing > 0)
                add(Kind::Constant,
                    static_cast<double>(missing) * p.feature_dim * 4.0);
            break;
          }
          case OpKind::Attention: {
            const auto& p = std::get<model::AttentionParams>(n.params);
            bool has_seq_producer = false;
            for (int d : n.deps) {
                OpKind k = g.node(d).kind();
                if (k == OpKind::EmbeddingLookup || k == OpKind::Gru)
                    has_seq_producer = true;
            }
            if (!has_seq_producer)
                add(Kind::Sequence, p.avgSeqLen(), p.behavior_dim);
            break;
          }
          case OpKind::Gru: {
            const auto& p = std::get<model::GruParams>(n.params);
            if (n.deps.empty())
                add(Kind::Sequence, p.avgSeqLen(), p.input_dim);
            break;
          }
          case OpKind::Concat: {
            // A root concat's whole input arrives over PCIe.
            const auto& p = std::get<model::ConcatParams>(n.params);
            double bytes = static_cast<double>(p.total_dim) * 4.0;
            if (n.deps.empty() && bytes > 0.0)
                add(Kind::Constant, bytes);
            break;
          }
          default:
            break;
        }
    }
    return plan;
}

void
GpuBatchPlan::batchOnlyKernelsUs(int items, std::vector<double>& out) const
{
    for (const Step& s : steps_)
        if (!s.embedding)
            out.push_back(gpuComputeKernelUs(items, s.flops_per_item,
                                             s.recurrent, peak_flops_,
                                             slowdown_));
}

double
GpuBatchPlan::latencyUs(int items, double ps, const double* kernels) const
{
    const double b = static_cast<double>(items);
    double latency = 0.0;
    for (const Step& s : steps_)
        latency += s.embedding
                       ? gpuEmbeddingKernelUs(b, s.avg_pooling, s.emb_dim,
                                              ps, hot_hit_rate_, hbm_bw_,
                                              slowdown_)
                       : *kernels++;
    return latency;
}

double
GpuBatchPlan::inputBytes(int items, double ps) const
{
    double per_item = 0.0;
    for (const InputTerm& t : inputs_) {
        switch (t.kind) {
          case InputTerm::Kind::Constant:
            per_item += t.a;
            break;
          case InputTerm::Kind::Indices:
            per_item += std::max(1.0, t.a * ps) * hot_hit_rate_ * 8.0;
            break;
          case InputTerm::Kind::ColdRows:
            per_item += (1.0 - hot_hit_rate_) * std::max(1.0, t.a * ps) *
                        t.b * 4.0;
            break;
          case InputTerm::Kind::Sequence:
            per_item += t.a * ps * t.b * 4.0;
            break;
        }
    }
    return per_item * static_cast<double>(items);
}

double
CostModel::pcieBwGbps() const
{
    if (!server_.hasGpu())
        panic("pcieBwGbps: server %s has no GPU", server_.name.c_str());
    return server_.gpu->pcie_gbps * calib::kPcieEff;
}

double
CostModel::pcieTransferUs(double bytes, double bw_share_gbps) const
{
    double bw = std::max(bw_share_gbps, 1e-3) * 1e9;
    return calib::kPcieSetupUs + bytes / bw * 1e6;
}

}  // namespace hercules::hw
