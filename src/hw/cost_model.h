/**
 * @file
 * Per-operator and per-graph latency/energy primitives for CPU hosts,
 * NMP DIMMs and GPU accelerators.
 *
 * The model is a calibrated roofline plus dependency-aware list
 * scheduling:
 *  - compute ops (FC / attention / GRU / interaction) cost FLOPs against
 *    effective device FLOP rates with batch-dependent efficiency;
 *  - embedding gathers cost DRAM bytes against a bandwidth share (or a
 *    cycle-approximate NMP LUT when offloaded);
 *  - a thread's op-workers execute independent ops in parallel; the
 *    dependency chain of the DenseNet bounds that parallelism and
 *    produces the worker idling of Fig 5;
 *  - the thread-level batch latency is the maximum of the scheduled
 *    makespan and the bandwidth-serialization lower bound.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "hw/nmp.h"
#include "hw/server.h"
#include "model/footprint.h"
#include "model/graph.h"

namespace hercules::hw {

/** Resources visible to one CPU inference thread. */
struct CpuExecContext
{
    int workers = 1;             ///< op-parallel workers (physical cores)
    double mem_bw_gbps = 10.0;   ///< this thread's DRAM bandwidth share
    bool use_nmp = false;        ///< offload pooled SLS to the NMP DIMMs
    double nmp_share = 1.0;      ///< fraction of NMP throughput available
    double pooling_scale = 1.0;  ///< scales every embedding's pooling
};

/** Resources visible to one GPU inference thread. */
struct GpuExecContext
{
    int colocated = 1;           ///< co-located threads (MPS clients)
    double pooling_scale = 1.0;  ///< scales every embedding's pooling
    double hot_hit_rate = 1.0;   ///< resident fraction of lookups
};

/** Result of timing one batch through a graph on one thread. */
struct GraphTiming
{
    double latency_us = 0.0;   ///< batch service latency (makespan)
    double busy_us = 0.0;      ///< total worker-busy time
    double idle_frac = 0.0;    ///< worker idle fraction of the schedule
    double flops = 0.0;        ///< arithmetic performed
    double dram_bytes = 0.0;   ///< host DRAM traffic of the batch
    double nmp_busy_us = 0.0;  ///< time the NMP device was occupied
    double nmp_energy_uj = 0.0;
};

/**
 * The per-batch costing of one accelerator placement, compiled once by
 * CostModel::gpuBatchPlan() from (graph, GpuExecContext), so that a
 * batch is costed without walking the graph: no model::Node, no
 * operator variant, no per-operator cost derivation. The pooling scale
 * is the only per-batch input besides the item count; the context's
 * own pooling_scale is ignored.
 *
 * - Latency steps, in the graph's topological order: an embedding
 *   kernel (average pooling and width, timed at the batch's pooling
 *   scale and the context's hot hit rate) or a batch-only kernel slot
 *   (FLOPs per item, whether it is a recurrence).
 * - Input-byte terms, in node order: constants (root FC inputs,
 *   severed interaction features, a root concat), an embedding's
 *   indices, its cold rows or partial sums, and behavior sequences
 *   scaled by the pooling scale (attention, GRU).
 *
 * Every term is evaluated with the operations, association and
 * summation order of gpuKernelLatencyUs() summed over the graph and of
 * the per-node input walk it replaces, so a plan's results are those
 * doubles bit for bit. A plan is a few KB; it is immutable once built.
 */
class GpuBatchPlan
{
  public:
    /** Append the batch-only kernel latencies (us) at `items`, in order. */
    void batchOnlyKernelsUs(int items, std::vector<double>& out) const;

    /**
     * Service time (us) of a batch: the steps summed in order, each
     * embedding kernel timed at pooling scale `ps`, each batch-only
     * kernel read from `kernels` (batchOnlyKernelsUs(items) in order).
     */
    double latencyUs(int items, double ps, const double* kernels) const;

    /**
     * Host->device bytes of a batch: embedding indices, root dense
     * features, partial sums or rows of the non-resident (cold) table
     * fractions, and inputs severed by graph partitioning.
     */
    double inputBytes(int items, double ps) const;

  private:
    friend class CostModel;

    /** One kernel in topological order. */
    struct Step
    {
        bool embedding = false;
        bool recurrent = false;       ///< batch-only: a GRU
        double avg_pooling = 0.0;     ///< embedding: avgPooling()
        double emb_dim = 0.0;         ///< embedding: vector width
        double flops_per_item = 0.0;  ///< batch-only: OpCost::flops
    };

    /** One addend of the per-item input bytes, in node order. */
    struct InputTerm
    {
        enum class Kind : uint8_t {
            Constant,  ///< `a` bytes
            Indices,   ///< resident indices: max(1, a*ps) * hot * 8
            ColdRows,  ///< unpooled cold rows: (1-hot) * max(1, a*ps) * b * 4
            Sequence,  ///< a behavior sequence: a * ps * b * 4
        };
        Kind kind = Kind::Constant;
        double a = 0.0;
        double b = 0.0;
    };

    std::vector<Step> steps_;
    std::vector<InputTerm> inputs_;
    double hot_hit_rate_ = 1.0;
    double slowdown_ = 1.0;    ///< MPS co-location slowdown
    double hbm_bw_ = 0.0;      ///< HBM gather bandwidth (B/s)
    double peak_flops_ = 0.0;  ///< device peak (FLOP/s)
};

/** One operator placed by CostModel::cpuGraphTiming (Fig 5 schedules). */
struct OpRecord
{
    int node = -1;
    int worker = 0;
    double start_us = 0.0;
    double end_us = 0.0;
};

/**
 * Cost model bound to one server architecture.
 *
 * NMP lookup tables are built lazily per embedding width, mirroring the
 * paper's pre-simulated LUT methodology.
 */
class CostModel
{
  public:
    /** @param server the architecture to model. */
    explicit CostModel(const ServerSpec& server);

    /** @return the bound server spec. */
    const ServerSpec& server() const { return server_; }

    /**
     * Total effective host gather bandwidth (GB/s) when `threads`
     * memory-hungry inference threads are co-located; includes the
     * interference degradation beyond pure sharing.
     */
    double effectiveHostBwGbps(int threads) const;

    /** Per-thread bandwidth share for `threads` co-located threads. */
    double perThreadBwGbps(int threads) const;

    /** Latency of one operator on a CPU worker (us). */
    double cpuOpLatencyUs(const model::Node& n, int batch,
                          const CpuExecContext& cx) const;

    /**
     * Time one batch through a graph on one CPU inference thread: one
     * walk in topological order that list-schedules each operator on
     * the earliest-free op worker, then bounds the makespan by the
     * thread's DRAM bandwidth and NMP share.
     *
     * @param ops when non-null, cleared and filled with one record per
     *            operator in scheduling order (the Fig 5 breakdown).
     */
    GraphTiming cpuGraphTiming(const model::Graph& g, int batch,
                               const CpuExecContext& cx,
                               std::vector<OpRecord>* ops = nullptr) const;

    /**
     * Kernel latency of one operator on the GPU (us). A thread's
     * kernels issue back to back on its stream, so a batch takes the
     * sum over its graph in topological order.
     */
    double gpuKernelLatencyUs(const model::Node& n, int batch,
                              const GpuExecContext& cx) const;

    /**
     * Compile the per-batch costing of graph `g` on this server's GPU
     * under context `cx` (its pooling_scale aside): a batch's latency
     * is the sum of gpuKernelLatencyUs() over `g` in topological order.
     */
    GpuBatchPlan gpuBatchPlan(const model::Graph& g,
                              const GpuExecContext& cx) const;

    /** Effective PCIe bandwidth (GB/s). */
    double pcieBwGbps() const;

    /** PCIe DMA latency for `bytes` at the given bandwidth share. */
    double pcieTransferUs(double bytes, double bw_share_gbps) const;

    /** @return the NMP LUT for an embedding width (server must be NMP). */
    const NmpLut& nmpLut(int emb_dim) const;

  private:
    /** One operator's latency and the resources it draws. */
    struct OpTiming
    {
        double latency_us = 0.0;
        double flops = 0.0;
        double dram_bytes = 0.0;  ///< host DRAM gather (0 on the NMP path)
        double nmp_us = 0.0;      ///< NMP device time at this share
        double nmp_energy_uj = 0.0;
    };

    /** Cost one operator: its OpCost, pooling and NMP lookup, once. */
    OpTiming cpuOpTiming(const model::Node& n, int batch,
                         const CpuExecContext& cx) const;

    ServerSpec server_;
    mutable std::unordered_map<int, std::unique_ptr<NmpLut>> nmp_luts_;
};

}  // namespace hercules::hw
