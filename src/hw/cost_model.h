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
     * Host->device bytes for one batch of the given graph: embedding
     * indices, root dense features, partial sums for non-resident
     * (cold) table fractions, and inputs severed by graph partitioning.
     */
    double gpuInputBytes(const model::Graph& g, int batch,
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
