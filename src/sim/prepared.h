/**
 * @file
 * Binding of (server architecture, model, scheduling configuration)
 * into the concrete execution plan the simulator runs: validated
 * resource allocation, partitioned graphs, hot-embedding split, and the
 * per-thread execution contexts of the cost model.
 */
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "hw/cost_model.h"
#include "hw/server.h"
#include "model/model_zoo.h"
#include "model/partition.h"
// sim sits below sched in layers.json; PreparedServer is built *from*
// a sched::SchedulingConfig (the one plain-data type sched exports
// downward). Moving SchedulingConfig into model/ would fix the edge
// but orphan it from the search code that owns its semantics.
// layer-lint: allow(sched)
#include "sched/config.h"
#include "util/thread_annotations.h"
#include "workload/querygen.h"

namespace hercules::sim {

/**
 * CPU graph timings of one (pool, batch size) cell at pooling scales 1
 * and 2; a chunk's service time interpolates linearly between them.
 */
struct CpuServiceMemoEntry
{
    double lat1 = 0.0, lat2 = 0.0;
    double bytes1 = 0.0, bytes2 = 0.0;
    double nmp1 = 0.0, nmp2 = 0.0;
    double idle_frac = 0.0;
};

/**
 * The CPU service timings of one pool. Batch sizes index `row` densely
 * (4 bytes per item count up to the largest seen); the entries of the
 * sizes actually timed sit in `entries`, in the order they were timed.
 */
struct CpuServiceMemo
{
    std::vector<uint32_t> row;  ///< [items] → 1 + entry index; 0: not timed
    std::vector<CpuServiceMemoEntry> entries;
};

/**
 * Per batch size, the latencies (us) of the accelerator plan's
 * batch-only kernels in step order, indexed like CpuServiceMemo.
 * Embedding kernels are left out: their latency also depends on the
 * batch's pooling scale.
 */
struct GpuKernelMemo
{
    /** [items] → 1 + offset of the row in `kernels`; 0: not timed. */
    std::vector<uint32_t> row;
    std::vector<double> kernels;  ///< the rows, one after another
};

/**
 * The query stream of simulateServer() drawn at unit rate, for the last
 * (seed, num_queries, sizes, pooling) it was drawn with: every input of
 * the draw is part of the key. A measurement's probes differ only in
 * rate (or saturate), so they all replay one draw.
 */
struct ProbeStreamMemo
{
    uint64_t seed = 0;
    int num_queries = 0;
    workload::QuerySizeDist sizes{};
    workload::PoolingDist pooling{};
    std::vector<workload::UnitQuery> queries;
    bool filled = false;
};

/**
 * A validated, ready-to-simulate workload placement.
 *
 * Which graphs are populated depends on the mapping:
 *  - CpuModelBased: `full` only;
 *  - CpuSdPipeline: `sparse` + `dense`;
 *  - GpuModelBased: `full` on the device (embeddings scaled by the hot
 *    hit rate) and `sparse` on the host for the cold fraction;
 *  - GpuSdPipeline: `sparse` on the host, `dense` on the device.
 *
 * The placement fields are fixed by prepare(); treat them as read-only
 * afterwards, because the memos cache functions of them. `gpu_plan`
 * is one of them: the accelerator's per-batch costing, compiled once.
 *
 * Ownership: a PreparedWorkload is simulated by one thread at a time.
 * It carries three per-workload memos, each filled lazily and without
 * locking by whatever runs on it, so each is touched by one thread at
 * a time:
 *  - `cpu_service_memo`, by every ServerInstance built on it;
 *  - `gpu_kernel_memo` (rows of `gpu_plan`'s batch-only kernels), by
 *    every ServerInstance built on it;
 *  - `probe_stream`, by simulateServer().
 * EvalEngine builds one per evaluation on its worker thread; when the
 * request carries a search's TimingStore, the store warms the new
 * workload's memos before the measurement and takes back what it
 * added afterwards, so a search times each (graph, context, batch
 * size) once. ClusterSim's shards of one personality share one, and
 * its parallel delivery advances all the shards that share a
 * PreparedWorkload on one pool task, so no two threads touch its
 * memos at once.
 */
struct PreparedWorkload
{
    const hw::ServerSpec* server = nullptr;
    const model::Model* model = nullptr;
    sched::SchedulingConfig config;

    model::Graph full;    ///< whole graph (elementwise-fused if enabled)
    model::Graph sparse;  ///< SparseNet Gs
    model::Graph dense;   ///< DenseNet Gd
    model::HotSplit hot;  ///< accelerator-resident embedding split

    hw::CpuExecContext cpu_cx;   ///< model-based / SparseNet threads
    hw::CpuExecContext cold_cx;  ///< host cold-sparse path (hot-split)
    hw::GpuExecContext gpu_cx;   ///< accelerator threads
    /** gpuGraph()'s per-batch costing under gpu_cx (GPU mappings only). */
    hw::GpuBatchPlan gpu_plan;

    /** @return the accelerator's graph: `full` or `dense`. */
    const model::Graph&
    gpuGraph() const
    {
        return config.mapping == sched::Mapping::GpuModelBased ? full
                                                               : dense;
    }

    /** The host-thread stages a ServerInstance may run. */
    enum class CpuStage
    {
        Front,     ///< the pool a CPU or S-D pipeline query enters
        Dense,     ///< the CPU S-D pipeline's DenseNet threads
        ColdHost,  ///< GPU model-based hosts reducing cold embeddings
    };

    /**
     * @return the CPU pool id (see `cpu_service_memo`) that stage `s`
     * runs under this mapping, or -1 when the mapping has no such
     * stage. The simulator and the TimingStore route by this alone.
     */
    int
    cpuPoolOf(CpuStage s) const
    {
        using sched::Mapping;
        const Mapping m = config.mapping;
        switch (s) {
          case CpuStage::Front:
            if (m == Mapping::GpuModelBased)
                return -1;
            return m == Mapping::CpuModelBased ? 0 : 1;
          case CpuStage::Dense:
            return m == Mapping::CpuSdPipeline ? 2 : -1;
          case CpuStage::ColdHost:
            return m == Mapping::GpuModelBased ? 3 : -1;
        }
        return -1;
    }

    /** @return the graph CPU pool `pool` runs. */
    const model::Graph& cpuPoolGraph(int pool) const;

    /**
     * @return the context CPU pool `pool`'s threads run with: `cpu_cx`,
     * or `cold_cx` for the cold path, with one op worker on DenseNet
     * threads (Fig 10(b)).
     */
    hw::CpuExecContext cpuPoolContext(int pool) const;

    /**
     * CPU service memo, filled lazily by every ServerInstance simulated
     * on this workload: [pool id][batch size] → timings, pool id 0 =
     * full graph, 1 = sparse, 2 = dense, 3 = cold sparse (hot split).
     * Entries are pure functions of (server, graph, exec context), so
     * sharing them across runs changes no simulated value; a server's
     * slowdown is applied where a sample is used, never stored here.
     */
    mutable CpuServiceMemo cpu_service_memo[4];

    /** GPU kernel memo, read through gpuBatchLatencyUs(). */
    mutable GpuKernelMemo gpu_kernel_memo;

    /** simulateServer()'s unit-rate arrival stream. */
    mutable ProbeStreamMemo probe_stream;
};

/**
 * The timings one search has made, to warm the memos of each workload
 * it prepares: a gradient search's neighbouring evaluations differ in
 * one knob and share most of their cost-model timings.
 *
 * Bound at construction to one (server, model). Entries are keyed by
 * every input of their memo besides those two, compared by exact
 * value:
 *  - CPU pool: the graph (fuse flag; full, sparse or dense) and the
 *    pool's context (cpuPoolContext(): workers, memory bandwidth, NMP
 *    use and share, pooling scale);
 *  - probe stream: the store keeps the first one it takes back, and
 *    simulateServer() redraws it if its key does not match the run.
 * Every entry is a pure function of its key, so a warmed workload
 * simulates bit for bit as a cold one. GPU kernel rows are not kept:
 * the rows a search times again cost under 1% of its time.
 *
 * warm() and absorb() lock the store and copy O(entries); neither runs
 * in the event loop. Several evaluations may warm and absorb
 * concurrently.
 */
class TimingStore
{
  public:
    TimingStore(const hw::ServerSpec& server, const model::Model& m);

    /**
     * Copy into `w`'s memos the entries matching its pools' keys.
     * Panics when `w` was prepared for another server or model.
     */
    void warm(PreparedWorkload& w) const EXCLUDES(mu_);

    /** Merge in the entries `w`'s memos hold and the store lacks. */
    void absorb(const PreparedWorkload& w) EXCLUDES(mu_);

  private:
    struct CpuKey
    {
        bool fuse = false;
        int graph = 0;  ///< 0 full, 1 sparse, 2 dense
        hw::CpuExecContext cx;
        bool operator==(const CpuKey& o) const;
    };

    static CpuKey cpuKey(const PreparedWorkload& w, int pool);
    void checkBound(const PreparedWorkload& w, const char* what) const;

    const hw::ServerSpec* server_;
    const model::Model* model_;
    mutable util::Mutex mu_;
    std::vector<std::pair<CpuKey, CpuServiceMemo>> cpu_ GUARDED_BY(mu_);
    ProbeStreamMemo probe_ GUARDED_BY(mu_);
};

/**
 * Check a configuration against the server's physical constraints
 * (cores, host memory, device memory, thread counts).
 *
 * @return std::nullopt when valid, else a human-readable reason.
 */
std::optional<std::string> validateConfig(
    const hw::ServerSpec& server, const model::Model& m,
    const sched::SchedulingConfig& cfg);

/**
 * Build the execution plan; fatal() if the configuration is invalid
 * (call validateConfig() first when probing a search space).
 */
PreparedWorkload prepare(const hw::ServerSpec& server,
                         const model::Model& m,
                         const sched::SchedulingConfig& cfg);

/**
 * Service time (us) of one accelerator batch of `items` at pooling
 * scale `ps`: w.gpu_plan's kernels run back to back on the thread's
 * stream in w.gpuGraph()'s topological order. Batch-only kernels come
 * from w.gpu_kernel_memo (timed by the plan on first use); embedding
 * kernels are timed at `ps`. Touches no graph node.
 */
double gpuBatchLatencyUs(const PreparedWorkload& w, int items, double ps);

}  // namespace hercules::sim
