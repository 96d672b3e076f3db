/**
 * @file
 * Binding of (server architecture, model, scheduling configuration)
 * into the concrete execution plan the simulator runs: validated
 * resource allocation, partitioned graphs, hot-embedding split, and the
 * per-thread execution contexts of the cost model.
 */
#pragma once

#include <optional>
#include <string>
#include <unordered_map>

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
 * afterwards, because `cpu_service_memo` caches functions of them.
 *
 * Ownership: a PreparedWorkload is simulated by one thread at a time.
 * Every ServerInstance built on it fills the shared memo without
 * locking. EvalEngine builds one per evaluation on its worker thread.
 * ClusterSim's shards of one personality share one, and its parallel
 * delivery advances all the shards that share a PreparedWorkload on
 * one pool task, so no two threads touch its memo at once.
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

    /**
     * CPU service memo, filled lazily by every ServerInstance simulated
     * on this workload: [pool id][batch size] → timings, pool id 0 =
     * full graph, 1 = sparse, 2 = dense, 3 = cold sparse (hot split).
     * Entries are pure functions of (server, graph, exec context), so
     * sharing them across runs changes no simulated value; a server's
     * slowdown is applied where a sample is used, never stored here.
     */
    mutable std::unordered_map<int, CpuServiceMemoEntry> cpu_service_memo[4];
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

}  // namespace hercules::sim
