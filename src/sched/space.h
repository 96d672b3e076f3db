/**
 * @file
 * The task-scheduling parallelism space Psp(M + D + O): axis
 * definitions, validity filtering, exhaustive enumeration (the oracle
 * the gradient search is tested against), and the pipeline-balance
 * heuristic that sizes DenseNet thread pools.
 */
#pragma once

#include <vector>

#include "hw/server.h"
#include "model/model_zoo.h"
#include "sched/config.h"

namespace hercules::sched {

/** Axis values defining the searchable space. */
struct SpaceOptions
{
    /** CPU sub-query batch sizes (data-parallelism axis). */
    std::vector<int> batches = {8, 16, 32, 64, 128, 256, 512, 1024};
    /** Accelerator query-fusion limits; 0 = no fusion. */
    std::vector<int> fusion_limits = {0,    500,  1000, 2000,
                                      4000, 6000};
    /** Upper bound on co-located accelerator threads. */
    int max_gpu_threads = 6;
    /** Upper bound on op-parallel workers per thread (paper: 1–4). */
    int max_cores_per_thread = 4;
    /** Host helper-thread counts for the accelerator cold path. */
    std::vector<int> host_helper_threads = {2, 8};
};

/** @return mappings the server/model pair can execute. */
std::vector<Mapping> applicableMappings(const hw::ServerSpec& server,
                                        const model::Model& m);

/**
 * Host helper-thread counts an accelerator model-based config tries:
 * the trivial single dispatcher thread, then each configured count that
 * fits the server's cores. Helpers matter only when the hot split
 * leaves a cold fraction.
 */
std::vector<int> hostHelperThreads(const hw::ServerSpec& server,
                                   const SpaceOptions& opt);

/**
 * Size the DenseNet pool to balance an S-D pipeline: the number of
 * 1-core dense threads whose aggregate service rate matches
 * `sparse_threads` sparse threads of `cores_per_thread` workers each
 * (computed from cost-model single-batch timings).
 *
 * @return dense thread count, or 0 when no cores remain.
 */
int balancedDenseThreads(const hw::ServerSpec& server,
                         const model::Model& m, int sparse_threads,
                         int cores_per_thread, int batch);

/**
 * Enumerate every valid configuration of one mapping (used by the
 * exhaustive-oracle search, the space-characterization benches and the
 * tests). The S-D pipeline enumerates explicit dense-thread counts;
 * the gradient search instead uses balancedDenseThreads().
 */
std::vector<SchedulingConfig> enumerateConfigs(
    const hw::ServerSpec& server, const model::Model& m, Mapping mapping,
    const SpaceOptions& opt = SpaceOptions{});

/**
 * Total valid configurations across every applicable mapping — the
 * denominator when reporting how little of Psp(M + D + O) the gradient
 * search (or the memoized engine) actually measures.
 */
size_t spaceSize(const hw::ServerSpec& server, const model::Model& m,
                 const SpaceOptions& opt = SpaceOptions{});

}  // namespace hercules::sched
