/**
 * @file
 * The task-scheduling configuration: one point in the parallelism space
 * Psp(M + D + O) of paper §IV-B.
 *
 *  - model-parallelism  (m): co-located inference threads (CPU) or
 *    co-located models (accelerator);
 *  - op-parallelism     (o): operator workers (cores) per CPU thread;
 *  - data-parallelism   (d): CPU sub-query batch size, or the
 *    accelerator query-fusion limit.
 *
 * Combined with the model-partition choice (model-based vs S-D
 * pipeline vs hot-split), a SchedulingConfig fully determines how a
 * server executes a workload.
 */
#pragma once

#include <optional>
#include <string>

#include "model/partition.h"

namespace hercules::sim {

/** How the (partitioned) model maps onto the server's devices. */
enum class Mapping {
    /** Whole graph per CPU thread (DeepRecSys-style host serving). */
    CpuModelBased,
    /** SparseNet threads feeding DenseNet threads on the CPU. */
    CpuSdPipeline,
    /** Hot-SparseNet + DenseNet on the accelerator; cold SparseNet on
     *  the host (Fig 10(d)). */
    GpuModelBased,
    /** SparseNet on the host, DenseNet on the accelerator (Fig 10(c)). */
    GpuSdPipeline,
};

/** @return printable mapping name. */
const char* mappingName(Mapping m);

/** One task-scheduling configuration. */
struct SchedulingConfig
{
    Mapping mapping = Mapping::CpuModelBased;

    // -- CPU side ------------------------------------------------------
    /** Inference threads (model-based) or SparseNet threads (pipeline
     *  and hot-split cold path). */
    int cpu_threads = 1;
    /** Op-parallel workers (physical cores) per CPU thread. */
    int cores_per_thread = 1;
    /** DenseNet threads (CpuSdPipeline only; 1 core each). */
    int dense_threads = 0;
    /** Sub-query batch size (data-parallelism on the host). */
    int batch = 32;

    // -- Accelerator side ----------------------------------------------
    /** Co-located inference threads on the accelerator. */
    int gpu_threads = 0;
    /** Query-fusion limit in items (0 = no fusion: one query/batch). */
    int fusion_limit = 0;

    /** Apply elementwise-operator fusion before execution. */
    bool fuse_elementwise = true;

    /** @return physical cores consumed on the host. */
    int hostCores() const
    {
        int sparse = cpu_threads * cores_per_thread;
        return mapping == Mapping::CpuSdPipeline ? sparse + dense_threads
                                                 : sparse;
    }

    /** @return true when the config uses the accelerator. */
    bool usesGpu() const
    {
        return mapping == Mapping::GpuModelBased ||
               mapping == Mapping::GpuSdPipeline;
    }

    /** @return compact human-readable description. */
    std::string str() const;

    /**
     * @return a canonical encoding of every field, suitable as a cache
     * key: two configurations compare equal iff their keys are equal
     * (unlike str(), which omits fields irrelevant to display).
     */
    std::string key() const;

    /**
     * Parse a key() encoding back into a configuration (the efficiency
     * table persists configs this way, so cached tuples can be
     * re-prepared and simulated).
     *
     * @return std::nullopt when the string is not a valid key.
     */
    static std::optional<SchedulingConfig> fromKey(const std::string& k);
};

}  // namespace hercules::sim
