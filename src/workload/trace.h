/**
 * @file
 * Synthetic embedding-access traces with Zipf temporal locality,
 * standing in for the production traces the paper's locality-aware
 * partitioner profiles (Fig 10(a): "Hot Embedding Profiling").
 */
#pragma once

#include <cstdint>
#include <vector>

#include "model/model_zoo.h"

namespace hercules::workload {

/**
 * Access counts per embedding row, per table. Row ids are bucketed
 * (popularity rank order) to keep traces of 600M-row tables tractable.
 */
struct EmbAccessTrace
{
    /** accesses[t][r] = times row r of table t was touched. */
    std::vector<std::vector<uint64_t>> accesses;

    /** @return total accesses to one table. */
    uint64_t tableTotal(size_t table) const;

    /** @return total accesses across tables. */
    uint64_t total() const;
};

/**
 * Generate an access trace by sampling `num_queries` queries of
 * `avg_query_size` items against the model's embedding tables with
 * their configured Zipf skews.
 *
 * Row domains larger than `max_tracked_rows` are tracked only for the
 * first `max_tracked_rows` popularity ranks (the tail is aggregated in
 * the last bucket), which is exactly what a production hot-row profiler
 * does with a count-min-style sketch.
 */
EmbAccessTrace generateTrace(const model::Model& m, int num_queries,
                             int avg_query_size, uint64_t seed,
                             uint64_t max_tracked_rows = 1u << 20);

/**
 * Empirical hit rate of a hot-row placement against a trace: the
 * fraction of accesses that land on the `hot_rows[t]` most popular rows
 * of each table, weighted by traffic.
 */
double empiricalHitRate(const EmbAccessTrace& trace,
                        const std::vector<int64_t>& hot_rows);

}  // namespace hercules::workload
