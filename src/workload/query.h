/**
 * @file
 * The unit of work: one inference query ranking `size` candidate items
 * for one user (paper §II-A). Query sizes follow a heavy-tailed
 * distribution (Fig 2(b)); per-query pooling variance models the
 * pooling-factor spread of Fig 2(c).
 */
#pragma once

#include <cstdint>

namespace hercules::workload {

/**
 * One inference request. The two ints sit together, so a query packs
 * into 32 bytes (a replay buffers a whole interval of them).
 */
struct Query
{
    uint64_t id = 0;
    double arrival_s = 0.0;      ///< arrival time (seconds)
    double pooling_scale = 1.0;  ///< per-query pooling multiplier
    int size = 0;                ///< number of candidate items to rank
    /**
     * The service (co-served model) this query belongs to. Single-
     * service traces leave it 0; multi-service traces tag each query
     * with the index of its service so the cluster layer can route it
     * to that service's shards and account its SLA separately.
     */
    int service_id = 0;
};

static_assert(sizeof(Query) == 32, "Query should pack into 32 bytes");

}  // namespace hercules::workload
