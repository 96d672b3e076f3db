/**
 * @file
 * Trace-driven load generator: Poisson query arrivals with heavy-tailed
 * (lognormal) query sizes, matching the arrival characteristics the
 * paper observes in production (Fig 2(b), §II-A).
 */
#pragma once

#include <cstddef>
#include <vector>

#include "util/rng.h"
#include "workload/query.h"

namespace hercules::workload {

/** Parameters of the query-size distribution. */
struct QuerySizeDist
{
    double median = 50.0;   ///< median candidates per query
    double sigma = 1.0;     ///< lognormal shape (tail heaviness)
    int min_size = 10;      ///< clip below
    int max_size = 1000;    ///< clip above

    /** @return the analytic (unclipped) p-th percentile. */
    double percentile(double p) const;
};

/** Parameters of the per-query pooling-factor variability. */
struct PoolingDist
{
    double sigma = 0.25;  ///< lognormal sigma of the per-query multiplier
};

/**
 * One query's draws at unit arrival rate: the exponential gap
 * E = -log u (the gap at rate r is E / r, the same double as drawing
 * at rate r), the clipped lognormal size and the pooling multiplier.
 */
struct UnitQuery
{
    double gap = 0.0;
    double pooling_scale = 1.0;
    int size = 0;
};

/**
 * Draw the next query of a stream in QueryGenerator's order (gap,
 * size, pooling). QueryGenerator::next() and every stream that must
 * reproduce it draw through here, so the draw order is written once.
 */
UnitQuery drawUnitQuery(Rng& rng, const QuerySizeDist& sizes,
                        const PoolingDist& pool);

/**
 * Generates a reproducible query stream.
 *
 * Arrivals are Poisson at the configured rate; sizes are clipped
 * lognormal; each query carries a pooling multiplier applied to the
 * model's per-table mean pooling factors.
 */
class QueryGenerator
{
  public:
    /**
     * @param qps   mean arrival rate (queries per second).
     * @param seed  RNG seed; equal seeds give identical streams.
     * @param sizes query-size distribution.
     * @param pool  pooling variability.
     */
    QueryGenerator(double qps, uint64_t seed,
                   QuerySizeDist sizes = QuerySizeDist{},
                   PoolingDist pool = PoolingDist{});

    /** @return the next query in arrival order. */
    Query next();

    /** Generate the next `n` queries. */
    std::vector<Query> generate(size_t n);

    /** @return configured mean arrival rate. */
    double qps() const { return qps_; }

    /** Change the arrival rate going forward (diurnal modulation). */
    void setQps(double qps);

  private:
    double qps_;
    QuerySizeDist sizes_;
    PoolingDist pool_;
    Rng rng_;
    double clock_s_ = 0.0;
    uint64_t next_id_ = 0;
};

}  // namespace hercules::workload
