#include "workload/querygen.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace hercules::workload {

namespace {

/** Inverse standard normal CDF (Acklam's rational approximation). */
double
invNormalCdf(double p)
{
    if (p <= 0.0 || p >= 1.0)
        panic("invNormalCdf: p out of (0,1): %f", p);
    static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                               -2.759285104469687e+02, 1.383577518672690e+02,
                               -3.066479806614716e+01, 2.506628277459239e+00};
    static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                               -1.556989798598866e+02, 6.680131188771972e+01,
                               -1.328068155288572e+01};
    static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                               -2.400758277161838e+00, -2.549732539343734e+00,
                               4.374664141464968e+00,  2.938163982698783e+00};
    static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                               2.445134137142996e+00, 3.754408661907416e+00};
    const double plow = 0.02425;
    const double phigh = 1 - plow;
    double q, r;
    if (p < plow) {
        q = std::sqrt(-2 * std::log(p));
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
                c[5]) /
               ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1);
    }
    if (p <= phigh) {
        q = p - 0.5;
        r = q * q;
        return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
                a[5]) *
               q /
               (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r +
                1);
    }
    q = std::sqrt(-2 * std::log(1 - p));
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
             c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1);
}

}  // namespace

double
QuerySizeDist::percentile(double p) const
{
    double z = invNormalCdf(p / 100.0);
    return median * std::exp(sigma * z);
}

QueryGenerator::QueryGenerator(double qps, uint64_t seed,
                               QuerySizeDist sizes, PoolingDist pool)
    : qps_(qps), sizes_(sizes), pool_(pool), rng_(seed)
{
    if (qps <= 0.0)
        fatal("QueryGenerator: non-positive rate %f", qps);
}

void
QueryGenerator::setQps(double qps)
{
    if (qps <= 0.0)
        fatal("QueryGenerator::setQps: non-positive rate %f", qps);
    qps_ = qps;
}

UnitQuery
drawUnitQuery(Rng& rng, const QuerySizeDist& sizes, const PoolingDist& pool)
{
    UnitQuery q;
    // -log(u) / 1.0 is exactly -log(u).
    q.gap = rng.exponential(1.0);
    double raw = rng.lognormal(std::log(sizes.median), sizes.sigma);
    q.size = std::clamp(static_cast<int>(std::lround(raw)), sizes.min_size,
                        sizes.max_size);
    q.pooling_scale = rng.lognormal(0.0, pool.sigma);
    return q;
}

Query
QueryGenerator::next()
{
    const UnitQuery u = drawUnitQuery(rng_, sizes_, pool_);
    clock_s_ += u.gap / qps_;
    Query q;
    q.id = next_id_++;
    q.arrival_s = clock_s_;
    q.size = u.size;
    q.pooling_scale = u.pooling_scale;
    return q;
}

std::vector<Query>
QueryGenerator::generate(size_t n)
{
    std::vector<Query> qs;
    qs.reserve(n);
    for (size_t i = 0; i < n; ++i)
        qs.push_back(next());
    return qs;
}

}  // namespace hercules::workload
