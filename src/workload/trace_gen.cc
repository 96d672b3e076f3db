#include "workload/trace_gen.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/rng.h"

namespace hercules::workload {

TraceGenerator::TraceGenerator(const DiurnalLoad& load, TraceOptions opt)
    : load_(load), opt_(opt)
{
    if (opt_.horizon_hours <= 0.0)
        fatal("TraceGenerator: non-positive horizon %f",
              opt_.horizon_hours);
    if (opt_.bucket_seconds <= 0.0)
        fatal("TraceGenerator: non-positive bucket %f",
              opt_.bucket_seconds);
    if (opt_.time_compression < 1.0)
        fatal("TraceGenerator: compression %f below 1",
              opt_.time_compression);
}

double
TraceGenerator::simSeconds() const
{
    return opt_.horizon_hours * 3600.0 / opt_.time_compression;
}

std::vector<Query>
TraceGenerator::generate()
{
    Rng rng(opt_.seed);
    std::vector<Query> trace;
    const double horizon_s = simSeconds();
    const double bucket_s = opt_.bucket_seconds / opt_.time_compression;
    const double mu = std::log(opt_.sizes.median);

    uint64_t id = 0;
    double t = 0.0;                   // simulated seconds
    double bucket_end = bucket_s;
    // Rate of the current bucket, sampled at the bucket midpoint of the
    // wall-clock curve.
    auto bucketRate = [&](double bucket_start) {
        double mid_s = std::min(bucket_start + 0.5 * bucket_s, horizon_s);
        double wall_hours =
            mid_s * opt_.time_compression / 3600.0;
        return load_.loadAt(wall_hours);
    };
    double rate = bucketRate(0.0);
    // Expected query count, for the reserve only (capped: growth is
    // cheap relative to a mis-sized up-front allocation).
    trace.reserve(static_cast<size_t>(
        std::min(load_.peakQps() * horizon_s * 0.75, 4e6)));

    while (t < horizon_s) {
        if (rate <= 1e-9) {
            // Dead bucket: skip straight to the next one.
            t = bucket_end;
            bucket_end += bucket_s;
            rate = bucketRate(t);
            continue;
        }
        double gap = rng.exponential(rate);
        if (t + gap >= bucket_end) {
            // The draw crosses the boundary: restart at the boundary
            // with the next bucket's rate (exact for piecewise-constant
            // intensity, by memorylessness).
            t = bucket_end;
            bucket_end += bucket_s;
            rate = bucketRate(t);
            continue;
        }
        t += gap;
        if (t >= horizon_s)
            break;
        Query q;
        q.id = id++;
        q.arrival_s = t;
        double raw = rng.lognormal(mu, opt_.sizes.sigma);
        q.size = std::clamp(static_cast<int>(std::lround(raw)),
                            opt_.sizes.min_size, opt_.sizes.max_size);
        q.pooling_scale = rng.lognormal(0.0, opt_.pooling.sigma);
        trace.push_back(q);
    }
    return trace;
}

uint64_t
serviceTraceSeed(uint64_t base_seed, size_t service)
{
    // Golden-ratio stride keeps the per-service streams well separated;
    // service 0 keeps the base seed so single-service merged traces
    // reproduce the plain TraceGenerator stream exactly.
    return base_seed +
           0x9E3779B97F4A7C15ull * static_cast<uint64_t>(service);
}

std::vector<Query>
generateMultiServiceTrace(const std::vector<ServiceTraceSpec>& services,
                          const TraceOptions& opt)
{
    if (services.empty())
        fatal("generateMultiServiceTrace: no services");

    std::vector<std::vector<Query>> streams;
    for (size_t s = 0; s < services.size(); ++s) {
        TraceOptions o = opt;
        o.seed = serviceTraceSeed(opt.seed, s);
        o.sizes = services[s].sizes;
        o.pooling = services[s].pooling;
        DiurnalLoad load(services[s].load);
        streams.push_back(TraceGenerator(load, o).generate());
    }
    return mergeServiceStreams(streams);
}

std::vector<Query>
mergeServiceStreams(const std::vector<std::vector<Query>>& streams)
{
    size_t total = 0;
    for (size_t s = 0; s < streams.size(); ++s) {
        const std::vector<Query>& st = streams[s];
        for (size_t i = 1; i < st.size(); ++i)
            if (st[i].arrival_s < st[i - 1].arrival_s)
                panic("mergeServiceStreams: stream %zu not sorted by "
                      "arrival at query %zu",
                      s, i);
        total += st.size();
    }
    // One cursor per stream; the earliest head wins each step, and the
    // strict < keeps an exact timestamp tie with the lowest service
    // index (k is a handful of services, so a linear scan suffices).
    struct Cursor
    {
        const Query* next;
        const Query* end;
    };
    std::vector<Cursor> heads;
    for (const std::vector<Query>& st : streams)
        heads.push_back({st.data(), st.data() + st.size()});
    std::vector<Query> merged;
    merged.reserve(total);
    for (uint64_t id = 0; id < total; ++id) {
        size_t best = heads.size();
        for (size_t s = 0; s < heads.size(); ++s)
            if (heads[s].next != heads[s].end &&
                (best == heads.size() ||
                 heads[s].next->arrival_s < heads[best].next->arrival_s))
                best = s;
        Query q = *heads[best].next++;
        q.id = id;
        q.service_id = static_cast<int>(best);
        merged.push_back(q);
    }
    return merged;
}

}  // namespace hercules::workload
