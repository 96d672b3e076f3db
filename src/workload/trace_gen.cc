#include "workload/trace_gen.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace hercules::workload {

std::vector<Query>
drain(ArrivalStream& s, size_t reserve_hint)
{
    std::vector<Query> out;
    out.reserve(reserve_hint);
    while (const Query* q = s.peek()) {
        out.push_back(*q);
        s.pop();
    }
    return out;
}

void
VectorArrivals::pop()
{
    if (next_ >= v_.size())
        panic("VectorArrivals::pop: stream exhausted");
    ++next_;
}

TraceGenerator::TraceGenerator(const DiurnalLoad& load, TraceOptions opt)
    : load_(load), opt_(opt), rng_(opt.seed)
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
    horizon_s_ = simSeconds();
    bucket_s_ = opt_.bucket_seconds / opt_.time_compression;
    mu_ = std::log(opt_.sizes.median);
    bucket_end_ = bucket_s_;
    rate_ = bucketRate(0.0);
}

double
TraceGenerator::simSeconds() const
{
    return opt_.horizon_hours * 3600.0 / opt_.time_compression;
}

size_t
TraceGenerator::reserveHint() const
{
    // Capped: growth is cheap relative to a mis-sized up-front
    // allocation.
    return static_cast<size_t>(
        std::min(load_.peakQps() * horizon_s_ * 0.75, 4e6));
}

double
TraceGenerator::bucketRate(double bucket_start) const
{
    // Sampled at the bucket midpoint of the wall-clock curve.
    double mid_s = std::min(bucket_start + 0.5 * bucket_s_, horizon_s_);
    double wall_hours = mid_s * opt_.time_compression / 3600.0;
    return load_.loadAt(wall_hours);
}

bool
TraceGenerator::advance()
{
    while (t_ < horizon_s_) {
        if (rate_ <= 1e-9) {
            // Dead bucket: skip straight to the next one.
            t_ = bucket_end_;
            bucket_end_ += bucket_s_;
            rate_ = bucketRate(t_);
            continue;
        }
        double gap = rng_.exponential(rate_);
        if (t_ + gap >= bucket_end_) {
            // The draw crosses the boundary: restart at the boundary
            // with the next bucket's rate (exact for piecewise-constant
            // intensity, by memorylessness).
            t_ = bucket_end_;
            bucket_end_ += bucket_s_;
            rate_ = bucketRate(t_);
            continue;
        }
        t_ += gap;
        if (t_ >= horizon_s_)
            break;
        next_ = Query{};
        next_.id = id_++;
        next_.arrival_s = t_;
        double raw = rng_.lognormal(mu_, opt_.sizes.sigma);
        next_.size = std::clamp(static_cast<int>(std::lround(raw)),
                                opt_.sizes.min_size, opt_.sizes.max_size);
        next_.pooling_scale = rng_.lognormal(0.0, opt_.pooling.sigma);
        return true;
    }
    done_ = true;
    return false;
}

const Query*
TraceGenerator::peek()
{
    if (!has_next_ && !done_)
        has_next_ = advance();
    return has_next_ ? &next_ : nullptr;
}

void
TraceGenerator::pop()
{
    if (!peek())
        panic("TraceGenerator::pop: trace exhausted");
    has_next_ = false;
}

std::vector<Query>
TraceGenerator::generate() const
{
    TraceGenerator fresh(load_, opt_);
    return drain(fresh, reserveHint());
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

MergedArrivals::MergedArrivals(
    std::vector<std::unique_ptr<ArrivalStream>> streams,
    size_t reserve_hint)
    : streams_(std::move(streams)), popped_(streams_.size(), 0),
      reserve_hint_(reserve_hint)
{
    for (const auto& s : streams_)
        heads_.push_back(s->peek());
}

const Query*
MergedArrivals::peek()
{
    if (has_head_)
        return &head_;
    // The earliest head wins; the strict < keeps an exact timestamp tie
    // with the lowest service index (k is a handful of services, so a
    // linear scan suffices).
    size_t best = heads_.size();
    for (size_t s = 0; s < heads_.size(); ++s)
        if (heads_[s] &&
            (best == heads_.size() ||
             heads_[s]->arrival_s < heads_[best]->arrival_s))
            best = s;
    if (best == heads_.size())
        return nullptr;
    head_ = *heads_[best];
    head_.id = next_id_;
    head_.service_id = static_cast<int>(best);
    head_src_ = best;
    has_head_ = true;
    return &head_;
}

void
MergedArrivals::pop()
{
    if (!peek())
        panic("MergedArrivals::pop: stream exhausted");
    const size_t s = head_src_;
    const double t = heads_[s]->arrival_s;
    streams_[s]->pop();
    ++popped_[s];
    heads_[s] = streams_[s]->peek();
    if (heads_[s] && heads_[s]->arrival_s < t)
        panic("mergeServiceStreams: stream %zu not sorted by arrival at "
              "query %zu",
              s, popped_[s]);
    ++next_id_;
    has_head_ = false;
}

MergedArrivals
multiServiceArrivals(const std::vector<ServiceTraceSpec>& services,
                     const TraceOptions& opt)
{
    if (services.empty())
        fatal("generateMultiServiceTrace: no services");

    std::vector<std::unique_ptr<ArrivalStream>> streams;
    size_t hint = 0;
    for (size_t s = 0; s < services.size(); ++s) {
        TraceOptions o = opt;
        o.seed = serviceTraceSeed(opt.seed, s);
        o.sizes = services[s].sizes;
        o.pooling = services[s].pooling;
        auto gen = std::make_unique<TraceGenerator>(
            DiurnalLoad(services[s].load), o);
        hint += gen->reserveHint();
        streams.push_back(std::move(gen));
    }
    return MergedArrivals(std::move(streams), hint);
}

std::vector<Query>
generateMultiServiceTrace(const std::vector<ServiceTraceSpec>& services,
                          const TraceOptions& opt)
{
    MergedArrivals merged = multiServiceArrivals(services, opt);
    return drain(merged, merged.reserveHint());
}

std::vector<Query>
mergeServiceStreams(const std::vector<std::vector<Query>>& streams)
{
    std::vector<std::unique_ptr<ArrivalStream>> views;
    size_t total = 0;
    for (const std::vector<Query>& st : streams) {
        views.push_back(std::make_unique<VectorArrivals>(st));
        total += st.size();
    }
    MergedArrivals merged(std::move(views));
    return drain(merged, total);
}

}  // namespace hercules::workload
