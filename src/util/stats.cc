#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "util/logging.h"

namespace hercules {

void
OnlineStats::add(double x)
{
    ++count_;
    double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
}

double
OnlineStats::variance() const
{
    if (count_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(count_ - 1);
}

double
OnlineStats::stddev() const
{
    return std::sqrt(variance());
}

void
OnlineStats::reset()
{
    *this = OnlineStats();
}

void
PercentileTracker::addAll(const std::vector<double>& xs)
{
    samples_.reserve(samples_.size() + xs.size());
    for (double x : xs)
        add(x);
}

namespace {

/** The 0-based nearest-rank position of the p-th percentile of n > 0. */
size_t
nearestRankIndex(size_t n, double p)
{
    if (p < 0.0 || p > 100.0)
        panic("percentile out of range: %f", p);
    // Nearest-rank definition: ceil(p/100 * N), 1-indexed.
    double rank = std::ceil(p / 100.0 * static_cast<double>(n));
    size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
    return std::min(idx, n - 1);
}

/**
 * Put the order statistics of `ranks` (0-based, ascending, each below
 * last - first) in place: afterwards first[r] is the r-th smallest of
 * the range for every r of `ranks`. Each selection runs on the range
 * above the previous rank, which the previous one left holding only
 * samples at least as large.
 */
void
selectRanks(double* first, double* last, const std::vector<size_t>& ranks)
{
    double* lo = first;
    for (size_t r : ranks) {
        if (first + r < lo)
            continue;  // a repeated rank, already in place
        std::nth_element(lo, first + r, last);
        lo = first + r + 1;
    }
}

/**
 * The nearest-rank positions of `ps` among n > 0 samples: `order[i]`
 * indexes `ps` by ascending position and `ranks[i]` is its position.
 */
void
sortedRanks(size_t n, const std::vector<double>& ps, std::vector<size_t>& order,
            std::vector<size_t>& ranks)
{
    order.resize(ps.size());
    for (size_t i = 0; i < ps.size(); ++i)
        order[i] = i;
    std::vector<size_t> pos(ps.size());
    for (size_t i = 0; i < ps.size(); ++i)
        pos[i] = nearestRankIndex(n, ps[i]);
    std::stable_sort(order.begin(), order.end(),
                     [&](size_t a, size_t b) { return pos[a] < pos[b]; });
    ranks.resize(ps.size());
    for (size_t i = 0; i < ps.size(); ++i)
        ranks[i] = pos[order[i]];
}

}  // namespace

double
nearestRankPercentile(std::vector<double>& samples, double p)
{
    if (samples.empty())
        return 0.0;
    const size_t idx = nearestRankIndex(samples.size(), p);
    auto nth = samples.begin() + static_cast<std::ptrdiff_t>(idx);
    std::nth_element(samples.begin(), nth, samples.end());
    return *nth;
}

std::vector<double>
nearestRankPercentiles(std::vector<double>& samples,
                       const std::vector<double>& ps)
{
    std::vector<double> out(ps.size(), 0.0);
    if (samples.empty())
        return out;
    std::vector<size_t> order, ranks;
    sortedRanks(samples.size(), ps, order, ranks);
    selectRanks(samples.data(), samples.data() + samples.size(), ranks);
    for (size_t i = 0; i < ps.size(); ++i)
        out[order[i]] = samples[ranks[i]];
    return out;
}

size_t
sampleBucket(double x)
{
    constexpr uint64_t kSign = uint64_t{1} << 63;
    constexpr uint64_t kLo =
        kSign | (static_cast<uint64_t>(1023 + kSampleBucketLoExp) << 52);
    constexpr uint64_t kHi =
        kSign | (static_cast<uint64_t>(1023 + kSampleBucketHiExp) << 52);
    uint64_t key;
    std::memcpy(&key, &x, sizeof key);
    // Total order: flip every bit of a negative, the sign of a positive.
    key ^= (0 - (key >> 63)) | kSign;
    if (key < kLo)
        return 0;
    if (key >= kHi)
        return kSampleBuckets - 1;
    return 1 + static_cast<size_t>((key - kLo) >> (52 - kSubBucketBits));
}

std::vector<double>
nearestRankPercentiles(const std::vector<CountedSpan>& parts,
                       const std::vector<double>& ps)
{
    std::vector<double> out(ps.size(), 0.0);
    size_t n = 0;
    for (const CountedSpan& part : parts)
        n += part.last - part.first;
    if (n == 0)
        return out;
    std::vector<size_t> order, ranks;
    sortedRanks(n, ps, order, ranks);

    // The bucket of every rank, and the rank within that bucket.
    struct Target
    {
        size_t bucket;
        size_t count;  ///< samples in the bucket, over every part
        std::vector<size_t> ranks;  ///< ascending, within the bucket
        std::vector<double> samples;
    };
    std::vector<Target> targets;
    std::vector<size_t> target_of(ranks.size()), local(ranks.size());
    size_t below = 0;  // samples in the buckets before b
    size_t next = 0;   // the first rank not yet placed
    for (size_t b = 0; b < kSampleBuckets && next < ranks.size(); ++b) {
        size_t count = 0;
        for (const CountedSpan& part : parts)
            count += static_cast<size_t>(part.counts[b]);
        if (ranks[next] >= below + count) {
            below += count;
            continue;
        }
        targets.push_back({b, count, {}, {}});
        for (; next < ranks.size() && ranks[next] < below + count; ++next) {
            local[next] = ranks[next] - below;
            targets.back().ranks.push_back(local[next]);
            target_of[next] = targets.size() - 1;
        }
        below += count;
    }
    if (next < ranks.size())
        panic("nearestRankPercentiles: bucket counts cover %zu of %zu "
              "samples",
              below, n);

    // One pass over every sample gathers the target buckets' samples.
    // slot[b] is 1 + the target of bucket b, 0 for any other bucket.
    std::vector<uint32_t> slot(kSampleBuckets, 0);
    for (size_t i = 0; i < targets.size(); ++i) {
        targets[i].samples.reserve(targets[i].count);
        slot[targets[i].bucket] = static_cast<uint32_t>(i + 1);
    }
    for (const CountedSpan& part : parts)
        part.samples->forEachRun(
            part.first, part.last, [&](const double* x, const double* end) {
                for (; x != end; ++x)
                    if (const uint32_t t = slot[sampleBucket(*x)])
                        targets[t - 1u].samples.push_back(*x);
            });
    for (Target& t : targets) {
        if (t.samples.size() != t.count)
            panic("nearestRankPercentiles: bucket %zu counts %zu samples "
                  "but holds %zu",
                  t.bucket, t.count, t.samples.size());
        selectRanks(t.samples.data(), t.samples.data() + t.samples.size(),
                    t.ranks);
    }
    for (size_t i = 0; i < ranks.size(); ++i)
        out[order[i]] = targets[target_of[i]].samples[local[i]];
    return out;
}

double
PercentileTracker::percentile(double p) const
{
    return nearestRankPercentile(samples_, p);
}

std::vector<double>
PercentileTracker::percentiles(const std::vector<double>& ps) const
{
    return nearestRankPercentiles(samples_, ps);
}

double
PercentileTracker::mean() const
{
    if (samples_.empty())
        return 0.0;
    return sum_ / static_cast<double>(samples_.size());
}

void
PercentileTracker::reset()
{
    samples_.clear();
    sum_ = 0.0;
    max_ = -std::numeric_limits<double>::infinity();
}

CountedSamples::CountedSamples()
    : counts_(kSampleBuckets, 0), window_counts_(kSampleBuckets, 0)
{
}

void
CountedSamples::startWindow()
{
    window_begin_ = size_;
    std::fill(window_counts_.begin(), window_counts_.end(), 0);
    window_max_ = -std::numeric_limits<double>::infinity();
}

CountedSpan
CountedSamples::all() const
{
    return {this, 0, size_, counts_.data()};
}

CountedSpan
CountedSamples::window() const
{
    return {this, window_begin_, size_, window_counts_.data()};
}

Histogram::Histogram(double lo, double hi, size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)),
      counts_(bins, 0)
{
    if (bins == 0)
        fatal("Histogram: zero bins");
    if (hi <= lo)
        fatal("Histogram: hi %f <= lo %f", hi, lo);
}

void
Histogram::add(double x)
{
    double rel = (x - lo_) / width_;
    long bin = static_cast<long>(std::floor(rel));
    bin = std::clamp<long>(bin, 0, static_cast<long>(counts_.size()) - 1);
    ++counts_[static_cast<size_t>(bin)];
    ++total_;
}

uint64_t
Histogram::binCount(size_t bin) const
{
    if (bin >= counts_.size())
        panic("Histogram: bin %zu out of range", bin);
    return counts_[bin];
}

double
Histogram::binLo(size_t bin) const
{
    return lo_ + width_ * static_cast<double>(bin);
}

double
Histogram::binHi(size_t bin) const
{
    return lo_ + width_ * static_cast<double>(bin + 1);
}

double
Histogram::fraction(size_t bin) const
{
    if (total_ == 0)
        return 0.0;
    return static_cast<double>(binCount(bin)) / static_cast<double>(total_);
}

}  // namespace hercules
