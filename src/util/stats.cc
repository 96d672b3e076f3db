#include "util/stats.h"

#include <algorithm>
#include <cmath>
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

double
nearestRankPercentile(const std::vector<std::vector<double>*>& parts,
                      double p)
{
    // The still-candidate slice [lo, hi) of every non-empty part.
    struct Range
    {
        double* lo;
        double* hi;
    };
    std::vector<Range> live;
    size_t n = 0;
    for (std::vector<double>* part : parts) {
        if (part->empty())
            continue;
        live.push_back({part->data(), part->data() + part->size()});
        n += part->size();
    }
    if (n == 0)
        return 0.0;
    size_t idx = nearestRankIndex(n, p);
    std::vector<std::pair<double*, double*>> splits;
    for (;;) {
        if (live.size() == 1) {
            std::nth_element(live[0].lo, live[0].lo + idx, live[0].hi);
            return live[0].lo[idx];
        }
        // Pivot: median of the first, middle and last sample of the
        // largest range.
        const Range& big = *std::max_element(
            live.begin(), live.end(), [](const Range& a, const Range& b) {
                return a.hi - a.lo < b.hi - b.lo;
            });
        double three[3] = {big.lo[0], big.lo[(big.hi - big.lo) / 2],
                           big.hi[-1]};
        std::sort(three, three + 3);
        const double pivot = three[1];
        // 3-way partition every range: [lo, lt) < pivot, [lt, gt) ==
        // pivot, [gt, hi) > pivot.
        size_t below = 0, equal = 0;
        splits.clear();
        for (const Range& r : live) {
            double* lt = std::partition(
                r.lo, r.hi, [pivot](double x) { return x < pivot; });
            double* gt = std::partition(
                lt, r.hi, [pivot](double x) { return !(pivot < x); });
            splits.emplace_back(lt, gt);
            below += static_cast<size_t>(lt - r.lo);
            equal += static_cast<size_t>(gt - lt);
        }
        if (idx >= below && idx < below + equal)
            return pivot;
        const bool left = idx < below;
        if (!left)
            idx -= below + equal;
        size_t kept = 0;
        for (size_t i = 0; i < live.size(); ++i) {
            const Range r = left ? Range{live[i].lo, splits[i].first}
                                 : Range{splits[i].second, live[i].hi};
            if (r.hi > r.lo)
                live[kept++] = r;
        }
        live.resize(kept);
    }
}

double
PercentileTracker::percentile(double p) const
{
    return nearestRankPercentile(samples_, p);
}

double
PercentileTracker::mean() const
{
    if (samples_.empty())
        return 0.0;
    return sum_ / static_cast<double>(samples_.size());
}

double
PercentileTracker::max() const
{
    if (samples_.empty())
        return 0.0;
    return *std::max_element(samples_.begin(), samples_.end());
}

void
PercentileTracker::reset()
{
    samples_.clear();
    sum_ = 0.0;
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
