#include "util/stats.h"

#include <algorithm>
#include <cmath>

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

double
nearestRankPercentile(std::vector<double>& samples, double p)
{
    if (samples.empty())
        return 0.0;
    if (p < 0.0 || p > 100.0)
        panic("percentile out of range: %f", p);
    // Nearest-rank definition: ceil(p/100 * N), 1-indexed.
    double rank = std::ceil(p / 100.0 * static_cast<double>(samples.size()));
    size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
    idx = std::min(idx, samples.size() - 1);
    auto nth = samples.begin() + static_cast<std::ptrdiff_t>(idx);
    std::nth_element(samples.begin(), nth, samples.end());
    return *nth;
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
