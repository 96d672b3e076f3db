/**
 * @file
 * Small statistics toolkit used throughout the simulator: running
 * mean/variance, percentile tracking for tail-latency measurement, and a
 * logarithmic histogram for workload characterization.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hercules {

/** Numerically stable running mean / variance (Welford). */
class OnlineStats
{
  public:
    /** Add one observation. */
    void add(double x);

    /** @return number of observations. */
    size_t count() const { return count_; }

    /** @return sample mean (0 when empty). */
    double mean() const { return count_ ? mean_ : 0.0; }

    /** @return sample variance (0 with fewer than two observations). */
    double variance() const;

    /** @return sample standard deviation. */
    double stddev() const;

    /** @return smallest observation (+inf when empty). */
    double min() const { return min_; }

    /** @return largest observation (-inf when empty). */
    double max() const { return max_; }

    /** @return sum of all observations. */
    double sum() const { return mean_ * static_cast<double>(count_); }

    /** Reset to the empty state. */
    void reset();

  private:
    size_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 1e300;
    double max_ = -1e300;
};

/**
 * The p-th percentile of `samples` by nearest rank (the
 * ceil(p/100 * N)-th smallest; 0 when empty), found by selection
 * (std::nth_element, O(N)). The value does not depend on the order of
 * `samples`, which the selection reorders.
 */
double nearestRankPercentile(std::vector<double>& samples, double p);

/**
 * nearestRankPercentile() of the concatenation of `parts`, found in
 * place: a quickselect over all parts at once (pick a pivot, 3-way
 * partition every part, keep the side that holds the rank), so no
 * sample is copied. Each part is reordered. The value is the same
 * order statistic as that of the concatenated buffer, whatever the
 * order of the parts or of their samples.
 */
double nearestRankPercentile(const std::vector<std::vector<double>*>& parts,
                             double p);

/**
 * Exact percentile tracker: stores all samples and selects on demand.
 *
 * Exact storage avoids quantile-sketch approximation error in tests
 * that assert tail behaviour. A percentile query is a selection
 * (std::nth_element, O(n)), not a sort: it returns exactly the element
 * a full sort would put at the nearest-rank position, but reorders the
 * stored samples as a side effect. mean() therefore comes from a
 * running sum kept in add(), accumulated in insertion order, so it is
 * the same double whatever accessors ran before it.
 */
class PercentileTracker
{
  public:
    /** Add one sample. */
    void add(double x)
    {
        samples_.push_back(x);
        sum_ += x;
    }

    /** Add many samples, in order. */
    void addAll(const std::vector<double>& xs);

    /** @return number of samples. */
    size_t count() const { return samples_.size(); }

    /**
     * @param p percentile in [0, 100].
     * @return the p-th percentile via nearest-rank (the
     *         ceil(p/100 * N)-th smallest sample); 0 when empty.
     */
    double percentile(double p) const;

    /** Convenience accessors for the tails the paper reports. */
    double p50() const { return percentile(50.0); }
    double p75() const { return percentile(75.0); }
    double p95() const { return percentile(95.0); }
    double p99() const { return percentile(99.0); }

    /** @return sample mean: insertion-order sum / count (0 when empty). */
    double mean() const;

    /** @return largest sample (0 when empty). */
    double max() const;

    /** @return the samples, in no particular order. */
    const std::vector<double>& samples() const { return samples_; }

    /**
     * The samples, for a selection that reorders them in place (the
     * multi-part nearestRankPercentile()). Callers may reorder them
     * but must not add or remove any.
     */
    std::vector<double>& samples() { return samples_; }

    /** Remove all samples. */
    void reset();

  private:
    /** The samples, partially reordered by every percentile() call. */
    mutable std::vector<double> samples_;
    double sum_ = 0.0;  ///< running sum, in insertion order
};

/**
 * Histogram with fixed-width bins over [lo, hi); out-of-range samples are
 * clamped into the first/last bin.
 */
class Histogram
{
  public:
    /**
     * @param lo    inclusive lower bound of the tracked range.
     * @param hi    exclusive upper bound of the tracked range.
     * @param bins  number of equal-width bins (must be > 0).
     */
    Histogram(double lo, double hi, size_t bins);

    /** Add one sample. */
    void add(double x);

    /** @return count in the given bin. */
    uint64_t binCount(size_t bin) const;

    /** @return total number of samples. */
    uint64_t total() const { return total_; }

    /** @return number of bins. */
    size_t bins() const { return counts_.size(); }

    /** @return inclusive lower edge of the given bin. */
    double binLo(size_t bin) const;

    /** @return exclusive upper edge of the given bin. */
    double binHi(size_t bin) const;

    /** @return fraction of samples in the given bin (0 when empty). */
    double fraction(size_t bin) const;

  private:
    double lo_;
    double hi_;
    double width_;
    std::vector<uint64_t> counts_;
    uint64_t total_ = 0;
};

}  // namespace hercules
