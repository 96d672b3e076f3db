/**
 * @file
 * Small statistics toolkit used throughout the simulator: running
 * mean/variance, exact percentiles for tail-latency measurement (a
 * plain tracker, and bucket-counted samples whose percentiles select
 * over a few buckets instead of every sample), and a fixed-width
 * histogram for workload characterization.
 */
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
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
 * nearestRankPercentile() of `samples` for every p of `ps`, in the
 * order of `ps`, from one ascending pass: each selection runs only on
 * the samples above the previous rank. Reorders `samples`.
 */
std::vector<double> nearestRankPercentiles(std::vector<double>& samples,
                                           const std::vector<double>& ps);

/**
 * Exact percentile tracker: stores all samples and selects on demand.
 *
 * Exact storage avoids quantile-sketch approximation error in tests
 * that assert tail behaviour. A percentile query is a selection
 * (std::nth_element, O(n)), not a sort: it returns exactly the element
 * a full sort would put at the nearest-rank position, but reorders the
 * stored samples as a side effect. mean() therefore comes from a
 * running sum kept in add(), accumulated in insertion order, so it is
 * the same double whatever accessors ran before it; max() is a running
 * max.
 */
class PercentileTracker
{
  public:
    /** Add one sample. */
    void add(double x)
    {
        samples_.push_back(x);
        sum_ += x;
        max_ = std::max(max_, x);
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

    /** percentile() of every p of `ps`, from one selection pass. */
    std::vector<double> percentiles(const std::vector<double>& ps) const;

    /** Convenience accessors for the tails the paper reports. */
    double p50() const { return percentile(50.0); }
    double p75() const { return percentile(75.0); }
    double p95() const { return percentile(95.0); }
    double p99() const { return percentile(99.0); }

    /** @return sample mean: insertion-order sum / count (0 when empty). */
    double mean() const;

    /** @return largest sample (0 when empty). */
    double max() const { return samples_.empty() ? 0.0 : max_; }

    /** @return the samples, in no particular order. */
    const std::vector<double>& samples() const { return samples_; }

    /** Remove all samples. */
    void reset();

  private:
    /** The samples, partially reordered by every percentile() call. */
    mutable std::vector<double> samples_;
    double sum_ = 0.0;  ///< running sum, in insertion order
    double max_ = -std::numeric_limits<double>::infinity();
};

/**
 * Bucket-counted selection. sampleBucket() maps a sample to one of
 * kSampleBuckets log-linear buckets: 128 per binade over
 * [2^-10, 2^22), bucket 0 for everything below (zero, negatives,
 * denormals) and the last for everything at or above (+inf). The key
 * is the IEEE-754 bit pattern under the total-order transform (flip
 * every bit of a negative, the sign bit of a positive), so the bucket
 * never decreases as the value grows, and -0 and +0 share bucket 0.
 * The buckets only narrow a selection down, so the clamped ends cost
 * time on data outside the range, never exactness.
 */
inline constexpr int kSampleBucketLoExp = -10;
inline constexpr int kSampleBucketHiExp = 22;
inline constexpr int kSubBucketBits = 7;  ///< 128 sub-buckets per binade
inline constexpr size_t kSampleBuckets =
    (static_cast<size_t>(kSampleBucketHiExp - kSampleBucketLoExp)
     << kSubBucketBits) +
    2;

/** @return the bucket of `x`, in [0, kSampleBuckets). */
size_t sampleBucket(double x);

class CountedSamples;

/**
 * A read-only view of the samples at positions [first, last) of one
 * CountedSamples, with their counts per sampleBucket(): counts[b] of
 * them fall in bucket b.
 */
struct CountedSpan
{
    const CountedSamples* samples = nullptr;
    size_t first = 0;
    size_t last = 0;
    const uint64_t* counts = nullptr;  ///< kSampleBuckets entries
};

/**
 * nearestRankPercentile() of the concatenation of `parts` for every p
 * of `ps`, in the order of `ps`, without reordering or copying the
 * parts: prefix-sum the parts' bucket counts to find the bucket and
 * the rank within it of every wanted order statistic, gather only
 * those buckets' samples in one pass, and select inside each gathered
 * set. The values are the same order statistics as a selection over
 * the concatenated buffer (0 when there is no sample). Samples must
 * not be NaN. Panics when a part's counts do not match its samples.
 */
std::vector<double> nearestRankPercentiles(const std::vector<CountedSpan>& parts,
                                           const std::vector<double>& ps);

/**
 * Exact samples with a count per sampleBucket(), kept on add(), for
 * bucket-counted selection. The samples live in fixed blocks of
 * kBlockSamples, so the buffer grows without moving what it holds:
 * its memory is the samples plus at most one block, with no
 * reallocation transient. The samples added since the last
 * startWindow() form the window, which has its own counts and running
 * max, so a window is a range of the one buffer, not a copy.
 */
class CountedSamples
{
  public:
    static constexpr size_t kBlockSamples = 8192;  ///< 64 KB blocks

    CountedSamples();

    /** Add one sample to the buffer and to the window. */
    void add(double x)
    {
        const size_t at = size_ % kBlockSamples;
        if (at == 0)
            blocks_.emplace_back(new double[kBlockSamples]);
        blocks_.back()[at] = x;
        ++size_;
        const size_t b = sampleBucket(x);
        ++counts_[b];
        ++window_counts_[b];
        max_ = std::max(max_, x);
        window_max_ = std::max(window_max_, x);
    }

    /** Start an empty window at the end of the buffer. */
    void startWindow();

    /** @return number of samples. */
    size_t count() const { return size_; }
    /** @return number of samples in the window. */
    size_t windowCount() const { return size_ - window_begin_; }

    /** @return largest sample (0 when empty). */
    double max() const { return size_ ? max_ : 0.0; }
    /** @return largest sample of the window (0 when empty). */
    double windowMax() const { return windowCount() ? window_max_ : 0.0; }

    /** Every sample, with its counts. */
    CountedSpan all() const;
    /** The window's samples, with their counts. */
    CountedSpan window() const;

    /**
     * Call fn(begin, end) on each contiguous run of the samples at
     * positions [first, last), in insertion order.
     */
    template <class Fn>
    void
    forEachRun(size_t first, size_t last, Fn&& fn) const
    {
        while (first < last) {
            const size_t at = first % kBlockSamples;
            const size_t n = std::min(last - first, kBlockSamples - at);
            const double* run = blocks_[first / kBlockSamples].get() + at;
            fn(run, run + n);
            first += n;
        }
    }

  private:
    std::vector<std::unique_ptr<double[]>> blocks_;  ///< insertion order
    size_t size_ = 0;
    std::vector<uint64_t> counts_;         ///< per bucket, every sample
    std::vector<uint64_t> window_counts_;  ///< per bucket, the window
    size_t window_begin_ = 0;
    double max_ = -std::numeric_limits<double>::infinity();
    double window_max_ = -std::numeric_limits<double>::infinity();
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
