#include "obs/metrics.h"

#include <cmath>

#include "util/json.h"
#include "util/logging.h"

namespace hercules::obs {

namespace {

/**
 * Deterministic human-friendly number formatting: integral values print
 * without a fraction, everything else with six decimals.
 */
int
decimalsOf(double v)
{
    return std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15
               ? 0
               : 6;
}

std::string
fmtNum(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f", decimalsOf(v), v);
    return buf;
}

}  // namespace

const char*
metricKindName(MetricKind kind)
{
    switch (kind) {
      case MetricKind::Counter:
        return "counter";
      case MetricKind::Gauge:
        return "gauge";
      case MetricKind::Histogram:
        return "histogram";
    }
    return "?";
}

const std::vector<double>&
MetricsRegistry::bucketBounds()
{
    // 0.01 ms doubling 24 times tops out at ~1.4e5 ms (2.3 simulated
    // minutes) — generous for any latency this stack produces; the
    // implicit +Inf bucket catches the rest.
    static const std::vector<double> kBounds = [] {
        std::vector<double> b;
        double v = 0.01;
        for (int i = 0; i < 24; ++i, v *= 2.0)
            b.push_back(v);
        return b;
    }();
    return kBounds;
}

int
MetricsRegistry::declareMetric(MetricKind kind, const std::string& name)
{
    util::MutexLock lock(mu_);
    auto it = index_.find(name);
    if (it != index_.end()) {
        if (metrics_[it->second].kind != kind)
            panic("MetricsRegistry: '%s' re-declared as %s (was %s)",
                  name.c_str(), metricKindName(kind),
                  metricKindName(metrics_[it->second].kind));
        return it->second;
    }
    Metric m;
    m.name = name;
    m.kind = kind;
    if (kind == MetricKind::Histogram)
        m.buckets.assign(bucketBounds().size() + 1, 0);  // +Inf at end
    // Late declarations (e.g. a shard added mid-run) back-fill their
    // series with zeros so every series stays sample-aligned.
    m.series.assign(kind == MetricKind::Histogram ? 0 : sample_times_.size(),
                    0.0);
    int id = static_cast<int>(metrics_.size());
    metrics_.push_back(std::move(m));
    index_.emplace(name, id);
    return id;
}

int
MetricsRegistry::counter(const std::string& name)
{
    return declareMetric(MetricKind::Counter, name);
}

int
MetricsRegistry::gauge(const std::string& name)
{
    return declareMetric(MetricKind::Gauge, name);
}

int
MetricsRegistry::histogram(const std::string& name)
{
    return declareMetric(MetricKind::Histogram, name);
}

const MetricsRegistry::Metric&
MetricsRegistry::at(int id) const
{
    if (id < 0 || static_cast<size_t>(id) >= metrics_.size())
        panic("MetricsRegistry: bad metric id %d", id);
    return metrics_[id];
}

MetricsRegistry::Metric&
MetricsRegistry::at(int id)
{
    return const_cast<Metric&>(
        static_cast<const MetricsRegistry*>(this)->at(id));
}

void
MetricsRegistry::add(int id, double delta)
{
    util::MutexLock lock(mu_);
    Metric& m = at(id);
    if (m.kind != MetricKind::Counter)
        panic("MetricsRegistry: add() on non-counter '%s'", m.name.c_str());
    m.value += delta;
}

void
MetricsRegistry::set(int id, double value)
{
    util::MutexLock lock(mu_);
    Metric& m = at(id);
    if (m.kind != MetricKind::Gauge)
        panic("MetricsRegistry: set() on non-gauge '%s'", m.name.c_str());
    m.value = value;
}

void
MetricsRegistry::observe(int id, double value)
{
    util::MutexLock lock(mu_);
    Metric& m = at(id);
    if (m.kind != MetricKind::Histogram)
        panic("MetricsRegistry: observe() on non-histogram '%s'",
              m.name.c_str());
    const std::vector<double>& bounds = bucketBounds();
    size_t b = 0;
    while (b < bounds.size() && value > bounds[b])
        ++b;
    ++m.buckets[b];
    if (m.count == 0) {
        m.min = value;
        m.max = value;
    } else {
        if (value < m.min)
            m.min = value;
        if (value > m.max)
            m.max = value;
    }
    ++m.count;
    m.sum += value;
}

double
MetricsRegistry::value(int id) const
{
    util::MutexLock lock(mu_);
    return at(id).value;
}

void
MetricsRegistry::sample(double t_s)
{
    util::MutexLock lock(mu_);
    sample_times_.push_back(t_s);
    for (Metric& m : metrics_)
        if (m.kind != MetricKind::Histogram)
            m.series.push_back(m.value);
}

const std::string&
MetricsRegistry::name(int id) const
{
    util::MutexLock lock(mu_);
    return at(id).name;
}

MetricKind
MetricsRegistry::kind(int id) const
{
    util::MutexLock lock(mu_);
    return at(id).kind;
}

const std::vector<double>&
MetricsRegistry::series(int id) const
{
    util::MutexLock lock(mu_);
    return at(id).series;
}

const std::vector<uint64_t>&
MetricsRegistry::bucketCounts(int id) const
{
    util::MutexLock lock(mu_);
    return at(id).buckets;
}

uint64_t
MetricsRegistry::histogramCount(int id) const
{
    util::MutexLock lock(mu_);
    return at(id).count;
}

double
MetricsRegistry::histogramSum(int id) const
{
    util::MutexLock lock(mu_);
    return at(id).sum;
}

void
MetricsRegistry::writePrometheusLocked(std::FILE* f) const
{
    const std::vector<double>& bounds = bucketBounds();
    for (const Metric& m : metrics_) {
        std::fprintf(f, "# TYPE %s %s\n", m.name.c_str(),
                     metricKindName(m.kind));
        if (m.kind != MetricKind::Histogram) {
            std::fprintf(f, "%s %s\n", m.name.c_str(),
                         fmtNum(m.value).c_str());
            continue;
        }
        uint64_t cum = 0;
        for (size_t b = 0; b < m.buckets.size(); ++b) {
            cum += m.buckets[b];
            if (b < bounds.size())
                std::fprintf(f, "%s_bucket{le=\"%g\"} %llu\n",
                             m.name.c_str(), bounds[b],
                             static_cast<unsigned long long>(cum));
            else
                std::fprintf(f, "%s_bucket{le=\"+Inf\"} %llu\n",
                             m.name.c_str(),
                             static_cast<unsigned long long>(cum));
        }
        std::fprintf(f, "%s_sum %s\n", m.name.c_str(),
                     fmtNum(m.sum).c_str());
        std::fprintf(f, "%s_count %llu\n", m.name.c_str(),
                     static_cast<unsigned long long>(m.count));
    }
}

void
MetricsRegistry::writeCsvLocked(std::FILE* f) const
{
    // Long-form time series: histograms have no series and are omitted
    // (use the Prometheus or JSON export for distribution data).
    std::fprintf(f, "t_s,name,value\n");
    for (size_t s = 0; s < sample_times_.size(); ++s)
        for (const Metric& m : metrics_)
            if (m.kind != MetricKind::Histogram)
                std::fprintf(f, "%.6f,%s,%s\n", sample_times_[s],
                             m.name.c_str(), fmtNum(m.series[s]).c_str());
}

void
MetricsRegistry::writeJsonLocked(util::JsonWriter& w) const
{
    auto num = [&](const char* key, double v) {
        w.key(key).fixed(v, decimalsOf(v));
    };
    w.beginObject();
    w.key("sample_times_s").beginArray(util::JsonWriter::Inline);
    for (double t : sample_times_)
        w.fixed(t, 6);
    w.endArray();
    w.key("metrics").beginArray();
    for (const Metric& m : metrics_) {
        w.beginObject(util::JsonWriter::Inline);
        w.key("name").str(m.name);
        w.key("kind").str(metricKindName(m.kind));
        if (m.kind != MetricKind::Histogram) {
            num("value", m.value);
            w.key("series").beginArray();
            for (double v : m.series)
                w.fixed(v, decimalsOf(v));
            w.endArray();
        } else {
            w.key("count").integer(m.count);
            num("sum", m.sum);
            num("min", m.count ? m.min : 0.0);
            num("max", m.count ? m.max : 0.0);
            w.key("bounds").beginArray();
            for (double b : bucketBounds())
                w.general(b, 6);
            w.endArray();
            w.key("buckets").beginArray();
            for (uint64_t c : m.buckets)
                w.integer(c);
            w.endArray();
        }
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

bool
MetricsRegistry::writeFile(const std::string& path) const
{
    size_t dot = path.rfind('.');
    std::string ext = dot == std::string::npos ? "" : path.substr(dot);
    bool ok = false;
    util::MutexLock lock(mu_);
    if (ext == ".json") {
        util::JsonWriter w(path);
        writeJsonLocked(w);
        ok = w.close();
    } else {
        std::FILE* f = std::fopen(path.c_str(), "w");
        if (f != nullptr && ext == ".csv")
            writeCsvLocked(f);
        else if (f != nullptr)
            writePrometheusLocked(f);
        ok = util::closeFile(f);
    }
    if (!ok)
        warn("metrics: cannot write '%s'", path.c_str());
    return ok;
}

}  // namespace hercules::obs
