#include "obs/telemetry.h"

#include "util/json.h"
#include "util/logging.h"
#include "util/thread_annotations.h"

namespace hercules::obs {

namespace {

std::string
shardName(int shard, const char* leaf)
{
    return "shard." + std::to_string(shard) + "." + leaf;
}

std::string
svcName(int svc, const char* leaf)
{
    return "svc." + std::to_string(svc) + "." + leaf;
}

}  // namespace

Telemetry::Telemetry(const ObsSpec& spec) : spec_(spec)
{
    c_arrivals_ = metrics_.counter("cluster.arrivals");
    c_completions_ = metrics_.counter("cluster.completions");
    c_dropped_ = metrics_.counter("cluster.dropped");
    c_rejected_ = metrics_.counter("cluster.rejected");
    c_failed_inflight_ = metrics_.counter("cluster.failed_inflight");
    c_retries_ = metrics_.counter("cluster.admission_retries");
    g_active_shards_ = metrics_.gauge("cluster.active_shards");
    g_consumed_w_ = metrics_.gauge("cluster.consumed_power_w");
    g_provisioned_w_ = metrics_.gauge("cluster.provisioned_power_w");
}

Telemetry::ShardIds&
Telemetry::shardIds(int shard)
{
    if (shard < 0)
        panic("Telemetry: negative shard id %d", shard);
    if (static_cast<size_t>(shard) >= shards_.size())
        shards_.resize(shard + 1);
    ShardIds& s = shards_[shard];
    if (s.injected < 0) {
        s.injected = metrics_.counter(shardName(shard, "injected"));
        s.queue_depth = metrics_.gauge(shardName(shard, "queue_depth"));
        s.health = metrics_.gauge(shardName(shard, "health"));
    }
    return s;
}

Telemetry::ServiceIds&
Telemetry::serviceIds(int svc)
{
    if (svc < 0)
        panic("Telemetry: negative service id %d", svc);
    if (static_cast<size_t>(svc) >= services_.size())
        services_.resize(svc + 1);
    ServiceIds& s = services_[svc];
    if (s.arrivals < 0) {
        s.arrivals = metrics_.counter(svcName(svc, "arrivals"));
        s.completions = metrics_.counter(svcName(svc, "completions"));
        s.dropped = metrics_.counter(svcName(svc, "dropped"));
        s.rejected = metrics_.counter(svcName(svc, "rejected"));
        s.p50 = metrics_.gauge(svcName(svc, "p50_ms"));
        s.p99 = metrics_.gauge(svcName(svc, "p99_ms"));
        s.viol = metrics_.gauge(svcName(svc, "sla_violation_rate"));
        s.h_wait = metrics_.histogram(svcName(svc, "queue_wait_ms"));
        s.h_service = metrics_.histogram(svcName(svc, "service_ms"));
        s.h_latency = metrics_.histogram(svcName(svc, "latency_ms"));
    }
    return s;
}

void
Telemetry::declareService(int svc)
{
    util::MutexLock lock(mu_);
    serviceIds(svc);
}

void
Telemetry::declareShard(int shard, int svc)
{
    util::MutexLock lock(mu_);
    shardIds(shard).svc = svc;
    serviceIds(svc);
}

size_t
Telemetry::newRecord(int svc, double t_s, TraceOutcome outcome)
{
    uint64_t id = arrival_seq_++;
    if (!spec_.tracing() || !traceSampled(id, spec_.sample_rate))
        return SIZE_MAX;
    TraceRecord r;
    r.id = id;
    r.service = svc;
    r.arrival_s = t_s;
    r.outcome = outcome;
    records_.push_back(r);
    return records_.size() - 1;
}

void
Telemetry::onDropped(int svc, double t_s)
{
    util::MutexLock lock(mu_);
    metrics_.add(c_arrivals_, 1);
    metrics_.add(c_dropped_, 1);
    ServiceIds& s = serviceIds(svc);
    metrics_.add(s.arrivals, 1);
    metrics_.add(s.dropped, 1);
    size_t ri = newRecord(svc, t_s, TraceOutcome::Dropped);
    if (ri != SIZE_MAX)
        records_[ri].finish_s = t_s;
}

void
Telemetry::onRejected(int svc, double t_s)
{
    util::MutexLock lock(mu_);
    metrics_.add(c_arrivals_, 1);
    metrics_.add(c_rejected_, 1);
    ServiceIds& s = serviceIds(svc);
    metrics_.add(s.arrivals, 1);
    metrics_.add(s.rejected, 1);
    size_t ri = newRecord(svc, t_s, TraceOutcome::Rejected);
    if (ri != SIZE_MAX)
        records_[ri].finish_s = t_s;
}

void
Telemetry::onAdmitted(int svc, int shard, int retry_hops, int inject_idx,
                      double t_s)
{
    util::MutexLock lock(mu_);
    metrics_.add(c_arrivals_, 1);
    if (retry_hops > 0)
        metrics_.add(c_retries_, retry_hops);
    ServiceIds& s = serviceIds(svc);
    metrics_.add(s.arrivals, 1);
    ShardIds& sh = shardIds(shard);
    metrics_.add(sh.injected, 1);
    size_t ri = newRecord(svc, t_s, TraceOutcome::InFlight);
    if (inject_idx < 0)
        panic("Telemetry: negative inject index %d", inject_idx);
    if (ri != SIZE_MAX) {
        // Injection indices only grow, so this appends at the end.
        sh.open.emplace_hint(sh.open.end(), inject_idx, ri);
        records_[ri].shard = shard;
        records_[ri].retry_hops = retry_hops;
    }
}

void
Telemetry::drainShardCompletions(
    int shard, const std::vector<sim::ServerInstance::Completion>& log,
    double up_to_s)
{
    util::MutexLock lock(mu_);
    drainShardCompletionsLocked(shard, log, up_to_s);
}

void
Telemetry::drainShardCompletionsLocked(
    int shard, const std::vector<sim::ServerInstance::Completion>& log,
    double up_to_s)
{
    ShardIds& sh = shardIds(shard);
    while (sh.cursor < log.size() && log[sh.cursor].finish_s <= up_to_s) {
        const sim::ServerInstance::Completion& c = log[sh.cursor++];
        auto it = sh.open.find(c.query);
        if (it == sh.open.end())
            continue;  // not sampled
        TraceRecord& r = records_[it->second];
        sh.open.erase(it);
        r.outcome = TraceOutcome::Completed;
        r.queue_wait_ms = c.queue_wait_s * 1e3;
        r.service_start_s = c.arrival_s + c.queue_wait_s;
        r.finish_s = c.finish_s;
    }
}

void
Telemetry::rebaseShardCompletions(int shard, size_t n)
{
    util::MutexLock lock(mu_);
    ShardIds& sh = shardIds(shard);
    if (sh.cursor < n)
        panic("Telemetry: shard %d dropped %zu completions, %zu drained",
              shard, n, sh.cursor);
    sh.cursor -= n;
}

void
Telemetry::onCrash(int shard,
                   const std::vector<sim::ServerInstance::Completion>& log,
                   double t_s, size_t killed)
{
    addFailedInflight(killed);
    util::MutexLock lock(mu_);
    // Completions the harvest loop had not consumed yet still finished
    // *before* the crash — close them normally first, then everything
    // left open on this shard died with it.
    drainShardCompletionsLocked(shard, log, t_s);
    ShardIds& sh = shardIds(shard);
    for (const auto& span : sh.open) {
        TraceRecord& r = records_[span.second];
        r.outcome = TraceOutcome::Killed;
        r.finish_s = t_s;
    }
    sh.open.clear();
}

void
Telemetry::observeCompletion(int svc, double queue_wait_ms, double service_ms,
                             double latency_ms)
{
    util::MutexLock lock(mu_);
    metrics_.add(c_completions_, 1);
    ServiceIds& s = serviceIds(svc);
    metrics_.add(s.completions, 1);
    metrics_.observe(s.h_wait, queue_wait_ms);
    metrics_.observe(s.h_service, service_ms);
    metrics_.observe(s.h_latency, latency_ms);
}

void
Telemetry::setShardWindow(int shard, size_t queue_depth, int health)
{
    util::MutexLock lock(mu_);
    ShardIds& sh = shardIds(shard);
    metrics_.set(sh.queue_depth, static_cast<double>(queue_depth));
    metrics_.set(sh.health, health);
}

void
Telemetry::setServiceWindow(int svc, double p50_ms, double p99_ms,
                            double sla_violation_rate)
{
    util::MutexLock lock(mu_);
    ServiceIds& s = serviceIds(svc);
    metrics_.set(s.p50, p50_ms);
    metrics_.set(s.p99, p99_ms);
    metrics_.set(s.viol, sla_violation_rate);
}

void
Telemetry::setClusterWindow(int active_shards, double consumed_power_w,
                            double provisioned_power_w)
{
    metrics_.set(g_active_shards_, active_shards);
    metrics_.set(g_consumed_w_, consumed_power_w);
    metrics_.set(g_provisioned_w_, provisioned_power_w);
}

void
Telemetry::commitSample(double t_s)
{
    metrics_.sample(t_s);
}

void
Telemetry::addFailedInflight(size_t killed)
{
    if (killed)
        metrics_.add(c_failed_inflight_, static_cast<double>(killed));
}

bool
Telemetry::writeTraceFile() const
{
    if (spec_.trace_file.empty())
        return true;
    util::JsonWriter w(spec_.trace_file);
    {
        util::MutexLock lock(mu_);
        writeTraceJsonl(w, records_);
    }
    if (w.close())
        return true;
    warn("telemetry: cannot write '%s'", spec_.trace_file.c_str());
    return false;
}

bool
Telemetry::writeMetricsFile() const
{
    if (spec_.metrics_file.empty())
        return true;
    return metrics_.writeFile(spec_.metrics_file);
}

}  // namespace hercules::obs
