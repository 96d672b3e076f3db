/**
 * @file
 * Output checks of the scenario benchmark: a digest of every simulated
 * statistic (so a speedup can be shown bit-identical) and the
 * conservation and range invariants every scenario run must satisfy.
 */
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "cluster/serving.h"
#include "core/efficiency_table.h"

namespace perfbench {

/** FNV-1a over the exact bits of the values fed to it. */
class Digest
{
  public:
    void
    u(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xffu;
            h_ *= 0x100000001b3ULL;
        }
    }

    void
    f(double d)
    {
        uint64_t bits = 0;
        std::memcpy(&bits, &d, sizeof bits);
        u(bits);
    }

    void
    s(const std::string& str)
    {
        u(str.size());
        for (unsigned char c : str)
            u(c);
    }

    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 0xcbf29ce484222325ULL;
};

/** Digest of an efficiency table: every tuple and winning config. */
inline uint64_t
tableDigest(const hercules::core::EfficiencyTable& table)
{
    Digest d;
    for (const hercules::core::EfficiencyEntry& e : table.entries()) {
        d.u(static_cast<uint64_t>(e.server));
        d.u(static_cast<uint64_t>(e.model));
        d.u(e.feasible);
        d.f(e.qps);
        d.f(e.power_w);
        d.f(e.avg_power_w);
        d.f(e.qps_per_watt);
        const hercules::sched::SchedulingConfig& c = e.config;
        d.u(static_cast<uint64_t>(c.mapping));
        for (int v : {c.cpu_threads, c.cores_per_thread, c.dense_threads,
                      c.batch, c.gpu_threads, c.fusion_limit})
            d.u(static_cast<uint64_t>(v));
        d.u(c.fuse_elementwise);
    }
    return d.value();
}

/**
 * Digest of a serving outcome: aggregates, per-service and per-interval
 * statistics, health transitions and the deterministic DES counts. Wall
 * timings (DesProfile::*_wall_ms, events_per_sec) are left out.
 */
inline uint64_t
serveDigest(const hercules::cluster::MultiServeResult& r)
{
    namespace sim = hercules::sim;
    Digest d;
    d.f(r.estimated_r);
    for (double v : r.service_r)
        d.f(v);
    d.u(r.trace_queries);
    d.u(static_cast<uint64_t>(r.reprovisions));
    d.u(static_cast<uint64_t>(r.shard_slots));
    for (double v : r.service_capacity_qps)
        d.f(v);
    for (double v : r.service_sla_ms)
        d.f(v);

    const sim::ClusterSimResult& c = r.sim;
    for (const sim::IntervalStats& iv : c.intervals) {
        d.f(iv.t0_s);
        d.f(iv.t1_s);
        for (size_t v : {iv.arrivals, iv.completions, iv.dropped,
                         iv.rejected, iv.failed_inflight,
                         iv.sla_violations})
            d.u(v);
        for (double v : {iv.offered_qps, iv.p50_ms, iv.p99_ms, iv.max_ms,
                         iv.sla_violation_rate, iv.consumed_power_w,
                         iv.provisioned_power_w, iv.budget_power_w})
            d.f(v);
        d.u(static_cast<uint64_t>(iv.active_shards));
        d.u(iv.power_capped);
        for (const sim::ServiceIntervalStats& sv : iv.services) {
            for (size_t v : {sv.arrivals, sv.completions, sv.dropped,
                             sv.rejected, sv.failed_inflight,
                             sv.sla_violations})
                d.u(v);
            for (double v : {sv.p50_ms, sv.p99_ms, sv.sla_violation_rate})
                d.f(v);
            d.u(static_cast<uint64_t>(sv.active_shards));
        }
    }
    for (size_t v : {c.injected, c.completed, c.dropped, c.rejected,
                     c.failed_inflight, c.admission_retries,
                     c.sla_violations})
        d.u(v);
    for (double v : {c.mean_ms, c.p50_ms, c.p95_ms, c.p99_ms, c.max_ms,
                     c.sla_violation_rate, c.avg_consumed_power_w,
                     c.peak_consumed_power_w, c.avg_provisioned_power_w,
                     c.peak_provisioned_power_w})
        d.f(v);
    for (const sim::ServiceRunStats& sv : c.services) {
        for (size_t v : {sv.injected, sv.completed, sv.dropped,
                         sv.rejected, sv.failed_inflight, sv.sla_violations})
            d.u(v);
        for (double v : {sv.p50_ms, sv.p99_ms, sv.max_ms, sv.sla_ms,
                         sv.sla_violation_rate})
            d.f(v);
    }
    for (const sim::HealthTransition& ht : c.health_transitions) {
        d.f(ht.t_s);
        d.u(static_cast<uint64_t>(ht.shard));
        d.u(static_cast<uint64_t>(ht.service));
        d.u(static_cast<uint64_t>(ht.from));
        d.u(static_cast<uint64_t>(ht.to));
        d.f(ht.slowdown);
        d.u(ht.killed_inflight);
    }
    d.u(c.des.events_executed);
    d.u(c.des.peak_event_queue_depth);
    return d.value();
}

/**
 * The invariants every drained run satisfies. Per service, every
 * injected query either completed or was killed by a crash; across
 * services, every trace arrival was injected, dropped or rejected.
 * Violation rates lie in [0, 1] and power is never negative.
 * @return one message per violated invariant (empty = all hold).
 */
inline std::vector<std::string>
checkInvariants(const hercules::cluster::MultiServeResult& r)
{
    namespace sim = hercules::sim;
    std::vector<std::string> bad;
    auto rate = [&](double v, const std::string& what) {
        if (!(v >= 0.0 && v <= 1.0))
            bad.push_back(what + " violation rate " + std::to_string(v) +
                          " outside [0, 1]");
    };
    auto power = [&](double v, const std::string& what) {
        if (!(v >= 0.0))
            bad.push_back(what + " power " + std::to_string(v) + " < 0");
    };

    const sim::ClusterSimResult& c = r.sim;
    size_t injected = 0, completed = 0, dropped = 0, rejected = 0,
           killed = 0;
    for (size_t s = 0; s < c.services.size(); ++s) {
        const sim::ServiceRunStats& sv = c.services[s];
        const std::string who = "service " + std::to_string(s);
        if (sv.injected != sv.completed + sv.failed_inflight)
            bad.push_back(who + ": injected " +
                          std::to_string(sv.injected) + " != completed " +
                          std::to_string(sv.completed) + " + killed " +
                          std::to_string(sv.failed_inflight));
        rate(sv.sla_violation_rate, who);
        injected += sv.injected;
        completed += sv.completed;
        dropped += sv.dropped;
        rejected += sv.rejected;
        killed += sv.failed_inflight;
    }
    if (injected + dropped + rejected != r.trace_queries)
        bad.push_back("injected + dropped + rejected = " +
                      std::to_string(injected + dropped + rejected) +
                      " != trace_queries " +
                      std::to_string(r.trace_queries));
    if (injected != c.injected || completed != c.completed ||
        dropped != c.dropped || rejected != c.rejected ||
        killed != c.failed_inflight)
        bad.push_back("service totals differ from the cluster totals");
    rate(c.sla_violation_rate, "cluster");
    for (double v : {c.avg_consumed_power_w, c.peak_consumed_power_w,
                     c.avg_provisioned_power_w, c.peak_provisioned_power_w})
        power(v, "cluster");
    for (size_t i = 0; i < c.intervals.size(); ++i) {
        const sim::IntervalStats& iv = c.intervals[i];
        const std::string who = "interval " + std::to_string(i);
        rate(iv.sla_violation_rate, who);
        power(iv.consumed_power_w, who + " consumed");
        power(iv.provisioned_power_w, who + " provisioned");
        for (size_t s = 0; s < iv.services.size(); ++s)
            rate(iv.services[s].sla_violation_rate,
                 who + " service " + std::to_string(s));
    }
    return bad;
}

}  // namespace perfbench
