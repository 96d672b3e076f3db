#include "obs/trace.h"

#include "util/json.h"

namespace hercules::obs {

const char*
traceOutcomeName(TraceOutcome outcome)
{
    switch (outcome) {
      case TraceOutcome::InFlight:
        return "in_flight";
      case TraceOutcome::Completed:
        return "completed";
      case TraceOutcome::Dropped:
        return "dropped";
      case TraceOutcome::Rejected:
        return "rejected";
      case TraceOutcome::Killed:
        return "killed";
    }
    return "?";
}

bool
traceSampled(uint64_t id, double sample_rate)
{
    if (sample_rate >= 1.0)
        return true;
    if (sample_rate <= 0.0)
        return false;
    // SplitMix64 finalizer: maps the arrival sequence to a uniform
    // 64-bit hash, compared against the rate as a fixed threshold.
    uint64_t z = id + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z = z ^ (z >> 31);
    // 53-bit mantissa fraction in [0, 1).
    double u = static_cast<double>(z >> 11) * 0x1.0p-53;
    return u < sample_rate;
}

void
writeTraceJsonl(util::JsonWriter& w, const std::vector<TraceRecord>& records)
{
    for (const TraceRecord& r : records) {
        w.beginObject(util::JsonWriter::Inline);
        w.key("id").integer(r.id);
        w.key("service").integer(r.service);
        w.key("outcome").str(traceOutcomeName(r.outcome));
        w.key("shard");
        r.shard >= 0 ? w.integer(r.shard) : w.null();
        w.key("retry_hops").integer(r.retry_hops);
        w.key("arrival_s").fixed(r.arrival_s, 6);
        // Null marks a stage the query never reached.
        auto stage = [&](const char* key, bool reached, double v) {
            w.key(key);
            reached ? w.fixed(v, 6) : w.null();
        };
        stage("queue_wait_ms", r.queue_wait_ms >= 0.0, r.queue_wait_ms);
        stage("service_start_s", r.service_start_s >= 0.0,
              r.service_start_s);
        stage("finish_s", r.finish_s >= 0.0, r.finish_s);
        stage("latency_ms", r.finish_s >= 0.0, r.latencyMs());
        w.endObject();
    }
}

}  // namespace hercules::obs
