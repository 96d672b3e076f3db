#include "sim/server_sim.h"

#include <algorithm>

#include "sim/server_instance.h"
#include "util/logging.h"
#include "util/rng.h"

namespace hercules::sim {

namespace {

/**
 * The run's queries at unit rate, drawn once per workload: the memo is
 * redrawn only when an input of the draw differs from the last one.
 */
const std::vector<workload::UnitQuery>&
probeStream(const PreparedWorkload& w, const SimOptions& opt)
{
    ProbeStreamMemo& memo = w.probe_stream;
    if (memo.filled && memo.seed == opt.seed &&
        memo.num_queries == opt.num_queries &&
        memo.sizes.median == opt.sizes.median &&
        memo.sizes.sigma == opt.sizes.sigma &&
        memo.sizes.min_size == opt.sizes.min_size &&
        memo.sizes.max_size == opt.sizes.max_size &&
        memo.pooling.sigma == opt.pooling.sigma)
        return memo.queries;
    memo.seed = opt.seed;
    memo.num_queries = opt.num_queries;
    memo.sizes = opt.sizes;
    memo.pooling = opt.pooling;
    memo.queries.clear();
    memo.queries.reserve(static_cast<size_t>(std::max(opt.num_queries, 0)));
    Rng rng(opt.seed);
    for (int i = 0; i < opt.num_queries; ++i)
        memo.queries.push_back(
            workload::drawUnitQuery(rng, opt.sizes, opt.pooling));
    memo.filled = true;
    return memo.queries;
}

}  // namespace

/*
 * The one-shot entry point is a thin wrapper over the steppable
 * ServerInstance: build the arrival stream, inject every query up
 * front, then run to completion. The stream is the workload's unit-rate draw (probe_stream),
 * scaled here: arrival += gap / rate gives the doubles a
 * QueryGenerator at that rate would, so a measurement's probes share
 * one draw. The arrivals wait on the event queue's sorted arrival lane,
 * not in its heap, so the heap holds only the work in flight; the lane
 * shares the heap's (time, scheduling order) ordering, so events fire
 * in the order one heap holding every arrival would give. Every run on
 * one PreparedWorkload shares its memos: the stream, the CPU service
 * timings and the GPU kernel latencies (a measurement's saturation and
 * load probes).
 */
ServerSimResult
simulateServer(const PreparedWorkload& w, const SimOptions& opt)
{
    if (opt.num_queries <= opt.warmup_queries)
        fatal("simulateServer: num_queries (%d) must exceed warmup (%d)",
              opt.num_queries, opt.warmup_queries);
    if (!opt.saturate && opt.offered_qps <= 0.0)
        fatal("simulateServer: non-positive rate %f", opt.offered_qps);
    ServerInstance inst(w, opt);
    workload::Query q;
    double clock_s = 0.0;
    for (const workload::UnitQuery& u : probeStream(w, opt)) {
        // A capacity probe has everything arrive at t=0.
        if (!opt.saturate) {
            clock_s += u.gap / opt.offered_qps;
            q.arrival_s = clock_s;
        }
        q.size = u.size;
        q.pooling_scale = u.pooling_scale;
        inst.inject(q);
    }
    inst.drain();
    return inst.finalize();
}

ServerSimResult
simulateServer(const hw::ServerSpec& server, const model::Model& m,
               const SchedulingConfig& cfg, const SimOptions& opt)
{
    PreparedWorkload w = prepare(server, m, cfg);
    return simulateServer(w, opt);
}

}  // namespace hercules::sim
