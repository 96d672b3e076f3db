#include "sim/server_sim.h"

#include "sim/server_instance.h"
#include "util/logging.h"

namespace hercules::sim {

/*
 * The one-shot entry point is a thin wrapper over the steppable
 * ServerInstance: generate the arrival stream, inject every query up
 * front, then run to completion — or until the early-abort predicate
 * fires. The arrivals wait on the event queue's sorted arrival lane,
 * not in its heap, so the heap holds only the work in flight; the lane
 * shares the heap's (time, scheduling order) ordering, so events fire
 * in the order one heap holding every arrival would give. Every run on
 * one PreparedWorkload shares its CPU service memo (a measurement's
 * saturation and load probes).
 */
ServerSimResult
simulateServer(const PreparedWorkload& w, const SimOptions& opt)
{
    if (opt.num_queries <= opt.warmup_queries)
        fatal("simulateServer: num_queries (%d) must exceed warmup (%d)",
              opt.num_queries, opt.warmup_queries);
    ServerInstance inst(w, opt);
    double rate = opt.saturate ? 1e9 : opt.offered_qps;
    workload::QueryGenerator gen(rate, opt.seed, opt.sizes, opt.pooling);
    for (int i = 0; i < opt.num_queries; ++i) {
        workload::Query q = gen.next();
        if (opt.saturate)
            q.arrival_s = 0.0;  // capacity probe: everything at t=0
        inst.inject(q);
    }

    if (opt.abort_tail_ms > 0.0 && !opt.saturate) {
        while (inst.hasPending()) {
            inst.step();
            if (inst.abortTriggered()) {
                inst.markAborted();
                break;
            }
        }
    } else {
        inst.drain();
    }
    return inst.finalize();
}

ServerSimResult
simulateServer(const hw::ServerSpec& server, const model::Model& m,
               const sched::SchedulingConfig& cfg, const SimOptions& opt)
{
    PreparedWorkload w = prepare(server, m, cfg);
    return simulateServer(w, opt);
}

}  // namespace hercules::sim
