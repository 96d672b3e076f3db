#include "sim/measure.h"

#include "util/logging.h"

namespace hercules::sim {

double
saturationQps(const PreparedWorkload& w, const SimOptions& opt)
{
    SimOptions sat = opt;
    sat.saturate = true;
    ServerSimResult r = simulateServer(w, sat);
    return r.achieved_qps;
}

namespace {

/** The bisection's upper bracket, as a fraction of the capacity. */
constexpr double kHiFactor = 1.05;

bool
feasible(const ServerSimResult& r, double offered, double sla_ms,
         double power_budget_w)
{
    if (r.tail_ms > sla_ms)
        return false;
    if (r.peak_power_w > power_budget_w)
        return false;
    // The system must actually keep up with the offered load (a backlog
    // that drains only because the run is finite is not a valid
    // operating point).
    return r.achieved_qps >= 0.90 * offered;
}

}  // namespace

std::optional<OperatingPoint>
measureLatencyBoundedQps(const PreparedWorkload& w, double sla_ms,
                         const MeasureOptions& opt)
{
    if (sla_ms <= 0.0)
        fatal("measureLatencyBoundedQps: non-positive SLA %f", sla_ms);

    double capacity = saturationQps(w, opt.sim);
    int sims = 1;
    if (capacity <= 0.0)
        return std::nullopt;

    double lo = 0.0;
    double hi = capacity * kHiFactor;
    std::optional<OperatingPoint> best;

    auto probeAt = [&](double load) {
        SimOptions probe = opt.sim;
        probe.offered_qps = load;
        probe.saturate = false;
        ++sims;
        return simulateServer(w, probe);
    };

    for (int it = 0; it < opt.bisect_iters; ++it) {
        double mid = 0.5 * (lo + hi);
        if (mid <= 0.0)
            break;
        ServerSimResult r = probeAt(mid);
        if (feasible(r, mid, sla_ms, opt.power_budget_w)) {
            best = OperatingPoint{r.achieved_qps, r, capacity, lo, hi, 0};
            lo = mid;
        } else {
            hi = mid;
        }
    }

    if (!best) {
        // The bracket may have skipped a small feasible region near the
        // origin; probe a light load before declaring infeasibility.
        double light = capacity * 0.02;
        if (light > 0.0) {
            ServerSimResult r = probeAt(light);
            if (feasible(r, light, sla_ms, opt.power_budget_w))
                best =
                    OperatingPoint{r.achieved_qps, r, capacity, lo, hi, 0};
        }
    }
    if (best) {
        best->capacity = capacity;
        best->bracket_lo = lo;
        best->bracket_hi = hi;
        best->sims = sims;
    }
    return best;
}

std::optional<OperatingPoint>
measureLatencyBoundedQps(const hw::ServerSpec& server,
                         const model::Model& m,
                         const sched::SchedulingConfig& cfg, double sla_ms,
                         const MeasureOptions& opt)
{
    PreparedWorkload w = prepare(server, m, cfg);
    return measureLatencyBoundedQps(w, sla_ms, opt);
}

}  // namespace hercules::sim
