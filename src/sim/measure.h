/**
 * @file
 * Latency-bounded throughput measurement (DeepRecSys methodology): the
 * maximum Poisson arrival rate whose tail latency meets the SLA target
 * — and, during online serving, whose peak power stays within the
 * provisioned budget. Found by a saturation probe followed by bisection
 * over the offered load.
 */
#pragma once

#include <limits>
#include <optional>

#include "sim/server_sim.h"

namespace hercules::sim {

/** Options controlling a latency-bounded measurement. */
struct MeasureOptions
{
    SimOptions sim{};  ///< per-probe simulation options (rate overridden)
    /** Peak-power feasibility bound (W); infinity = unconstrained. */
    double power_budget_w = std::numeric_limits<double>::infinity();
    int bisect_iters = 6;  ///< bisection refinement steps
};

/** The chosen operating point of a feasible configuration. */
struct OperatingPoint
{
    double qps = 0.0;          ///< latency-bounded throughput
    ServerSimResult result{};  ///< full measurements at that load
    double capacity = 0.0;     ///< saturation capacity of the config
    double bracket_lo = 0.0;   ///< final bisection bracket, low side
    double bracket_hi = 0.0;   ///< final bisection bracket, high side
    int sims = 0;              ///< simulator runs consumed (incl. probe)
};

/**
 * Saturation capacity (QPS) of a configuration: throughput with every
 * query available at time zero.
 */
double saturationQps(const PreparedWorkload& w, const SimOptions& opt);

/**
 * Measure the latency-bounded (and power-bounded) throughput: one
 * saturation probe fixes the capacity, then `bisect_iters` probes
 * bisect the offered load over [0, 1.05 × capacity], each at the
 * bracket's mid-point and each a full run that drains its backlog.
 * When none is feasible, one light-load probe at 2% of capacity is the
 * last try.
 *
 * @return the operating point, or std::nullopt when no load level
 * meets the SLA/power constraints (the configuration is infeasible).
 */
std::optional<OperatingPoint> measureLatencyBoundedQps(
    const PreparedWorkload& w, double sla_ms, const MeasureOptions& opt);

/** Convenience overload: prepare + measure. */
std::optional<OperatingPoint> measureLatencyBoundedQps(
    const hw::ServerSpec& server, const model::Model& m,
    const SchedulingConfig& cfg, double sla_ms,
    const MeasureOptions& opt);

}  // namespace hercules::sim
