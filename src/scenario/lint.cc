#include "scenario/lint.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "hw/power.h"
#include "hw/server.h"
#include "model/model_zoo.h"
#include "scenario/spec_io.h"

namespace hercules::scenario {

namespace {

/** Collects diagnostics; every check funnels through error()/warning(). */
class Linter
{
  public:
    Linter(const ScenarioSpec& spec, const core::EfficiencyTable* table)
        : spec_(spec), table_(table)
    {
    }

    std::vector<Diagnostic>
    run()
    {
        out_ = rangeDiagnostics(spec_);
        checkFleet();
        checkPowerCap();
        checkServices();
        checkAdmission();
        checkFaults();
        checkObservability();
        checkPeakDemand();
        return std::move(out_);
    }

  private:
    void
    emit(const char* code, Severity sev, std::string path,
         std::string message)
    {
        out_.push_back(Diagnostic{code, sev, std::move(message),
                                  std::move(path)});
    }

    void
    error(const char* code, std::string path, std::string message)
    {
        emit(code, Severity::Error, std::move(path),
             std::move(message));
    }

    void
    warning(const char* code, std::string path, std::string message)
    {
        emit(code, Severity::Warning, std::move(path),
             std::move(message));
    }

    static std::string
    num(double v)
    {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%g", v);
        return buf;
    }

    /** Idle draw (W) of the cheapest-to-idle fleet type with slots. */
    double
    cheapestIdleW(hw::ServerType* which) const
    {
        double best = std::numeric_limits<double>::infinity();
        for (const FleetEntry& e : spec_.fleet) {
            if (e.shard_slots <= 0)
                continue;
            double idle =
                hw::PowerModel(hw::serverSpec(e.type)).idlePowerW();
            if (idle < best) {
                best = idle;
                if (which != nullptr)
                    *which = e.type;
            }
        }
        return best;
    }

    // ---- checks ----------------------------------------------------------

    void
    checkFleet()
    {
        if (spec_.fleet.empty()) {
            error("E101", "fleet",
                  "empty fleet: the scenario has no servers to "
                  "provision");
        }
        for (size_t i = 0; i < spec_.fleet.size(); ++i) {
            const FleetEntry& e = spec_.fleet[i];
            std::string path =
                "fleet[" + std::to_string(i) + "].slots";
            if (e.shard_slots < 0)
                error("E103", path,
                      std::string("negative shard slots (") +
                          std::to_string(e.shard_slots) + ") for " +
                          hw::serverTypeName(e.type));
            else if (e.shard_slots == 0)
                warning("W210", path,
                        std::string("fleet entry ") +
                            hw::serverTypeName(e.type) +
                            " has zero slots: it can never host a "
                            "shard (dead entry)");
        }
        if (spec_.services.empty())
            error("E102", "services",
                  "no services: the scenario has nothing to serve");
    }

    void
    checkPowerCap()
    {
        const auto& sched = spec_.serve.power_cap_schedule;
        for (size_t i = 0; i < sched.size(); ++i) {
            std::string path =
                "power_cap_schedule[" + std::to_string(i) + "]";
            if (sched[i].from_hour ==
                std::numeric_limits<double>::infinity())
                error("E105", path + ".from_hour",
                      "from_hour must be finite (got " +
                          num(sched[i].from_hour) + ")");
            else if (i > 0 &&
                     sched[i].from_hour < sched[i - 1].from_hour)
                error("E105", path,
                      "power_cap_schedule not sorted by from_hour (" +
                          num(sched[i].from_hour) + " after " +
                          num(sched[i - 1].from_hour) + ")");
        }
        // A cap out of range (E105, E114) or a schedule that is not a
        // timeline makes the derived checks below lie: skip them.
        caps_valid_ = std::none_of(
            out_.begin(), out_.end(), [](const Diagnostic& d) {
                return d.severity == Severity::Error &&
                       d.path.rfind("power_cap", 0) == 0;
            });
        if (!caps_valid_)
            return;

        hw::ServerType cheapest = hw::ServerType::T1;
        double idle_w = cheapestIdleW(&cheapest);
        auto below_idle = [&](double cap_w, const std::string& path) {
            if (std::isfinite(idle_w) && cap_w < idle_w)
                error("E106", path,
                      "power cap " + num(cap_w) +
                          " W is below the cheapest single-server "
                          "idle draw (" +
                          hw::serverTypeName(cheapest) + " idles at " +
                          num(idle_w) +
                          " W): every interval under this cap sheds "
                          "the whole fleet and serves nothing");
        };
        double scalar = spec_.serve.power_cap_w;
        if (std::isfinite(scalar))
            below_idle(scalar, "power_cap_w");
        double horizon = spec_.serve.horizon_hours;
        for (size_t i = 0; i < sched.size(); ++i) {
            std::string path =
                "power_cap_schedule[" + std::to_string(i) + "]";
            if (horizon > 0.0 && sched[i].from_hour >= horizon) {
                warning("W208", path,
                        "schedule point at hour " +
                            num(sched[i].from_hour) +
                            " starts at/after the " + num(horizon) +
                            "h horizon: dead segment");
                continue;
            }
            double effective = std::min(sched[i].cap_w, scalar);
            if (std::isfinite(effective))
                below_idle(effective, path + ".cap_w");
        }
    }

    void
    checkServices()
    {
        double horizon = spec_.serve.horizon_hours;
        double frac_sum = 0.0;
        bool any_frac = false;
        for (size_t i = 0; i < spec_.services.size(); ++i) {
            const ServiceScenario& s = spec_.services[i];
            std::string ctx = "services[" + std::to_string(i) + "]";
            const workload::DiurnalConfig& load = s.spec.load;
            if (load.surge_hours > 0.0 && load.surge_factor != 1.0 &&
                horizon > 0.0 && load.surge_hour >= horizon)
                warning("W201", ctx + ".surge_hour",
                        "surge window [" + num(load.surge_hour) +
                            "h, " +
                            num(load.surge_hour + load.surge_hours) +
                            "h) lies entirely outside the " +
                            num(horizon) + "h horizon: dead knob");
            if (s.peak_qps_frac > 0.0) {
                any_frac = true;
                frac_sum += s.peak_qps_frac;
            }
            const workload::QuerySizeDist& sz = s.spec.sizes;
            if (sz.min_size > sz.max_size)
                error("E115", ctx + ".size_min",
                      "size_min " + std::to_string(sz.min_size) +
                          " > size_max " + std::to_string(sz.max_size) +
                          ": no query size fits the clip range");
            if (table_ != nullptr)
                checkServiceFeasible(i, ctx);
        }
        if (any_frac && frac_sum > 1.0)
            warning("W206", "services",
                    "peak_qps_frac values sum to " + num(frac_sum) +
                        " > 1: at coincident peaks the services "
                        "demand more than the full fleet's capacity, "
                        "so provisioning can never fit");

        if (spec_.serve.router == sim::RouterPolicy::LatencyFeedback) {
            int slots = 0;
            for (const FleetEntry& e : spec_.fleet)
                slots += std::max(e.shard_slots, 0);
            if (slots == 1)
                warning("W205", "router",
                        "latency-feedback router over a single-shard "
                        "fleet is degenerate: with one shard per "
                        "service there is no alternative to shift "
                        "weight to");
        }
    }

    /** E130: with a table, a model no fleet type can serve is fatal. */
    void
    checkServiceFeasible(size_t i, const std::string& ctx)
    {
        const ServiceScenario& s = spec_.services[i];
        bool any_type = false, any_feasible = false;
        for (const FleetEntry& e : spec_.fleet) {
            const core::EfficiencyEntry* ent =
                table_->get(e.type, s.spec.model);
            if (ent == nullptr)
                continue;
            any_type = true;
            any_feasible = any_feasible || ent->feasible;
        }
        if (any_type && !any_feasible)
            error("E130", ctx + ".model",
                  std::string("model ") +
                      model::modelName(s.spec.model) +
                      " is infeasible on every fleet type in the "
                      "efficiency table: its SLA is tighter than the "
                      "hardware's minimum achievable latency, so no "
                      "shard can ever serve it");
    }

    void
    checkAdmission()
    {
        const qos::AdmissionConfig& a = spec_.serve.admission;
        if (a.policy == qos::AdmissionPolicy::Deadline &&
            a.deadline_slack > 1.0)
            warning("W207", "admission.deadline_slack",
                    "deadline_slack " + num(a.deadline_slack) +
                        " > 1 makes the admission deadline looser "
                        "than the SLA: queries admitted under it can "
                        "still violate, so the deadline cannot "
                        "protect the SLA (dead knob)");
    }

    void
    checkObservability()
    {
        const obs::ObsSpec& o = spec_.observability;
        // sample_rate only thins the per-query trace; with no
        // trace_file there is nothing to thin. Rate 1.0 is the
        // default (indistinguishable from "unset"), so only a
        // non-default rate is a dead knob.
        if (!o.tracing() && o.sample_rate > 0.0 && o.sample_rate < 1.0)
            warning("W211", "observability.sample_rate",
                    "sample_rate " + num(o.sample_rate) +
                        " is set but no trace_file is configured: "
                        "sampling only thins the per-query trace, so "
                        "the knob does nothing (dead knob)");
        if (o.tracing() && o.sample_rate == 0.0)
            warning("W211", "observability.trace_file",
                    "trace_file '" + o.trace_file +
                        "' is configured with sample_rate 0: every "
                        "query is skipped, so the trace will be "
                        "empty; drop trace_file or raise sample_rate");
    }

    void
    checkFaults()
    {
        const fault::FaultSpec& fs = spec_.serve.faults;
        if (fs.crash_mtbf_hours > 0.0 &&
            fs.crash_mttr_hours >= fs.crash_mtbf_hours)
            warning("W203", "faults.crash_mttr_hours",
                    "crash MTTR (" + num(fs.crash_mttr_hours) +
                        "h) >= MTBF (" + num(fs.crash_mtbf_hours) +
                        "h): servers spend more time crashed than "
                        "serving");
        if (fs.degrade_mtbf_hours > 0.0 &&
            fs.degrade_mttr_hours >= fs.degrade_mtbf_hours)
            warning("W204", "faults.degrade_mttr_hours",
                    "degrade MTTR (" + num(fs.degrade_mttr_hours) +
                        "h) >= MTBF (" + num(fs.degrade_mtbf_hours) +
                        "h): servers spend more time degraded than "
                        "healthy");

        double horizon = spec_.serve.horizon_hours;
        for (size_t i = 0; i < fs.events.size(); ++i) {
            const fault::FaultEvent& e = fs.events[i];
            std::string ctx =
                "faults.events[" + std::to_string(i) + "]";
            if (e.fleet_index < 0 ||
                e.fleet_index >= static_cast<int>(spec_.fleet.size())) {
                error("E111", ctx + ".fleet",
                      "fleet index " + std::to_string(e.fleet_index) +
                          " does not exist (fleet has " +
                          std::to_string(spec_.fleet.size()) +
                          " entries)");
            } else if (e.slot < 0 ||
                       e.slot >=
                           spec_.fleet[e.fleet_index].shard_slots) {
                error("E112", ctx + ".slot",
                      "slot " + std::to_string(e.slot) +
                          " does not exist (" +
                          hw::serverTypeName(
                              spec_.fleet[e.fleet_index].type) +
                          " has " +
                          std::to_string(
                              spec_.fleet[e.fleet_index].shard_slots) +
                          " slots)");
            }
            if (e.t_hours >= horizon && horizon > 0.0 &&
                e.t_hours >= 0.0)
                warning("W202", ctx + ".at_hour",
                        "event at hour " + num(e.t_hours) +
                            " fires at/after the " + num(horizon) +
                            "h horizon: it can never apply");
        }
    }

    /**
     * W209: with a table, warn when the tightest cap anywhere in the
     * horizon cannot even power the forecast peak demand of the
     * must-serve priority tier (the services shed last — every
     * service when priorities are uniform).
     */
    void
    checkPeakDemand()
    {
        if (table_ == nullptr || spec_.services.empty() || !caps_valid_)
            return;

        double min_cap = spec_.serve.power_cap_w;
        double horizon = spec_.serve.horizon_hours;
        for (const cluster::PowerCapPoint& p :
             spec_.serve.power_cap_schedule)
            if (horizon <= 0.0 || p.from_hour < horizon)
                min_cap = std::min(min_cap, p.cap_w);
        if (!std::isfinite(min_cap))
            return;

        // Resolve fraction-of-capacity peaks the same way run() does,
        // on a copy: lint never mutates the spec.
        ScenarioSpec resolved = spec_;
        resolvePeaks(resolved, *table_);

        int top = 0;
        for (const ServiceScenario& s : resolved.services)
            top = std::max(top, s.spec.qos.priority);

        // Cheapest watts that serve each must-serve service's peak:
        // its demand divided by the best QPS/W any fleet type offers.
        double demand_w = 0.0;
        bool estimable = false;
        for (const ServiceScenario& s : resolved.services) {
            if (s.spec.qos.priority != top)
                continue;
            double best_qpw = 0.0;
            for (const FleetEntry& e : spec_.fleet) {
                const core::EfficiencyEntry* ent =
                    table_->get(e.type, s.spec.model);
                if (ent != nullptr && ent->feasible)
                    best_qpw = std::max(best_qpw, ent->qps_per_watt);
            }
            if (best_qpw > 0.0 && s.spec.load.peak_qps > 0.0) {
                demand_w += s.spec.load.peak_qps / best_qpw;
                estimable = true;
            }
        }
        if (estimable && min_cap < demand_w)
            warning("W209", "power_cap_w",
                    "tightest power cap in the horizon (" +
                        num(min_cap) +
                        " W) is below the forecast peak demand of "
                        "the must-serve priority tier (needs at "
                        "least " +
                        num(demand_w) +
                        " W at the fleet's best efficiency): "
                        "must-serve services will shed capacity at "
                        "peak");
    }

    const ScenarioSpec& spec_;
    const core::EfficiencyTable* table_;
    std::vector<Diagnostic> out_;
    bool caps_valid_ = false;  ///< set by checkPowerCap()
};

}  // namespace

const char*
severityName(Severity s)
{
    return s == Severity::Error ? "error" : "warning";
}

std::string
formatDiagnostic(const Diagnostic& d)
{
    std::string out = d.code;
    out += ' ';
    out += severityName(d.severity);
    if (!d.path.empty()) {
        out += " at ";
        out += d.path;
    }
    out += ": ";
    out += d.message;
    return out;
}

std::vector<Diagnostic>
lint(const ScenarioSpec& spec, const core::EfficiencyTable* table)
{
    return Linter(spec, table).run();
}

bool
hasErrors(const std::vector<Diagnostic>& ds)
{
    for (const Diagnostic& d : ds)
        if (d.severity == Severity::Error)
            return true;
    return false;
}

}  // namespace hercules::scenario
