#include "core/profiler.h"

#include <memory>

#include "util/logging.h"

namespace hercules::core {

EfficiencyEntry
profilePair(const hw::ServerSpec& server, const model::Model& m,
            double sla_ms, const sched::SearchOptions& opt)
{
    EfficiencyEntry e;
    e.server = server.type;
    e.model = m.id;

    sched::SearchResult r =
        sched::herculesTaskSearch(server, m, sla_ms, opt);
    if (r.best) {
        e.feasible = true;
        e.qps = r.best_qps;
        e.power_w = r.best_point.result.peak_power_w;
        e.avg_power_w = r.best_point.result.avg_power_w;
        e.qps_per_watt = r.best_point.result.qps_per_watt;
        e.config = *r.best;
    }
    return e;
}

EfficiencyTable
offlineProfile(const ProfilerOptions& opt)
{
    std::vector<hw::ServerType> servers = opt.servers;
    if (servers.empty())
        servers = hw::allServerTypes();
    std::vector<model::ModelId> models = opt.models;
    if (models.empty())
        models = model::allModels();

    // One engine across every (server, model) cell: pairs share the
    // thread pool, and any cell revisiting a profiled configuration
    // (identical server/model signatures) hits the memo.
    std::unique_ptr<EvalEngine> owned;
    EvalEngine* engine = opt.search.engine;
    if (!engine) {
        owned = std::make_unique<EvalEngine>(opt.search.eval);
        engine = owned.get();
    }
    sched::SearchOptions sub = opt.search;
    sub.engine = engine;

    // Models are built once up front (cells borrow const references
    // into this vector from pool threads).
    std::vector<model::Model> built;
    built.reserve(models.size());
    for (model::ModelId mid : models)
        built.push_back(model::buildModel(mid, opt.variant));

    struct Cell
    {
        size_t model_idx;
        hw::ServerType server;
    };
    std::vector<Cell> cells;
    cells.reserve(models.size() * servers.size());
    for (size_t mi = 0; mi < models.size(); ++mi)
        for (hw::ServerType st : servers)
            cells.push_back({mi, st});

    // Every cell is an independent search: fan the whole table onto the
    // pool, then insert in cell order so the table layout never depends
    // on completion order.
    std::vector<EfficiencyEntry> entries(cells.size());
    engine->pool().parallelFor(cells.size(), [&](size_t i) {
        const model::Model& m = built[cells[i].model_idx];
        const hw::ServerSpec& server = hw::serverSpec(cells[i].server);
        double sla =
            opt.sla_ms_override > 0.0 ? opt.sla_ms_override : m.sla_ms;
        logInfo("profiler", "profiling %s on %s (SLA %.0f ms)",
                m.name.c_str(), server.name.c_str(), sla);
        entries[i] = profilePair(server, m, sla, sub);
    });

    EfficiencyTable table;
    for (const EfficiencyEntry& e : entries)
        table.set(e);
    return table;
}

EfficiencyEntry
onlineSetup(const hw::ServerSpec& server, const model::Model& m,
            double sla_ms, double power_budget_w,
            const sched::SearchOptions& opt)
{
    sched::SearchOptions constrained = opt;
    constrained.measure.power_budget_w = power_budget_w;
    return profilePair(server, m, sla_ms, constrained);
}

}  // namespace hercules::core
