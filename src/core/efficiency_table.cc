#include "core/efficiency_table.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>

#include "util/csv.h"
#include "util/logging.h"

namespace hercules::core {

bool
operator==(const EfficiencyEntry& a, const EfficiencyEntry& b)
{
    return a.server == b.server && a.model == b.model &&
           a.feasible == b.feasible && a.qps == b.qps &&
           a.power_w == b.power_w && a.avg_power_w == b.avg_power_w &&
           a.qps_per_watt == b.qps_per_watt &&
           a.config.key() == b.config.key();
}

bool
EfficiencyTable::operator==(const EfficiencyTable& o) const
{
    if (entries_.size() != o.entries_.size())
        return false;
    for (size_t i = 0; i < entries_.size(); ++i)
        if (entries_[i] != o.entries_[i])
            return false;
    return true;
}

void
EfficiencyTable::set(const EfficiencyEntry& e)
{
    for (auto& existing : entries_) {
        if (existing.server == e.server && existing.model == e.model) {
            existing = e;
            return;
        }
    }
    entries_.push_back(e);
}

const EfficiencyEntry*
EfficiencyTable::get(hw::ServerType server, model::ModelId m) const
{
    for (const auto& e : entries_)
        if (e.server == server && e.model == m)
            return &e;
    return nullptr;
}

std::vector<hw::ServerType>
EfficiencyTable::rank(model::ModelId m, bool by_energy) const
{
    std::vector<const EfficiencyEntry*> feasible;
    for (const auto& e : entries_)
        if (e.model == m && e.feasible && e.qps > 0.0)
            feasible.push_back(&e);
    std::stable_sort(feasible.begin(), feasible.end(),
                     [&](const EfficiencyEntry* a,
                         const EfficiencyEntry* b) {
                         double ka = by_energy ? a->qps_per_watt : a->qps;
                         double kb = by_energy ? b->qps_per_watt : b->qps;
                         return ka > kb;
                     });
    std::vector<hw::ServerType> out;
    out.reserve(feasible.size());
    for (const auto* e : feasible)
        out.push_back(e->server);
    return out;
}

namespace {

/** Starts the provenance line writeCsv() puts above the column header. */
constexpr const char* kProvenancePrefix = "# ";

/** `v` with 17 significant digits, so tryReadCsv() reads the same double. */
std::string
exactDecimal(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

}  // namespace

void
EfficiencyTable::writeCsv(const std::string& path,
                          const std::string& provenance) const
{
    CsvWriter w({"server", "model", "feasible", "qps", "power_w",
                 "avg_power_w", "qps_per_watt", "config"});
    w.setPreamble(kProvenancePrefix + provenance);
    for (const auto& e : entries_) {
        // The config is persisted as its canonical key() so cached
        // tuples can be re-prepared and actually simulated (the
        // trace-driven serving path builds shards from it).
        w.addRow({hw::serverTypeName(e.server), model::modelName(e.model),
                  e.feasible ? "1" : "0", exactDecimal(e.qps),
                  exactDecimal(e.power_w), exactDecimal(e.avg_power_w),
                  exactDecimal(e.qps_per_watt), e.config.key()});
    }
    w.write(path);
}

std::optional<EfficiencyTable>
EfficiencyTable::tryReadCsv(const std::string& path, std::string* provenance)
{
    auto rows = readCsvFile(path);
    // The provenance line, when present, parses as a one-cell row above
    // the column header.
    size_t header = 0;
    provenance->clear();
    if (!rows.empty() && rows[0].size() == 1 &&
        rows[0][0].rfind(kProvenancePrefix, 0) == 0) {
        *provenance = rows[0][0].substr(std::strlen(kProvenancePrefix));
        header = 1;
    }
    EfficiencyTable table;
    for (size_t i = header + 1; i < rows.size(); ++i) {
        const auto& r = rows[i];
        if (r.size() < 7)
            return std::nullopt;
        EfficiencyEntry e;
        bool found_server = false;
        for (hw::ServerType t : hw::allServerTypes()) {
            if (r[0] == hw::serverTypeName(t)) {
                e.server = t;
                found_server = true;
            }
        }
        bool found_model = false;
        for (model::ModelId m : model::allModels()) {
            if (r[1] == model::modelName(m)) {
                e.model = m;
                found_model = true;
            }
        }
        if (!found_server || !found_model)
            return std::nullopt;
        e.feasible = r[2] == "1";
        try {
            e.qps = std::stod(r[3]);
            e.power_w = std::stod(r[4]);
            e.avg_power_w = std::stod(r[5]);
            e.qps_per_watt = std::stod(r[6]);
        } catch (...) {
            return std::nullopt;
        }
        if (r.size() >= 8) {
            auto cfg = sched::SchedulingConfig::fromKey(r[7]);
            // A feasible row whose config cannot be parsed is a cache
            // from an older build: the tuple could not be re-prepared
            // and simulated, so the whole file is rejected.
            if (!cfg.has_value() && e.feasible)
                return std::nullopt;
            if (cfg.has_value())
                e.config = *cfg;
        }
        table.set(e);
    }
    return table;
}

EfficiencyTable
EfficiencyTable::readCsv(const std::string& path)
{
    std::string provenance;
    auto table = tryReadCsv(path, &provenance);
    if (!table.has_value())
        fatal("EfficiencyTable::readCsv: %s is malformed or written by "
              "an older build (delete the file and re-profile)",
              path.c_str());
    return *table;
}

}  // namespace hercules::core
