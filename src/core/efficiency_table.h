/**
 * @file
 * The workload-classification table of Fig 9(b): for every
 * (server type Th, model Gm) pair, the efficiency tuple
 * (QPS_{h,m}, Power_{h,m}) measured by offline profiling, plus the
 * optimal task-scheduling configuration that achieves it. The cluster
 * manager consumes this table during online serving.
 */
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "hw/server.h"
#include "model/model_zoo.h"
#include "sim/config.h"

namespace hercules::core {

/** One profiled (server, model) pair. */
struct EfficiencyEntry
{
    hw::ServerType server = hw::ServerType::T1;
    model::ModelId model = model::ModelId::DlrmRmc1;
    bool feasible = false;   ///< some configuration met the SLA
    double qps = 0.0;        ///< latency-bounded throughput QPS_{h,m}
    double power_w = 0.0;    ///< provisioned (peak) power Power_{h,m}
    double avg_power_w = 0.0;
    double qps_per_watt = 0.0;  ///< energy efficiency at the QPS point
    sim::SchedulingConfig config;  ///< the optimal task schedule
};

/**
 * Exact equality (bitwise on the measured doubles): used by the
 * determinism tests to assert that serial and pooled profiling passes
 * produce the same table.
 */
bool operator==(const EfficiencyEntry& a, const EfficiencyEntry& b);
inline bool
operator!=(const EfficiencyEntry& a, const EfficiencyEntry& b)
{
    return !(a == b);
}

/** The efficiency-tuple table, indexed by (server type, model). */
class EfficiencyTable
{
  public:
    /** Insert or replace an entry. */
    void set(const EfficiencyEntry& e);

    /** @return the entry, or nullptr when the pair was never profiled. */
    const EfficiencyEntry* get(hw::ServerType server,
                               model::ModelId m) const;

    /** @return all entries in insertion order. */
    const std::vector<EfficiencyEntry>& entries() const
    { return entries_; }

    /**
     * Server types ranked for a model, best first. Infeasible pairs are
     * excluded.
     *
     * @param by_energy true: rank by QPS/W (the paper's cluster
     *                  classification metric); false: rank by QPS.
     */
    std::vector<hw::ServerType> rank(model::ModelId m,
                                     bool by_energy = true) const;

    /** @return number of profiled pairs. */
    size_t size() const { return entries_.size(); }

    /** Exact equality: same entries in the same insertion order. */
    bool operator==(const EfficiencyTable& o) const;
    bool operator!=(const EfficiencyTable& o) const
    { return !(*this == o); }

    /**
     * Persist as CSV, doubles with 17 significant digits: readCsv()
     * returns a table equal to this one. `provenance` (what produced
     * the table; no commas or quotes) is written above the column
     * header as the line `# <provenance>`.
     */
    void writeCsv(const std::string& path,
                  const std::string& provenance) const;

    /** Load a table written by writeCsv(); fatal() on malformed data. */
    static EfficiencyTable readCsv(const std::string& path);

    /**
     * Load a table, returning std::nullopt instead of dying when the
     * file is malformed (a row without exactly the 8 cells writeCsv()
     * writes, as a torn file has) or written by an older build (stale
     * config encoding). Cache consumers use this to fall back to
     * re-profiling.
     * @param provenance set to the file's provenance line (empty when
     *        it has none).
     */
    static std::optional<EfficiencyTable> tryReadCsv(
        const std::string& path, std::string* provenance);

  private:
    std::vector<EfficiencyEntry> entries_;
};

}  // namespace hercules::core
