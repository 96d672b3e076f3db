#include "workload/trace.h"

#include <algorithm>

#include "util/logging.h"
#include "util/rng.h"

namespace hercules::workload {

uint64_t
EmbAccessTrace::tableTotal(size_t table) const
{
    if (table >= accesses.size())
        panic("EmbAccessTrace: table %zu out of range", table);
    uint64_t sum = 0;
    for (uint64_t c : accesses[table])
        sum += c;
    return sum;
}

uint64_t
EmbAccessTrace::total() const
{
    uint64_t sum = 0;
    for (size_t t = 0; t < accesses.size(); ++t)
        sum += tableTotal(t);
    return sum;
}

EmbAccessTrace
generateTrace(const model::Model& m, int num_queries, int avg_query_size,
              uint64_t seed, uint64_t max_tracked_rows)
{
    EmbAccessTrace trace;
    Rng rng(seed);

    for (const auto& n : m.graph.nodes()) {
        if (n.kind() != model::OpKind::EmbeddingLookup)
            continue;
        const auto& p = std::get<model::EmbeddingParams>(n.params);
        uint64_t rows = static_cast<uint64_t>(p.rows);
        uint64_t tracked =
            std::min<uint64_t>(rows, max_tracked_rows) + 1;  // +1 tail
        std::vector<uint64_t> counts(tracked, 0);

        ZipfSampler zipf(rows, p.zipf_exponent);
        double lookups_per_query = p.avgPooling() * avg_query_size;
        uint64_t total = static_cast<uint64_t>(
            lookups_per_query * static_cast<double>(num_queries));
        // Cap the sampling work per table; scale counts afterwards.
        uint64_t draws = std::min<uint64_t>(total, 200'000);
        for (uint64_t i = 0; i < draws; ++i) {
            uint64_t row = zipf.sample(rng);
            if (row < tracked - 1)
                ++counts[row];
            else
                ++counts[tracked - 1];
        }
        if (draws < total && draws > 0) {
            double scale = static_cast<double>(total) /
                           static_cast<double>(draws);
            for (auto& c : counts)
                c = static_cast<uint64_t>(static_cast<double>(c) * scale);
        }
        trace.accesses.push_back(std::move(counts));
    }
    return trace;
}

double
empiricalHitRate(const EmbAccessTrace& trace,
                 const std::vector<int64_t>& hot_rows)
{
    if (hot_rows.size() != trace.accesses.size())
        fatal("empiricalHitRate: %zu hot-row entries for %zu tables",
              hot_rows.size(), trace.accesses.size());
    uint64_t hits = 0;
    uint64_t total = 0;
    for (size_t t = 0; t < trace.accesses.size(); ++t) {
        const auto& counts = trace.accesses[t];
        // Rows are stored in popularity-rank order; the hot set is the
        // prefix.
        uint64_t limit = std::min<uint64_t>(
            static_cast<uint64_t>(std::max<int64_t>(hot_rows[t], 0)),
            counts.size());
        for (size_t r = 0; r < counts.size(); ++r) {
            total += counts[r];
            if (r < limit)
                hits += counts[r];
        }
    }
    return total == 0 ? 0.0
                      : static_cast<double>(hits) /
                            static_cast<double>(total);
}

}  // namespace hercules::workload
