/**
 * @file
 * The machinery every search in sched runs on (private to sched): a
 * per-call session holding the evaluation engine and timing store, the
 * evaluator that measures, traces and keeps the running best of one
 * (sub-)search, and the ordered merge of partial results.
 */
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sched/gradient_search.h"

namespace hercules::sched::detail {

/**
 * One search call's shared state: the engine (the caller's, or a
 * private one built from `opt.eval`), one timing store for the whole
 * call, and the problem being searched. Pooled arms and partition
 * strategies share it; the engine and the store are thread-safe.
 */
struct Session
{
    Session(const hw::ServerSpec& srv, const model::Model& m, double sla,
            const SearchOptions& o)
        : server(srv), model(m), sla_ms(sla), opt(o),
          owned(opt.engine ? nullptr
                           : std::make_unique<sim::EvalEngine>(opt.eval)),
          engine(opt.engine ? *opt.engine : *owned), timings(server, m)
    {
    }
    Session(const Session&) = delete;  // evaluators and pool tasks hold it
    Session& operator=(const Session&) = delete;

    const hw::ServerSpec& server;
    const model::Model& model;
    const double sla_ms;
    const SearchOptions& opt;
    std::unique_ptr<sim::EvalEngine> owned;
    sim::EvalEngine& engine;
    /** Steps of one call differ in a knob or two and share timings. */
    sim::TimingStore timings;
};

/**
 * Ordered reduction of a partial result into the combined one. Strict
 * `>` on QPS keeps the earliest-merged winner on ties, so the reduction
 * order — always program order, never completion order — fully
 * determines the outcome regardless of the engine's thread count.
 */
inline void
mergeResult(SearchResult& acc, SearchResult&& r)
{
    acc.evals += r.evals;
    acc.cache_hits += r.cache_hits;
    acc.trace.insert(acc.trace.end(),
                     std::make_move_iterator(r.trace.begin()),
                     std::make_move_iterator(r.trace.end()));
    if (r.best && r.best_qps > acc.best_qps) {
        acc.best = r.best;
        acc.best_point = r.best_point;
        acc.best_qps = r.best_qps;
    }
}

/**
 * Trace recorder on top of the evaluation engine, owned by one
 * (sub-)search. The engine memoizes across evaluators; this class keeps
 * the per-search bookkeeping: first-request dedup, the trace, the
 * eval/cache-hit counters and the running best.
 */
class Evaluator
{
  public:
    Evaluator(Session& s, SearchResult& result) : s_(s), result_(result) {}

    /** Latency-bounded QPS of a config; -1 when invalid/infeasible. */
    double
    qps(const SchedulingConfig& cfg)
    {
        auto [it, inserted] = seen_.try_emplace(cfg.key());
        if (inserted)
            record(cfg, s_.engine.evaluate(request(cfg)), it->second);
        return it->second ? it->second->qps : -1.0;
    }

    /**
     * Fan a candidate batch onto the engine pool, then record results
     * in request order — the trace and counters come out exactly as if
     * the batch had been evaluated serially.
     */
    void
    prefetch(const std::vector<SchedulingConfig>& cfgs)
    {
        std::vector<const SchedulingConfig*> fresh;
        std::vector<sim::EvalRequest> reqs;
        fresh.reserve(cfgs.size());
        reqs.reserve(cfgs.size());
        for (const SchedulingConfig& cfg : cfgs) {
            if (seen_.count(cfg.key()))
                continue;
            fresh.push_back(&cfg);
            reqs.push_back(request(cfg));
        }
        std::vector<sim::EvalResult> results =
            s_.engine.evaluateMany(reqs);
        for (size_t i = 0; i < fresh.size(); ++i) {
            auto [it, inserted] = seen_.try_emplace(fresh[i]->key());
            if (inserted)
                record(*fresh[i], std::move(results[i]), it->second);
        }
    }

    /** Mark the latest trace entry for `cfg` as an accepted move. */
    void
    markAccepted(const SchedulingConfig& cfg)
    {
        std::string key = cfg.key();
        for (auto rit = result_.trace.rbegin();
             rit != result_.trace.rend(); ++rit) {
            if (rit->cfg.key() == key) {
                rit->accepted = true;
                return;
            }
        }
    }

  private:
    sim::EvalRequest
    request(const SchedulingConfig& cfg)
    {
        sim::EvalRequest r;
        r.server = &s_.server;
        r.model = &s_.model;
        r.cfg = cfg;
        r.sla_ms = s_.sla_ms;
        r.measure = s_.opt.measure;
        r.timings = &s_.timings;
        return r;
    }

    void
    record(const SchedulingConfig& cfg, sim::EvalResult&& res,
           std::optional<sim::OperatingPoint>& slot)
    {
        if (!res.valid) {
            slot = std::nullopt;  // invalid: never measured, not traced
            return;
        }
        if (res.cache_hit)
            ++result_.cache_hits;
        else
            ++result_.evals;

        SearchStep step;
        step.cfg = cfg;
        if (res.point) {
            step.qps = res.point->qps;
            step.tail_ms = res.point->result.tail_ms;
            step.peak_power_w = res.point->result.peak_power_w;
            step.qps_per_watt = res.point->result.qps_per_watt;
        }
        result_.trace.push_back(step);

        if (res.point && res.point->qps > result_.best_qps) {
            result_.best = cfg;
            result_.best_point = *res.point;
            result_.best_qps = res.point->qps;
        }
        slot = std::move(res.point);
    }

    Session& s_;
    SearchResult& result_;
    std::unordered_map<std::string, std::optional<sim::OperatingPoint>>
        seen_;
};

}  // namespace hercules::sched::detail
