#include "sim/eval_engine.h"

#include <algorithm>
#include <cstdio>

#include "obs/self_profile.h"
#include "util/csv.h"
#include "util/logging.h"

namespace hercules::sim {

namespace {

/** Append `label=value;` with enough digits to be collision-free. */
void
appendNum(std::string& s, const char* label, double v)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%s=%.17g;", label, v);
    s += buf;
}

void
appendInt(std::string& s, const char* label, int64_t v)
{
    s += label;
    s += '=';
    s += std::to_string(v);
    s += ';';
}

}  // namespace

/**
 * A cache cell: computed exactly once; concurrent requesters for the
 * same key block on the cell's condition variable until the winner
 * publishes the result.
 */
struct EvalEngine::Cell
{
    util::Mutex m;
    util::CondVar cv;
    bool ready GUARDED_BY(m) = false;
    EvalResult result GUARDED_BY(m);

    EvalResult
    wait() EXCLUDES(m)
    {
        util::MutexLock lock(m);
        while (!ready)
            cv.wait(m);
        return result;
    }

    void
    publish(EvalResult r) EXCLUDES(m)
    {
        {
            util::MutexLock lock(m);
            result = std::move(r);
            ready = true;
        }
        cv.notifyAll();
    }
};

EvalEngine::EvalEngine(const EvalOptions& opt)
    : pool_(opt.threads)
{
}

std::string
EvalEngine::cacheKey(const EvalRequest& r)
{
    std::string s;
    s.reserve(256);

    // Server signature: type name plus the numbers the cost model
    // consumes, so hand-modified catalog specs (the server-arch
    // explorer) never alias a stock type.
    const hw::ServerSpec& sv = *r.server;
    s += "sv=";
    s += sv.name;
    s += ';';
    appendInt(s, "cores", sv.cpu.cores);
    appendNum(s, "ghz", sv.cpu.freq_ghz);
    appendNum(s, "llc", sv.cpu.llc_mb);
    appendInt(s, "mk", static_cast<int>(sv.mem.kind));
    appendInt(s, "ranks", sv.mem.totalRanks());
    appendInt(s, "memgb", sv.mem.capacity_gb);
    if (sv.gpu) {
        s += "gpu=";
        s += sv.gpu->name;
        s += ';';
        appendInt(s, "sms", sv.gpu->sms);
        appendNum(s, "hbm", sv.gpu->hbm_gbps);
        appendInt(s, "ggb", sv.gpu->mem_gb);
        appendNum(s, "pcie", sv.gpu->pcie_gbps);
    }

    // Model signature: display name already encodes id + variant; the
    // footprint numbers guard against hand-tweaked Model structs.
    const model::Model& m = *r.model;
    s += "md=";
    s += m.name;
    s += ';';
    appendInt(s, "tbl", m.num_tables);
    appendInt(s, "dim", m.emb_dim);
    appendInt(s, "bytes", m.totalBytes());
    appendNum(s, "pool", m.pooling_max);

    // The scheduling configuration, every field.
    s += r.cfg.key();
    s += ';';

    // SLA + measurement options (anything that steers the probes).
    appendNum(s, "sla", r.sla_ms);
    const MeasureOptions& mo = r.measure;
    appendNum(s, "pb", mo.power_budget_w);
    appendInt(s, "bi", mo.bisect_iters);
    appendInt(s, "nq", mo.sim.num_queries);
    appendInt(s, "wq", mo.sim.warmup_queries);
    appendInt(s, "seed", static_cast<int64_t>(mo.sim.seed));
    appendNum(s, "pct", mo.sim.tail_percentile);
    // Workload distributions: the generator consumes both, so two
    // requests differing only in size/pooling shape must not alias.
    appendNum(s, "qmed", mo.sim.sizes.median);
    appendNum(s, "qsig", mo.sim.sizes.sigma);
    appendInt(s, "qmin", mo.sim.sizes.min_size);
    appendInt(s, "qmax", mo.sim.sizes.max_size);
    appendNum(s, "psig", mo.sim.pooling.sigma);
    return s;
}

EvalResult
EvalEngine::compute(const EvalRequest& r)
{
    EvalResult out;
    if (validateConfig(*r.server, *r.model, r.cfg)) {
        invalid_.fetch_add(1, std::memory_order_relaxed);
        return out;  // invalid: never simulated
    }
    out.valid = true;

    PreparedWorkload w = prepare(*r.server, *r.model, r.cfg);
    if (r.timings != nullptr)
        r.timings->warm(w);
    obs::WallTimer measure_timer;
    out.point = measureLatencyBoundedQps(w, r.sla_ms, r.measure);
    measure_wall_us_.fetch_add(
        static_cast<uint64_t>(measure_timer.elapsedMs() * 1e3),
        std::memory_order_relaxed);
    if (r.timings != nullptr)
        r.timings->absorb(w);

    misses_.fetch_add(1, std::memory_order_relaxed);
    // One saturation probe + the bisection probes; an infeasible
    // measurement also ran the light-load retry (an overcount only when
    // the saturation probe found no capacity at all).
    simulations_.fetch_add(
        out.point ? static_cast<uint64_t>(out.point->sims)
                  : static_cast<uint64_t>(r.measure.bisect_iters + 2),
        std::memory_order_relaxed);
    return out;
}

EvalResult
EvalEngine::evaluate(const EvalRequest& r)
{
    if (!r.server || !r.model)
        fatal("EvalEngine::evaluate: null server or model");
    std::string key = cacheKey(r);
    std::shared_ptr<Cell> cell;
    bool owner = false;
    {
        util::MutexLock lock(mu_);
        auto it = cache_.find(key);
        if (it == cache_.end()) {
            cell = std::make_shared<Cell>();
            cache_.emplace(std::move(key), cell);
            owner = true;
        } else {
            cell = it->second;
        }
    }

    if (owner) {
        EvalResult out = compute(r);
        cell->publish(out);
        return out;
    }
    hits_.fetch_add(1, std::memory_order_relaxed);
    EvalResult out = cell->wait();
    out.cache_hit = true;
    return out;
}

std::vector<EvalResult>
EvalEngine::evaluateMany(const std::vector<EvalRequest>& rs)
{
    std::vector<EvalResult> out(rs.size());
    pool_.parallelFor(rs.size(),
                      [&](size_t i) { out[i] = evaluate(rs[i]); });
    return out;
}

EvalEngine::Stats
EvalEngine::stats() const
{
    Stats s;
    s.hits = hits_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    s.invalid = invalid_.load(std::memory_order_relaxed);
    s.simulations = simulations_.load(std::memory_order_relaxed);
    s.measure_wall_ms =
        static_cast<double>(
            measure_wall_us_.load(std::memory_order_relaxed)) *
        1e-3;
    return s;
}

// ---- cross-process memo persistence --------------------------------------
//
// One line per entry:  <key>\t<valid> <has_point> [<point numbers...>]
// The key is the canonical cacheKey() string (never contains tabs or
// newlines); numbers are %.17g so doubles round-trip bit-exactly. The
// header pins a format version and the caller's build fingerprint — a
// file of another format or another build loads nothing rather than
// poisoning the memo with misparsed or stale results.

namespace {

constexpr const char* kCacheMagic = "HERCULES_EVAL_CACHE v2";

/** The first line of a memo file saved under `fingerprint`. */
std::string
cacheHeader(const std::string& fingerprint)
{
    return std::string(kCacheMagic) + " fp=" + fingerprint;
}

void
appendPoint(std::string& s, const OperatingPoint& p)
{
    const ServerSimResult& r = p.result;
    char buf[1024];
    std::snprintf(
        buf, sizeof(buf),
        " %.17g %.17g %.17g %.17g %d"
        " %.17g %.17g %.17g %.17g %.17g %.17g %.17g %.17g"
        " %.17g %.17g %.17g %.17g %.17g"
        " %.17g %.17g %.17g"
        " %.17g %.17g %.17g %.17g"
        " %zu %.17g",
        p.qps, p.capacity, p.bracket_lo, p.bracket_hi, p.sims,
        r.offered_qps, r.achieved_qps, r.mean_ms, r.p50_ms, r.p95_ms,
        r.p99_ms, r.tail_ms, r.max_ms,
        r.cpu_util, r.mem_bw_util, r.gpu_util, r.pcie_util, r.nmp_util,
        r.avg_power_w, r.peak_power_w, r.qps_per_watt,
        r.mean_queue_ms, r.mean_host_ms, r.mean_load_ms, r.mean_exec_ms,
        r.completed, r.duration_s);
    s += buf;
}

bool
readPoint(const char* s, OperatingPoint* p)
{
    ServerSimResult& r = p->result;
    int n = std::sscanf(
        s,
        " %lg %lg %lg %lg %d"
        " %lg %lg %lg %lg %lg %lg %lg %lg"
        " %lg %lg %lg %lg %lg"
        " %lg %lg %lg"
        " %lg %lg %lg %lg"
        " %zu %lg",
        &p->qps, &p->capacity, &p->bracket_lo, &p->bracket_hi, &p->sims,
        &r.offered_qps, &r.achieved_qps, &r.mean_ms, &r.p50_ms,
        &r.p95_ms, &r.p99_ms, &r.tail_ms, &r.max_ms,
        &r.cpu_util, &r.mem_bw_util, &r.gpu_util, &r.pcie_util,
        &r.nmp_util,
        &r.avg_power_w, &r.peak_power_w, &r.qps_per_watt,
        &r.mean_queue_ms, &r.mean_host_ms, &r.mean_load_ms,
        &r.mean_exec_ms,
        &r.completed, &r.duration_s);
    return n == 27;
}

}  // namespace

size_t
EvalEngine::saveCache(const std::string& path,
                      const std::string& fingerprint) const
{
    // Snapshot the ready cells under the lock, write outside it.
    std::vector<std::pair<std::string, EvalResult>> entries;
    {
        util::MutexLock lock(mu_);
        entries.reserve(cache_.size());
        // determinism-lint: allow(unordered-iteration)
        for (const auto& [key, cell] : cache_) {
            util::MutexLock cell_lock(cell->m);
            if (cell->ready)
                entries.emplace_back(key, cell->result);
        }
    }
    // The memo file is an artifact (diffed across runs, restored from
    // CI caches): bucket order must not leak into it.
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) {
                  return a.first < b.first;
              });

    std::string text = cacheHeader(fingerprint) + "\n";
    for (const auto& [key, result] : entries) {
        text += key;
        text += result.valid ? "\t1" : "\t0";
        text += result.point.has_value() ? " 1" : " 0";
        if (result.point.has_value())
            appendPoint(text, *result.point);
        text += '\n';
    }
    if (!replaceFile(path, text)) {
        warn("EvalEngine::saveCache: cannot write %s", path.c_str());
        return 0;
    }
    return entries.size();
}

size_t
EvalEngine::loadCache(const std::string& path,
                      const std::string& fingerprint)
{
    FILE* f = std::fopen(path.c_str(), "r");
    if (f == nullptr)
        return 0;

    std::string line;
    auto readLine = [&]() -> bool {
        line.clear();
        int c;
        while ((c = std::fgetc(f)) != EOF && c != '\n')
            line.push_back(static_cast<char>(c));
        return !(line.empty() && c == EOF);
    };

    const std::string header = cacheHeader(fingerprint);
    if (!readLine() || line != header) {
        if (line.rfind(kCacheMagic, 0) == 0)
            warn("EvalEngine::loadCache: %s was written by another build "
                 "('%s', this build '%s'); loading 0 entries",
                 path.c_str(), line.c_str(), header.c_str());
        else
            warn("EvalEngine::loadCache: %s lacks the %s header; loading "
                 "0 entries",
                 path.c_str(), kCacheMagic);
        std::fclose(f);
        return 0;
    }

    size_t loaded = 0;
    while (readLine()) {
        size_t tab = line.find('\t');
        if (tab == std::string::npos || tab == 0)
            continue;  // malformed line: skip, keep loading the rest
        std::string key = line.substr(0, tab);
        const char* payload = line.c_str() + tab + 1;
        int valid = 0, has_point = 0, consumed = 0;
        if (std::sscanf(payload, "%d %d%n", &valid, &has_point,
                        &consumed) != 2)
            continue;
        EvalResult result;
        result.valid = valid != 0;
        if (has_point != 0) {
            OperatingPoint p;
            if (!readPoint(payload + consumed, &p))
                continue;
            result.point = p;
        }
        auto cell = std::make_shared<Cell>();
        {
            // The cell is still private to this thread; the lock is
            // for the analysis, free in practice (uncontended).
            util::MutexLock cell_lock(cell->m);
            cell->result = std::move(result);
            cell->ready = true;
        }
        util::MutexLock lock(mu_);
        if (cache_.emplace(std::move(key), std::move(cell)).second)
            ++loaded;
    }
    std::fclose(f);
    return loaded;
}

}  // namespace hercules::sim
