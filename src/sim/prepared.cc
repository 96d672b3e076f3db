#include "sim/prepared.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <unordered_map>

#include "hw/calibration.h"
#include "util/logging.h"
#include "util/thread_annotations.h"

namespace hercules::sim {

using sched::Mapping;
using sched::SchedulingConfig;

namespace {

/** Host memory available for model storage (small OS/runtime margin). */
int64_t
hostModelCapacity(const hw::ServerSpec& server)
{
    return static_cast<int64_t>(
        0.95 * static_cast<double>(server.mem.capacityBytes()));
}

/** Device memory budget for one co-located accelerator thread. */
int64_t
gpuPerThreadCapacity(const hw::ServerSpec& server, int gpu_threads)
{
    double usable = static_cast<double>(server.gpu->memBytes()) -
                    hw::calib::kGpuReservedBytes;
    return static_cast<int64_t>(usable /
                                std::max(gpu_threads, 1));
}

/**
 * Hot splits are pure functions of (model, capacity) and the search
 * evaluates them for every candidate configuration — memoize. The memo
 * is locked: EvalEngine prepares and validates configurations on its
 * worker threads concurrently. Entries are never erased, and a node of
 * an unordered_map does not move, so the returned reference stays
 * valid after the lock is released.
 */
const model::HotSplit&
cachedHotSplit(const model::Model& m, int64_t capacity)
{
    struct Memo
    {
        util::Mutex mu;
        std::unordered_map<std::string, model::HotSplit> splits
            GUARDED_BY(mu);
    };
    static Memo memo;
    std::string key = m.name + "/" + std::to_string(capacity);
    util::MutexLock lock(memo.mu);
    auto it = memo.splits.find(key);
    if (it == memo.splits.end())
        it = memo.splits.emplace(key, model::computeHotSplit(m, capacity))
                 .first;
    return it->second;
}

}  // namespace

std::optional<std::string>
validateConfig(const hw::ServerSpec& server, const model::Model& m,
               const SchedulingConfig& cfg)
{
    if (cfg.batch < 1)
        return "batch must be >= 1";
    if (cfg.cores_per_thread < 1)
        return "cores_per_thread must be >= 1";

    // Every mapping keeps the full embedding tables host-resident (the
    // accelerator holds at most the hot split).
    if (m.totalBytes() > hostModelCapacity(server))
        return "model does not fit host memory";

    switch (cfg.mapping) {
      case Mapping::CpuModelBased:
        if (cfg.cpu_threads < 1)
            return "need at least one inference thread";
        if (cfg.hostCores() > server.cpu.cores)
            return "host cores exceeded";
        break;
      case Mapping::CpuSdPipeline:
        if (cfg.cpu_threads < 1 || cfg.dense_threads < 1)
            return "S-D pipeline needs sparse and dense threads";
        if (cfg.hostCores() > server.cpu.cores)
            return "host cores exceeded";
        break;
      case Mapping::GpuModelBased: {
        if (!server.hasGpu())
            return "server has no accelerator";
        if (cfg.gpu_threads < 1)
            return "need at least one accelerator thread";
        int64_t budget = gpuPerThreadCapacity(server, cfg.gpu_threads) -
                         m.denseParamBytes();
        if (budget <= 0)
            return "dense parameters do not fit device memory";
        const model::HotSplit& hot = cachedHotSplit(m, budget);
        bool needs_cold = !hot.full();
        if (needs_cold && cfg.cpu_threads < 1)
            return "cold embedding path needs host threads";
        if (cfg.hostCores() > server.cpu.cores)
            return "host cores exceeded";
        break;
      }
      case Mapping::GpuSdPipeline: {
        if (!server.hasGpu())
            return "server has no accelerator";
        if (cfg.gpu_threads < 1)
            return "need at least one accelerator thread";
        if (cfg.cpu_threads < 1)
            return "S-D pipeline needs host SparseNet threads";
        if (cfg.hostCores() > server.cpu.cores)
            return "host cores exceeded";
        int64_t budget = gpuPerThreadCapacity(server, cfg.gpu_threads);
        if (m.denseParamBytes() > budget)
            return "dense parameters do not fit device memory";
        break;
      }
    }
    return std::nullopt;
}

PreparedWorkload
prepare(const hw::ServerSpec& server, const model::Model& m,
        const SchedulingConfig& cfg)
{
    if (auto err = validateConfig(server, m, cfg))
        fatal("prepare: invalid config '%s' for %s on %s: %s",
              cfg.str().c_str(), m.name.c_str(), server.name.c_str(),
              err->c_str());

    PreparedWorkload w;
    w.server = &server;
    w.model = &m;
    w.config = cfg;

    const model::Graph& base =
        m.graph;  // zoo graphs are already minimal; fusion applied below
    w.full = cfg.fuse_elementwise ? model::fuseElementwise(base) : base;
    w.sparse = model::sparseSubgraph(w.full);
    w.dense = model::denseSubgraph(w.full);

    // ---- CPU execution contexts --------------------------------------
    // Memory-bandwidth sharing counts the threads that actually touch
    // DRAM for gathers.
    int mem_threads = 1;
    switch (cfg.mapping) {
      case Mapping::CpuModelBased:
        mem_threads = cfg.cpu_threads;
        break;
      case Mapping::CpuSdPipeline:
      case Mapping::GpuSdPipeline:
      case Mapping::GpuModelBased:
        mem_threads = std::max(cfg.cpu_threads, 1);
        break;
    }
    hw::CostModel cost(server);
    w.cpu_cx.workers = cfg.cores_per_thread;
    w.cpu_cx.mem_bw_gbps = cost.perThreadBwGbps(mem_threads);
    w.cpu_cx.use_nmp = server.hasNmp();
    w.cpu_cx.nmp_share = 1.0 / std::max(mem_threads, 1);

    // ---- Accelerator context -----------------------------------------
    if (cfg.usesGpu()) {
        w.gpu_cx.colocated = cfg.gpu_threads;
        if (cfg.mapping == Mapping::GpuModelBased) {
            int64_t budget =
                gpuPerThreadCapacity(server, cfg.gpu_threads) -
                m.denseParamBytes();
            w.hot = cachedHotSplit(m, budget);
            w.gpu_cx.hot_hit_rate = w.hot.hit_rate;
            // Host-side cold path computes the (1 - hit) fraction.
            w.cold_cx = w.cpu_cx;
            w.cold_cx.pooling_scale = 1.0 - w.hot.hit_rate;
        } else {
            w.gpu_cx.hot_hit_rate = 1.0;
        }
        w.gpu_plan = cost.gpuBatchPlan(w.gpuGraph(), w.gpu_cx);
    }
    return w;
}

const model::Graph&
PreparedWorkload::cpuPoolGraph(int pool) const
{
    switch (pool) {
      case 0: return full;
      case 1: return sparse;
      case 2: return dense;
      case 3: return sparse;
    }
    panic("cpuPoolGraph: bad pool id %d", pool);
}

hw::CpuExecContext
PreparedWorkload::cpuPoolContext(int pool) const
{
    hw::CpuExecContext cx = pool == 3 ? cold_cx : cpu_cx;
    if (pool == 2)
        cx.workers = 1;
    return cx;
}

namespace {

/** Merge the batch sizes `from` timed and `into` lacks. */
void
mergeMemo(CpuServiceMemo& into, const CpuServiceMemo& from)
{
    if (into.entries.empty()) {
        into = from;
        return;
    }
    if (into.row.size() < from.row.size())
        into.row.resize(from.row.size(), 0);
    for (size_t items = 0; items < from.row.size(); ++items) {
        if (from.row[items] == 0 || into.row[items] != 0)
            continue;
        into.entries.push_back(from.entries[from.row[items] - 1]);
        into.row[items] = static_cast<uint32_t>(into.entries.size());
    }
}

/** @return the (key, memo) entry of `table` under `k`, or nullptr. */
template <class Table, class Key>
auto*
findKey(Table& table, const Key& k)
{
    auto it = std::find_if(table.begin(), table.end(),
                           [&](const auto& e) { return e.first == k; });
    return it == table.end() ? nullptr : &*it;
}

}  // namespace

TimingStore::TimingStore(const hw::ServerSpec& server,
                         const model::Model& m)
    : server_(&server), model_(&m)
{
}

TimingStore::CpuKey
TimingStore::cpuKey(const PreparedWorkload& w, int pool)
{
    const model::Graph& g = w.cpuPoolGraph(pool);
    CpuKey k;
    k.fuse = w.config.fuse_elementwise;
    k.graph = &g == &w.full ? 0 : &g == &w.sparse ? 1 : 2;
    k.cx = w.cpuPoolContext(pool);
    return k;
}

/* Every field of hw::CpuExecContext is an input of the timing. */
bool
TimingStore::CpuKey::operator==(const CpuKey& o) const
{
    return fuse == o.fuse && graph == o.graph &&
           cx.workers == o.cx.workers &&
           cx.mem_bw_gbps == o.cx.mem_bw_gbps &&
           cx.use_nmp == o.cx.use_nmp && cx.nmp_share == o.cx.nmp_share &&
           cx.pooling_scale == o.cx.pooling_scale;
}

void
TimingStore::checkBound(const PreparedWorkload& w, const char* what) const
{
    if (w.server != server_ || w.model != model_)
        panic("TimingStore::%s: workload of %s on %s, store bound to %s "
              "on %s",
              what, w.model->name.c_str(), w.server->name.c_str(),
              model_->name.c_str(), server_->name.c_str());
}

void
TimingStore::warm(PreparedWorkload& w) const
{
    checkBound(w, "warm");
    util::MutexLock lock(mu_);
    using Stage = PreparedWorkload::CpuStage;
    for (Stage s : {Stage::Front, Stage::Dense, Stage::ColdHost}) {
        const int pool = w.cpuPoolOf(s);
        if (pool < 0)
            continue;
        if (const auto* e = findKey(cpu_, cpuKey(w, pool)))
            mergeMemo(w.cpu_service_memo[pool], e->second);
    }
    if (probe_.filled && !w.probe_stream.filled)
        w.probe_stream = probe_;
}

void
TimingStore::absorb(const PreparedWorkload& w)
{
    checkBound(w, "absorb");
    util::MutexLock lock(mu_);
    for (int pool = 0; pool < 4; ++pool) {
        const CpuServiceMemo& memo = w.cpu_service_memo[pool];
        if (memo.entries.empty())
            continue;
        CpuKey k = cpuKey(w, pool);
        if (auto* e = findKey(cpu_, k))
            mergeMemo(e->second, memo);
        else
            cpu_.emplace_back(k, memo);
    }
    if (w.probe_stream.filled && !probe_.filled)
        probe_ = w.probe_stream;
}

double
gpuBatchLatencyUs(const PreparedWorkload& w, int items, double ps)
{
    GpuKernelMemo& memo = w.gpu_kernel_memo;
    const size_t batch = static_cast<size_t>(items);
    if (batch >= memo.row.size())
        memo.row.resize(batch + 1, 0);
    if (memo.row[batch] == 0) {
        memo.row[batch] = static_cast<uint32_t>(memo.kernels.size() + 1);
        w.gpu_plan.batchOnlyKernelsUs(items, memo.kernels);
    }
    return w.gpu_plan.latencyUs(
        items, ps, memo.kernels.data() + (memo.row[batch] - 1));
}

}  // namespace hercules::sim
