#include "sim/server_instance.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace hercules::sim {

ServerInstance::ServerInstance(const PreparedWorkload& w,
                               const SimOptions& opt)
    : w_(w), opt_(opt), cost_(*w.server), power_(*w.server)
{
    // ---- set up pools -------------------------------------------------
    const SchedulingConfig& cfg = w_.config;
    switch (mapping()) {
      case Mapping::CpuModelBased:
        cpu_pool_.total = cpu_pool_.idle = cfg.cpu_threads;
        cpu_pool_.cores_each = cfg.cores_per_thread;
        break;
      case Mapping::CpuSdPipeline:
        cpu_pool_.total = cpu_pool_.idle = cfg.cpu_threads;
        cpu_pool_.cores_each = cfg.cores_per_thread;
        dense_pool_.total = dense_pool_.idle = cfg.dense_threads;
        dense_pool_.cores_each = 1;
        break;
      case Mapping::GpuSdPipeline:
        cpu_pool_.total = cpu_pool_.idle = cfg.cpu_threads;
        cpu_pool_.cores_each = cfg.cores_per_thread;
        gpu_threads_.resize(static_cast<size_t>(cfg.gpu_threads));
        break;
      case Mapping::GpuModelBased:
        gpu_threads_.resize(static_cast<size_t>(cfg.gpu_threads));
        host_pool_.total = cfg.cpu_threads;
        host_pool_.cores_each = cfg.cores_per_thread;
        host_stage_idle_ = cfg.cpu_threads;
        break;
    }
}

int
ServerInstance::inject(const workload::Query& q)
{
    // Compact only when the slot vector would otherwise grow: the scan
    // and the move are then paid for by the injects since the last one.
    if (queries_.size() == queries_.capacity() &&
        queries_.size() >= kCompactMinSlots)
        compactQueries();
    int idx = static_cast<int>(injected());
    QueryState st;
    st.arrival = q.arrival_s;
    st.size = q.size;
    st.ps = q.pooling_scale;
    if (idx == opt_.warmup_queries)
        steady_start_ = st.arrival;
    queries_.push_back(st);
    eq_.scheduleInOrder(st.arrival, Event{Event::Kind::Arrival, idx, {}});
    return idx;
}

void
ServerInstance::compactQueries()
{
    size_t n = 0;
    while (n < queries_.size() && queries_[n].done)
        ++n;
    if (2 * n < queries_.size())
        return;  // mostly in flight: let the vector grow instead
    queries_.erase(queries_.begin(),
                   queries_.begin() + static_cast<std::ptrdiff_t>(n));
    query_base_ += n;
}

void
ServerInstance::releaseBinsBefore(double t_s)
{
    const size_t upto = binIndex(t_s);
    // Amortised: move the kept tail only once a long prefix is dead.
    if (upto < bin_base_ + kReleaseMinBins)
        return;
    const size_t n = upto - bin_base_;
    for (std::vector<double>* bins :
         {&cpu_busy_s_, &gpu_busy_s_, &pcie_busy_s_, &nmp_busy_s_,
          &mem_bytes_})
        bins->erase(bins->begin(),
                    bins->begin() + static_cast<std::ptrdiff_t>(
                                        std::min(n, bins->size())));
    bin_base_ = upto;
}

size_t
ServerInstance::releaseCompletions(size_t n)
{
    if (n > completions_.size())
        panic("ServerInstance::releaseCompletions: %zu of %zu entries", n,
              completions_.size());
    if (n == 0 || 2 * n < completions_.size())
        return 0;
    completions_.erase(completions_.begin(),
                       completions_.begin() + static_cast<std::ptrdiff_t>(n));
    completions_dropped_ += n;
    return n;
}

void
ServerInstance::advanceTo(double t_s)
{
    while (!eq_.empty() && eq_.nextTime() <= t_s)
        dispatch(eq_.pop());
}

void
ServerInstance::drain()
{
    while (!eq_.empty())
        dispatch(eq_.pop());
}

void
ServerInstance::dispatch(const Event& ev)
{
    const size_t tid = static_cast<size_t>(ev.index);
    switch (ev.kind) {
      case Event::Kind::Arrival:
        arrival(ev.index);
        return;
      case Event::Kind::PoolDone:
        poolDone(ev.index == 0 ? cpu_pool_ : dense_pool_, ev.chunk);
        return;
      case Event::Kind::HostStageDone:
        gpuHostStageDone(tid);
        return;
      case Event::Kind::Loaded:
        onLoaded(tid);
        return;
      case Event::Kind::ExecDone:
        onExecDone(tid);
        return;
    }
    panic("ServerInstance: bad event kind %d", static_cast<int>(ev.kind));
}

void
ServerInstance::scheduleGpu(double t, Event::Kind kind, size_t tid)
{
    eq_.schedule(t, Event{kind, static_cast<int>(tid), {}});
}

void
ServerInstance::setSlowdown(double factor)
{
    if (std::isnan(factor) || factor < 1.0)
        panic("ServerInstance::setSlowdown: factor must be >= 1 (got %f)",
              factor);
    slowdown_ = factor;
}

size_t
ServerInstance::killInFlight()
{
    size_t killed = 0;
    for (QueryState& q : queries_) {
        if (q.done)
            continue;
        q.pending = 0;
        q.done = true;
        ++killed;
    }
    done_count_ += killed;
    // Discard everything scheduled or queued: arrivals not yet fired,
    // chunks waiting in pools, batches staged in the GPU pipeline.
    eq_.clear();
    auto reset = [](Pool& p) {
        p.queue.clear();
        p.idle = p.total;
    };
    reset(cpu_pool_);
    reset(dense_pool_);
    reset(host_pool_);
    for (GpuThread& th : gpu_threads_) {
        th.loading = false;
        th.has_loaded = false;
        th.executing = false;
        th.staging = Batch{};
        th.running = Batch{};
    }
    fusion_queue_.clear();
    host_stage_queue_.clear();
    host_stage_idle_ = host_pool_.total;
    pcie_free_ = eq_.now();
    return killed;
}

ServerInstance::ServiceSample
ServerInstance::cpuService(int pool_id, int items, double query_ps)
{
    // Linear-in-pooling-scale memo shared by every run on w_: timings
    // at pooling scales 1 and 2 per batch size, interpolated below, keep
    // cost-model calls out of the event loop.
    CpuServiceMemo& memo = w_.cpu_service_memo[pool_id];
    const size_t batch = static_cast<size_t>(items);
    if (batch >= memo.row.size())
        memo.row.resize(batch + 1, 0);
    if (memo.row[batch] == 0) {
        const model::Graph& g = w_.cpuPoolGraph(pool_id);
        hw::CpuExecContext cx = w_.cpuPoolContext(pool_id);
        double base_scale = cx.pooling_scale;
        cx.pooling_scale = base_scale * 1.0;
        hw::GraphTiming t1 = cost_.cpuGraphTiming(g, items, cx);
        cx.pooling_scale = base_scale * 2.0;
        hw::GraphTiming t2 = cost_.cpuGraphTiming(g, items, cx);
        CpuServiceMemoEntry e;
        e.lat1 = t1.latency_us;
        e.lat2 = t2.latency_us;
        e.bytes1 = t1.dram_bytes;
        e.bytes2 = t2.dram_bytes;
        e.nmp1 = t1.nmp_busy_us;
        e.nmp2 = t2.nmp_busy_us;
        e.idle_frac = t1.idle_frac;
        memo.entries.push_back(e);
        memo.row[batch] = static_cast<uint32_t>(memo.entries.size());
    }
    const CpuServiceMemoEntry& e = memo.entries[memo.row[batch] - 1];
    double f = query_ps - 1.0;
    ServiceSample s;
    s.latency_us = std::max(1e-3, e.lat1 + (e.lat2 - e.lat1) * f);
    s.dram_bytes = std::max(0.0, e.bytes1 + (e.bytes2 - e.bytes1) * f);
    s.nmp_busy_us = std::max(0.0, e.nmp1 + (e.nmp2 - e.nmp1) * f);
    s.idle_frac = e.idle_frac;
    return s;
}

void
ServerInstance::chargeBins(std::vector<double>& bins, double start_s,
                           double end_s, double weight)
{
    if (end_s <= start_s || weight <= 0.0)
        return;
    size_t first = binIndex(start_s);
    size_t last = binIndex(end_s);
    if (first < bin_base_)
        panic("ServerInstance: work at %f charged to released bins",
              start_s);
    if (bins.size() <= last - bin_base_)
        bins.resize(last - bin_base_ + 1, 0.0);
    for (size_t b = first; b <= last; ++b) {
        double lo = std::max(start_s, static_cast<double>(b) * kBinSeconds);
        double hi = std::min(end_s,
                             static_cast<double>(b + 1) * kBinSeconds);
        if (hi > lo)
            bins[b - bin_base_] += (hi - lo) * weight;
    }
}

void
ServerInstance::splitToPool(int qidx, Pool& pool, int batch)
{
    QueryState& q = query(qidx);
    int remaining = q.size;
    while (remaining > 0) {
        int take = std::min(remaining, batch);
        remaining -= take;
        ++q.pending;
        enqueue(pool, Chunk{qidx, take, q.ps});
    }
}

void
ServerInstance::enqueue(Pool& pool, Chunk c)
{
    if (pool.idle > 0) {
        --pool.idle;
        poolServe(pool, c);
    } else {
        pool.queue.push_back(c);
    }
}

void
ServerInstance::poolServe(Pool& pool, Chunk c)
{
    int pool_id = w_.cpuPoolOf(&pool == &cpu_pool_
                                   ? PreparedWorkload::CpuStage::Front
                                   : PreparedWorkload::CpuStage::Dense);
    QueryState& q = query(c.query);
    if (!q.started) {
        q.started = true;
        q.enqueue_done = eq_.now();
        if (c.query >= opt_.warmup_queries)
            queue_ms_.add((eq_.now() - q.arrival) * 1e3);
    }

    ServiceSample s = cpuService(pool_id, c.items, c.ps);
    double start = eq_.now();
    double end = start + s.latency_us * 1e-6 * slowdown_;
    // Op-workers blocked on the dependency chain do not burn busy
    // cycles (the Fig 4(c)/Fig 5 utilization effect).
    chargeBins(cpu_busy_s_, start, end,
               static_cast<double>(pool.cores_each) *
                   (1.0 - s.idle_frac));
    chargeBins(mem_bytes_, start, end,
               s.dram_bytes / (s.latency_us * 1e-6));
    if (s.nmp_busy_us > 0.0)
        chargeBins(nmp_busy_s_, start, start + s.nmp_busy_us * 1e-6, 1.0);
    if (c.query >= opt_.warmup_queries)
        exec_ms_.add(s.latency_us * 1e-3);

    eq_.schedule(end, Event{Event::Kind::PoolDone,
                            &pool == &cpu_pool_ ? 0 : 1, c});
}

void
ServerInstance::poolDone(Pool& pool, Chunk c)
{
    // Hand the chunk to the next stage.
    if (&pool == &cpu_pool_ && mapping() == Mapping::CpuSdPipeline) {
        enqueue(dense_pool_, c);
    } else if (&pool == &cpu_pool_ &&
               mapping() == Mapping::GpuSdPipeline) {
        fusion_queue_.push_back(c);
        for (size_t t = 0; t < gpu_threads_.size(); ++t)
            tryFormGpuBatch(t);
    } else {
        queryPartDone(c.query);
    }
    // Pull the next chunk.
    if (!pool.queue.empty()) {
        Chunk next = pool.queue.front();
        pool.queue.pop_front();
        poolServe(pool, next);
    } else {
        ++pool.idle;
    }
}

void
ServerInstance::queryPartDone(int qidx)
{
    QueryState& q = query(qidx);
    if (--q.pending > 0)
        return;
    q.done = true;
    ++done_count_;
    double now = eq_.now();
    last_finish_ = now;
    if (opt_.record_completions) {
        obs::Completion c;
        c.query = qidx;
        c.shard = shard_id_;
        c.service = service_id_;
        c.arrival_s = q.arrival;
        c.finish_s = now;
        c.queue_wait_s = q.started ? q.enqueue_done - q.arrival : 0.0;
        completions_.push_back(c);
    }
    if (qidx >= opt_.warmup_queries) {
        // A recording instance's latencies are its completion log.
        if (!opt_.record_completions)
            latency_ms_.add((now - q.arrival) * 1e3);
        ++measured_completed_;
    }
}

void
ServerInstance::arrival(int qidx)
{
    QueryState& q = query(qidx);
    switch (mapping()) {
      case Mapping::CpuModelBased:
      case Mapping::CpuSdPipeline:
      case Mapping::GpuSdPipeline:
        splitToPool(qidx, cpu_pool_, w_.config.batch);
        break;
      case Mapping::GpuModelBased: {
        // Queries enter the fusion queue whole; oversized queries are
        // chunked at the fusion limit.
        int limit = w_.config.fusion_limit > 0 ? w_.config.fusion_limit
                                               : q.size;
        int remaining = q.size;
        while (remaining > 0) {
            int take = std::min(remaining, limit);
            remaining -= take;
            ++q.pending;
            fusion_queue_.push_back(Chunk{qidx, take, q.ps});
        }
        for (size_t t = 0; t < gpu_threads_.size(); ++t)
            tryFormGpuBatch(t);
        break;
      }
    }
}

void
ServerInstance::tryFormGpuBatch(size_t tid)
{
    GpuThread& th = gpu_threads_[tid];
    if (th.loading || th.has_loaded || fusion_queue_.empty())
        return;

    // Neither loading nor loaded: the staging slot holds at most a
    // retired batch that startExec() swapped out, so refill it in place.
    Batch& b = th.staging;
    b.chunks.clear();
    b.items = 0;
    int limit = w_.config.fusion_limit;
    while (!fusion_queue_.empty()) {
        const Chunk& c = fusion_queue_.front();
        if (!b.chunks.empty() &&
            (limit <= 0 || b.items + c.items > limit))
            break;
        b.chunks.push_back(c);
        b.items += c.items;
        fusion_queue_.pop_front();
        if (limit <= 0)
            break;  // no fusion: one query chunk per batch
    }
    double ps_weighted = 0.0;
    for (const Chunk& c : b.chunks) {
        ps_weighted += c.ps * c.items;
        QueryState& q = query(c.query);
        if (!q.started) {
            q.started = true;
            q.enqueue_done = eq_.now();
            if (c.query >= opt_.warmup_queries)
                queue_ms_.add((eq_.now() - q.arrival) * 1e3);
        }
    }
    b.ps = b.items > 0 ? ps_weighted / b.items : 1.0;

    th.loading = true;
    bool needs_cold = mapping() == Mapping::GpuModelBased &&
                      w_.gpu_cx.hot_hit_rate < 1.0;
    if (needs_cold) {
        // Host threads pre-reduce the cold embedding fraction.
        if (host_stage_idle_ > 0) {
            --host_stage_idle_;
            startHostStage(tid);
        } else {
            host_stage_queue_.push_back(tid);
        }
    } else {
        startTransfer(tid);
    }
}

void
ServerInstance::startHostStage(size_t tid)
{
    const Batch& b = gpu_threads_[tid].staging;
    ServiceSample s = cpuService(
        w_.cpuPoolOf(PreparedWorkload::CpuStage::ColdHost), b.items, b.ps);
    double end = eq_.now() + s.latency_us * 1e-6 * slowdown_;
    chargeBins(cpu_busy_s_, eq_.now(), end,
               static_cast<double>(host_pool_.cores_each) *
                   (1.0 - s.idle_frac));
    chargeBins(mem_bytes_, eq_.now(), end,
               s.dram_bytes / (s.latency_us * 1e-6));
    if (s.nmp_busy_us > 0.0)
        chargeBins(nmp_busy_s_, eq_.now(),
                   eq_.now() + s.nmp_busy_us * 1e-6, 1.0);
    for (const Chunk& c : b.chunks)
        if (c.query >= opt_.warmup_queries) {
            host_ms_.add(s.latency_us * 1e-3);
            break;
        }
    scheduleGpu(end, Event::Kind::HostStageDone, tid);
}

void
ServerInstance::gpuHostStageDone(size_t tid)
{
    startTransfer(tid);
    // Free host helper; pull queued host-stage work.
    if (!host_stage_queue_.empty()) {
        size_t next_tid = host_stage_queue_.front();
        host_stage_queue_.pop_front();
        startHostStage(next_tid);
    } else {
        ++host_stage_idle_;
    }
}

void
ServerInstance::startTransfer(size_t tid)
{
    const Batch& b = gpu_threads_[tid].staging;
    double bytes = w_.gpu_plan.inputBytes(b.items, b.ps);
    // The PCIe link is a FIFO DMA engine shared by all loaders.
    double dur_s = (hw::calib::kGpuHostPrepUs +
                    cost_.pcieTransferUs(bytes, cost_.pcieBwGbps())) *
                   1e-6 * slowdown_;
    double start = std::max(eq_.now(), pcie_free_);
    double end = start + dur_s;
    pcie_free_ = end;
    chargeBins(pcie_busy_s_, start, end, 1.0);
    for (const Chunk& c : b.chunks)
        if (c.query >= opt_.warmup_queries) {
            load_ms_.add((end - eq_.now()) * 1e3);
            break;
        }
    scheduleGpu(end, Event::Kind::Loaded, tid);
}

void
ServerInstance::onLoaded(size_t tid)
{
    GpuThread& th = gpu_threads_[tid];
    th.loading = false;
    if (th.executing) {
        th.has_loaded = true;
    } else {
        startExec(tid);
        // Prefetch the next batch while this one executes.
        tryFormGpuBatch(tid);
    }
}

void
ServerInstance::startExec(size_t tid)
{
    GpuThread& th = gpu_threads_[tid];
    th.executing = true;
    // The loaded batch moves to the executor; the retired one left in
    // `running` becomes the (reused) free staging slot.
    std::swap(th.running, th.staging);
    const Batch& b = th.running;
    const double latency_us = gpuBatchLatencyUs(w_, b.items, b.ps);
    double end = eq_.now() + latency_us * 1e-6 * slowdown_;
    chargeBins(gpu_busy_s_, eq_.now(), end, 1.0);
    for (const Chunk& c : b.chunks)
        if (c.query >= opt_.warmup_queries) {
            exec_ms_.add(latency_us * 1e-3);
            break;
        }
    scheduleGpu(end, Event::Kind::ExecDone, tid);
}

void
ServerInstance::onExecDone(size_t tid)
{
    GpuThread& th = gpu_threads_[tid];
    th.executing = false;
    for (const Chunk& c : th.running.chunks)
        queryPartDone(c.query);
    if (th.has_loaded) {
        th.has_loaded = false;
        startExec(tid);
    }
    tryFormGpuBatch(tid);
}

ServerInstance::BinUtil
ServerInstance::binUtil(size_t b, double mem_denom) const
{
    if (b < bin_base_)
        panic("ServerInstance: power read from released bin %zu", b);
    auto binVal = [&](const std::vector<double>& bins, size_t i) {
        i -= bin_base_;
        return i < bins.size() ? bins[i] : 0.0;
    };
    int cores = w_.server->cpu.cores;
    BinUtil u;
    u.cpu = std::min(1.0, binVal(cpu_busy_s_, b) / (kBinSeconds * cores));
    double mu = std::min(
        1.0, binVal(mem_bytes_, b) / (kBinSeconds * mem_denom));
    u.nmp = std::min(1.0, binVal(nmp_busy_s_, b) / kBinSeconds);
    u.gpu = std::min(
        1.0, binVal(gpu_busy_s_, b) /
                 (kBinSeconds * std::max<size_t>(gpu_threads_.size(), 1)));
    u.pcie = std::min(1.0, binVal(pcie_busy_s_, b) / kBinSeconds);
    if (!w_.config.usesGpu())
        u.gpu = 0.0;
    u.mem = std::min(1.0, mu + u.nmp);
    return u;
}

double
ServerInstance::avgPowerBetween(double t0_s, double t1_s) const
{
    if (t1_s <= t0_s)
        return 0.0;
    double mem_denom = cost_.effectiveHostBwGbps(1) * 1e9;
    size_t bin_lo = binIndex(t0_s);
    size_t bin_hi = binIndex(std::nextafter(t1_s, t0_s));  // exclusive end
    OnlineStats power;
    for (size_t b = bin_lo; b <= bin_hi; ++b) {
        BinUtil u = binUtil(b, mem_denom);
        power.add(power_.serverPowerW(hw::Utilization{u.cpu, u.mem, u.gpu}));
    }
    return power.mean();
}

ServerSimResult
ServerInstance::finalize() const
{
    ServerSimResult r;
    r.events_executed = eq_.eventsExecuted();
    r.peak_event_queue_depth = eq_.peakDepth();
    r.offered_qps = opt_.saturate ? 0.0 : opt_.offered_qps;
    r.completed = measured_completed_;
    double t_begin = steady_start_;
    double t_end = last_finish_;
    r.duration_s = std::max(t_end - t_begin, 1e-9);
    r.achieved_qps =
        static_cast<double>(measured_completed_) / r.duration_s;

    // The log holds the same samples in the same (finish) order, so its
    // mean is the same double.
    PercentileTracker logged;
    if (opt_.record_completions) {
        if (completions_dropped_ > 0)
            panic("ServerInstance::finalize: %zu completions already "
                  "released",
                  completions_dropped_);
        for (const obs::Completion& c : completions_)
            if (c.query >= opt_.warmup_queries)
                logged.add(c.latencyMs());
    }
    const PercentileTracker& lat =
        opt_.record_completions ? logged : latency_ms_;
    r.mean_ms = lat.mean();
    const std::vector<double> tails =
        lat.percentiles({50.0, 95.0, 99.0, opt_.tail_percentile});
    r.p50_ms = tails[0];
    r.p95_ms = tails[1];
    r.p99_ms = tails[2];
    r.tail_ms = tails[3];
    r.max_ms = lat.max();
    r.mean_queue_ms = queue_ms_.mean();
    r.mean_host_ms = host_ms_.mean();
    r.mean_load_ms = load_ms_.mean();
    r.mean_exec_ms = exec_ms_.mean();

    // ---- utilization + power over the steady window ---------------------
    size_t bin_lo = binIndex(t_begin);
    size_t bin_hi = binIndex(t_end);  // inclusive
    double mem_denom = cost_.effectiveHostBwGbps(1) * 1e9;

    OnlineStats power_stats;
    OnlineStats cpu_u, mem_u, gpu_u, pcie_u, nmp_u;
    for (size_t b = bin_lo; b <= bin_hi; ++b) {
        BinUtil u = binUtil(b, mem_denom);
        cpu_u.add(u.cpu);
        mem_u.add(u.mem);
        gpu_u.add(u.gpu);
        pcie_u.add(u.pcie);
        nmp_u.add(u.nmp);
        power_stats.add(
            power_.serverPowerW(hw::Utilization{u.cpu, u.mem, u.gpu}));
    }
    r.cpu_util = cpu_u.mean();
    r.mem_bw_util = mem_u.mean();
    r.gpu_util = gpu_u.mean();
    r.pcie_util = pcie_u.mean();
    r.nmp_util = nmp_u.mean();
    r.avg_power_w = power_stats.mean();
    r.peak_power_w = power_stats.max();
    r.qps_per_watt =
        r.avg_power_w > 0.0 ? r.achieved_qps / r.avg_power_w : 0.0;
    return r;
}

}  // namespace hercules::sim
