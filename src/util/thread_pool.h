/**
 * @file
 * A small work-sharing thread pool built around one primitive:
 * parallelFor(n, fn). The calling thread always participates, and runs
 * index 0 itself, so a pool sized 1 (or a pool on a single-core host)
 * degenerates to a plain serial loop with zero scheduling overhead in
 * program order — the property the evaluation engine relies on for
 * bit-identical serial vs parallel results.
 *
 * parallelFor may be called from inside a task (nested parallelism:
 * per-mapping searches spawn per-arm climbs which prefetch neighbour
 * evaluations). Nesting cannot deadlock: whoever claims an index runs
 * it to completion, and a nested caller drains its own indices itself
 * when no worker is free.
 *
 * Concurrency contract (machine-checked via thread_annotations.h):
 * the job queue and stop flag are guarded by mu_; per-job index/done
 * counters are deliberately lock-free atomics (claiming an index must
 * not serialize the workers), with each job's completion handshake
 * guarded by the job's own mutex.
 */
#pragma once

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "util/thread_annotations.h"

namespace hercules::util {

class ThreadPool
{
  public:
    /**
     * @param threads total worker count including the caller; <= 0 uses
     *                the hardware concurrency.
     */
    explicit ThreadPool(int threads = 0)
    {
        if (threads <= 0)
            threads = hardwareThreads();
        for (int i = 1; i < threads; ++i)
            workers_.emplace_back([this] { workerLoop(); });
    }

    ~ThreadPool()
    {
        {
            MutexLock lock(mu_);
            stop_ = true;
        }
        cv_.notifyAll();
        for (auto& w : workers_)
            w.join();
    }

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /** @return worker count including the calling thread. */
    int threads() const { return static_cast<int>(workers_.size()) + 1; }

    /** @return std::thread::hardware_concurrency(), at least 1. */
    static int
    hardwareThreads()
    {
        unsigned hw = std::thread::hardware_concurrency();
        return hw > 0 ? static_cast<int>(hw) : 1;
    }

    /**
     * Run fn(0) .. fn(n-1), possibly concurrently; returns once every
     * index completed. The caller runs fn(0) itself, then claims
     * further indices in ascending order, so with no free worker the
     * loop runs serially in index order. Index 0 always runs on the
     * calling thread: give it the work that should stay there, such as
     * work whose allocations should come from the caller's malloc
     * arena. fn must not throw.
     */
    void
    parallelFor(size_t n, const std::function<void(size_t)>& fn)
        EXCLUDES(mu_)
    {
        if (n == 0)
            return;
        if (n == 1 || workers_.empty()) {
            for (size_t i = 0; i < n; ++i)
                fn(i);
            return;
        }

        auto job = std::make_shared<Job>();
        job->n = n;
        job->fn = &fn;
        job->next.store(1, std::memory_order_relaxed);  // 0 is the caller's
        {
            MutexLock lock(mu_);
            jobs_.push_back(job);
        }
        cv_.notifyAll();

        // The caller runs index 0 and then participates until no index
        // is left to claim...
        run(*job, 0);
        while (claimAndRun(*job)) {
        }
        // ...then waits for indices claimed by workers to finish.
        MutexLock lock(job->m);
        while (job->done.load(std::memory_order_acquire) != job->n)
            job->cv.wait(job->m);
    }

  private:
    struct Job
    {
        size_t n = 0;
        const std::function<void(size_t)>* fn = nullptr;
        /** Lock-free by design: index claims must not serialize. */
        std::atomic<size_t> next{0};
        std::atomic<size_t> done{0};
        /** Guards only the completion handshake around `cv`. */
        Mutex m;
        CondVar cv;
    };

    /** Claim one index of `job` and run it. @return false if drained. */
    bool
    claimAndRun(Job& job)
    {
        size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
        if (i >= job.n)
            return false;
        run(job, i);
        return true;
    }

    /** Run index i of `job` and count it done. */
    static void
    run(Job& job, size_t i)
    {
        (*job.fn)(i);
        if (job.done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
            job.n) {
            MutexLock lock(job.m);
            job.cv.notifyAll();
        }
    }

    void
    workerLoop() EXCLUDES(mu_)
    {
        for (;;) {
            std::shared_ptr<Job> job;
            {
                MutexLock lock(mu_);
                while (!stop_ && jobs_.empty())
                    cv_.wait(mu_);
                if (stop_)
                    return;
                job = jobs_.front();
                // Drop jobs whose indices are all claimed; remaining
                // work (if any) finishes on the threads that claimed it.
                if (job->next.load(std::memory_order_relaxed) >= job->n) {
                    jobs_.pop_front();
                    continue;
                }
            }
            while (claimAndRun(*job)) {
            }
        }
    }

    std::vector<std::thread> workers_;
    Mutex mu_;
    CondVar cv_;
    std::deque<std::shared_ptr<Job>> jobs_ GUARDED_BY(mu_);
    bool stop_ GUARDED_BY(mu_) = false;
};

}  // namespace hercules::util
