/**
 * @file
 * Minimal discrete-event scheduler: a time-ordered queue of typed,
 * trivially copyable event payloads with deterministic FIFO
 * tie-breaking (equal timestamps pop in scheduling order, so
 * floating-point ties can never reorder runs). The queue only orders
 * events; the owner pops each payload and dispatches it itself.
 */
#pragma once

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "util/logging.h"

namespace hercules::sim {

/** Min-heap of (time, payload) events ordered by (time, scheduling order). */
template <typename Payload>
class EventQueue
{
    static_assert(std::is_trivially_copyable_v<Payload>,
                  "EventQueue payloads must be trivially copyable");

  public:
    /** Schedule `payload` at absolute time `t` seconds (>= now). */
    void
    schedule(double t, const Payload& payload)
    {
        if (t < now_)
            panic("EventQueue: scheduling into the past (%f < %f)", t,
                  now_);
        heap_.push_back(Entry{t, seq_++, payload});
        std::push_heap(heap_.begin(), heap_.end(), later);
        if (heap_.size() > peak_)
            peak_ = heap_.size();
    }

    /** @return true when no events remain. */
    bool empty() const { return heap_.empty(); }

    /** @return current simulation time (of the last popped event). */
    double now() const { return now_; }

    /** @return timestamp of the next pending event (panics when empty). */
    double
    nextTime() const
    {
        if (heap_.empty())
            panic("EventQueue: nextTime on empty queue");
        return heap_.front().t;
    }

    /**
     * Remove the next event, advance now() to its timestamp and count
     * it as executed. @return its payload (panics when empty).
     */
    Payload
    pop()
    {
        if (heap_.empty())
            panic("EventQueue: pop on empty queue");
        std::pop_heap(heap_.begin(), heap_.end(), later);
        const Entry ev = heap_.back();
        heap_.pop_back();
        now_ = ev.t;
        ++executed_;
        return ev.payload;
    }

    /**
     * Discard every pending event without running it (crash semantics:
     * work in flight simply never finishes). now() and the tie-break
     * counter are preserved so post-clear scheduling stays ordered
     * after everything that already ran.
     */
    void clear() { heap_.clear(); }

    /**
     * Self-profiling counters (survive clear()): total events popped
     * and the peak number of pending events. Deterministic — pure
     * functions of the simulated schedule, no wall clock involved.
     */
    uint64_t eventsExecuted() const { return executed_; }
    size_t peakDepth() const { return peak_; }

  private:
    struct Entry
    {
        double t;
        uint64_t seq;
        Payload payload;
    };

    /** Heap order: `a` pops after `b`. (t, seq) is a strict total order. */
    static bool
    later(const Entry& a, const Entry& b)
    {
        if (a.t != b.t)
            return a.t > b.t;
        return a.seq > b.seq;
    }

    std::vector<Entry> heap_;
    uint64_t seq_ = 0;
    double now_ = 0.0;
    uint64_t executed_ = 0;
    size_t peak_ = 0;
};

}  // namespace hercules::sim
