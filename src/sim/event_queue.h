/**
 * @file
 * Minimal discrete-event scheduler: a time-ordered queue of typed,
 * trivially copyable event payloads with deterministic FIFO
 * tie-breaking (equal timestamps pop in scheduling order, so
 * floating-point ties can never reorder runs). The queue only orders
 * events; the owner pops each payload and dispatches it itself.
 *
 * Two lanes share one (time, scheduling order) total order: a min-heap
 * for events scheduled at arbitrary future times, and a FIFO lane for
 * events scheduled in non-decreasing time order (a server's arrival
 * stream). Both draw their sequence numbers from one counter and pop()
 * takes whichever lane's front is first, so the pop sequence is
 * exactly that of a single heap holding every event — while the heap
 * stays as shallow as the work in flight.
 */
#pragma once

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "util/logging.h"

namespace hercules::sim {

/** (time, payload) events popped in (time, scheduling order). */
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
        checkNotPast(t);
        heap_.push_back(Entry{t, seq_++, payload});
        std::push_heap(heap_.begin(), heap_.end(), later);
        notePush();
    }

    /**
     * Schedule `payload` at `t` on the sorted lane: `t` must be >= now
     * and >= every event still pending on this lane (panics otherwise).
     * Pops in exactly the order schedule() would give it.
     */
    void
    scheduleInOrder(double t, const Payload& payload)
    {
        checkNotPast(t);
        if (head_ < lane_.size() && t < lane_.back().t)
            panic("EventQueue: in-order lane pushed backwards (%f < %f)",
                  t, lane_.back().t);
        lane_.push_back(Entry{t, seq_++, payload});
        notePush();
    }

    /** @return true when no events remain. */
    bool empty() const { return heap_.empty() && head_ == lane_.size(); }

    /** @return current simulation time (of the last popped event). */
    double now() const { return now_; }

    /** @return timestamp of the next pending event (panics when empty). */
    double
    nextTime() const
    {
        if (empty())
            panic("EventQueue: nextTime on empty queue");
        if (head_ == lane_.size())
            return heap_.front().t;
        if (heap_.empty())
            return lane_[head_].t;
        return std::min(lane_[head_].t, heap_.front().t);
    }

    /**
     * Remove the next event, advance now() to its timestamp and count
     * it as executed. @return its payload (panics when empty).
     */
    Payload
    pop()
    {
        if (empty())
            panic("EventQueue: pop on empty queue");
        const bool from_lane =
            head_ < lane_.size() &&
            (heap_.empty() || later(heap_.front(), lane_[head_]));
        const Entry ev = from_lane ? popLane() : popHeap();
        now_ = ev.t;
        ++executed_;
        return ev.payload;
    }

    /**
     * Discard every pending event on both lanes without running it
     * (crash semantics: work in flight simply never finishes). now()
     * and the tie-break counter are preserved so post-clear scheduling
     * stays ordered after everything that already ran.
     */
    void
    clear()
    {
        heap_.clear();
        lane_.clear();
        head_ = 0;
    }

    /**
     * Self-profiling counters (survive clear()): total events popped
     * and the peak number of pending events across both lanes.
     * Deterministic — pure functions of the simulated schedule, no wall
     * clock involved.
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

    void
    checkNotPast(double t) const
    {
        if (t < now_)
            panic("EventQueue: scheduling into the past (%f < %f)", t,
                  now_);
    }

    void
    notePush()
    {
        const size_t depth = heap_.size() + (lane_.size() - head_);
        if (depth > peak_)
            peak_ = depth;
    }

    Entry
    popHeap()
    {
        std::pop_heap(heap_.begin(), heap_.end(), later);
        const Entry ev = heap_.back();
        heap_.pop_back();
        return ev;
    }

    /**
     * Take the lane front. Popped entries are reclaimed (capacity
     * kept) whenever the lane runs empty: a router-driven shard's lane
     * empties at every advance, a one-shot run's after its last
     * arrival.
     */
    Entry
    popLane()
    {
        const Entry ev = lane_[head_++];
        if (head_ == lane_.size()) {
            lane_.clear();
            head_ = 0;
        }
        return ev;
    }

    std::vector<Entry> heap_;
    std::vector<Entry> lane_;  ///< sorted by (t, seq); live from head_
    size_t head_ = 0;
    uint64_t seq_ = 0;
    double now_ = 0.0;
    uint64_t executed_ = 0;
    size_t peak_ = 0;
};

}  // namespace hercules::sim
