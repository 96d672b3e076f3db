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
 *
 * The heap orders 16-byte keys, not events: each key is (t, seq << 24 |
 * slot), where `slot` indexes a payload slab whose freed slots are
 * reused. seq sits in the high bits and is unique, so comparing keys
 * compares (t, seq). The heap is 4-ary and sifts a hole instead of
 * swapping.
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
    /** Low key bits holding a heap event's payload slot. */
    static constexpr int kSlotBits = 24;

    /**
     * @return the heap key bits of the event with sequence number `seq`
     * whose payload sits in `slot`. Panics when `slot` needs more than
     * kSlotBits bits or `seq` more than the 64 - kSlotBits above them.
     */
    static uint64_t
    packKey(uint64_t seq, uint64_t slot)
    {
        if (slot >> kSlotBits)
            panic("EventQueue: payload slot %llu overflows %d bits",
                  static_cast<unsigned long long>(slot), kSlotBits);
        if (seq >> (64 - kSlotBits))
            panic("EventQueue: sequence number %llu overflows %d bits",
                  static_cast<unsigned long long>(seq), 64 - kSlotBits);
        return seq << kSlotBits | slot;
    }

    /** Schedule `payload` at absolute time `t` seconds (>= now). */
    void
    schedule(double t, const Payload& payload)
    {
        checkNotPast(t);
        const uint64_t slot = free_.empty() ? slab_.size() : free_.back();
        pushHeap(Key{t, packKey(seq_++, slot)});
        if (slot == slab_.size()) {
            slab_.push_back(payload);
        } else {
            free_.pop_back();
            slab_[slot] = payload;
        }
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
        if (head_ < lane_.size() && t < lane_.back().key.t)
            panic("EventQueue: in-order lane pushed backwards (%f < %f)",
                  t, lane_.back().key.t);
        lane_.push_back(LaneEntry{Key{t, packKey(seq_++, 0)}, payload});
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
            return lane_[head_].key.t;
        return std::min(lane_[head_].key.t, heap_.front().t);
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
        ++executed_;
        if (head_ < lane_.size() &&
            (heap_.empty() || later(heap_.front(), lane_[head_].key)))
            return popLane();
        const Key top = popHeap();
        now_ = top.t;
        const uint64_t slot = top.bits & kSlotMask;
        free_.push_back(static_cast<uint32_t>(slot));
        return slab_[slot];
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
        slab_.clear();
        free_.clear();
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
    static constexpr uint64_t kSlotMask = (uint64_t{1} << kSlotBits) - 1;
    static constexpr size_t kArity = 4;

    /** (t, seq << kSlotBits | slot); a lane key's slot bits are 0. */
    struct Key
    {
        double t;
        uint64_t bits;
    };
    static_assert(sizeof(Key) == 16, "heap keys should be 16 bytes");

    struct LaneEntry
    {
        Key key;
        Payload payload;
    };

    /** Heap order: `a` pops after `b`. (t, seq) is a strict total order. */
    static bool
    later(const Key& a, const Key& b)
    {
        if (a.t != b.t)
            return a.t > b.t;
        return a.bits > b.bits;
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

    /** Sift a hole up from the new last position, then fill it. */
    void
    pushHeap(const Key& k)
    {
        size_t i = heap_.size();
        heap_.push_back(k);
        while (i > 0) {
            const size_t parent = (i - 1) / kArity;
            if (!later(heap_[parent], k))
                break;
            heap_[i] = heap_[parent];
            i = parent;
        }
        heap_[i] = k;
    }

    /** Take the root; sift the hole down and drop the last key in. */
    Key
    popHeap()
    {
        const Key top = heap_.front();
        const Key last = heap_.back();
        heap_.pop_back();
        const size_t n = heap_.size();
        if (n == 0)
            return top;
        size_t i = 0;
        for (;;) {
            const size_t first = kArity * i + 1;
            if (first >= n)
                break;
            const size_t end = std::min(first + kArity, n);
            size_t best = first;
            for (size_t c = first + 1; c < end; ++c)
                if (later(heap_[best], heap_[c]))
                    best = c;
            if (!later(last, heap_[best]))
                break;
            heap_[i] = heap_[best];
            i = best;
        }
        heap_[i] = last;
        return top;
    }

    /**
     * Take the lane front. Popped entries are reclaimed (capacity
     * kept) whenever the lane runs empty: a router-driven shard's lane
     * empties at every advance, a one-shot run's after its last
     * arrival.
     */
    Payload
    popLane()
    {
        const LaneEntry& ev = lane_[head_++];
        now_ = ev.key.t;
        const Payload payload = ev.payload;
        if (head_ == lane_.size()) {
            lane_.clear();
            head_ = 0;
        }
        return payload;
    }

    std::vector<Key> heap_;         ///< 4-ary min-heap under later()
    std::vector<Payload> slab_;     ///< heap payloads, indexed by slot
    std::vector<uint32_t> free_;    ///< slab slots free for reuse
    std::vector<LaneEntry> lane_;   ///< sorted by (t, seq); live from head_
    size_t head_ = 0;
    uint64_t seq_ = 0;
    double now_ = 0.0;
    uint64_t executed_ = 0;
    size_t peak_ = 0;
};

}  // namespace hercules::sim
