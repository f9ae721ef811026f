#pragma once

/**
 * @file
 * Bounded multi-producer / single-consumer ring buffer (DESIGN.md
 * §3.13): the ingest spine of the online serving layer.
 *
 * The layout is the classic sequence-stamped ring (Vyukov's bounded
 * queue, restricted here to one consumer): a power-of-two slot array
 * where every slot carries an atomic sequence number. A producer
 * claims a slot by CAS on the enqueue cursor, moves its payload in,
 * and publishes by bumping the slot sequence; the consumer observes
 * the sequence, moves the payload out, and re-arms the slot for the
 * next lap. Producers never block, never allocate, and never touch a
 * lock — contention is one CAS on the shared cursor plus a release
 * store into a claimed slot. tryPush() fails (returns false) when the
 * ring is full; the caller owns the shed decision.
 *
 * drainInto() is strictly single-consumer: the online service's
 * poll() is the only drainer of its ring. The drain order
 * interleaves producer streams nondeterministically, which is why the
 * service canonically re-sorts every drained batch by event time
 * before any decision (shedding, assembly) is taken — see the
 * determinism discussion in DESIGN.md §3.13.
 */

#include <atomic>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "util/logging.h"

namespace sleuth::util {

/** Round up to the next power of two (minimum 2). */
inline size_t
ceilPow2(size_t n)
{
    size_t p = 2;
    while (p < n)
        p <<= 1;
    return p;
}

template <typename T>
class MpscRing
{
  public:
    /** Capacity is rounded up to a power of two. */
    explicit MpscRing(size_t capacity)
        : mask_(ceilPow2(capacity) - 1),
          slots_(std::make_unique<Slot[]>(mask_ + 1))
    {
        SLEUTH_ASSERT(capacity > 0, "ring capacity must be positive");
        for (size_t i = 0; i <= mask_; ++i)
            slots_[i].seq.store(i, std::memory_order_relaxed);
    }

    /**
     * Enqueue (multi-producer safe). Returns false — payload
     * untouched — when the ring is full.
     */
    bool
    tryPush(T &&v)
    {
        size_t pos = enqueue_.load(std::memory_order_relaxed);
        for (;;) {
            Slot &slot = slots_[pos & mask_];
            size_t seq = slot.seq.load(std::memory_order_acquire);
            intptr_t dif = static_cast<intptr_t>(seq) -
                           static_cast<intptr_t>(pos);
            if (dif == 0) {
                if (enqueue_.compare_exchange_weak(
                        pos, pos + 1, std::memory_order_relaxed))
                {
                    slot.value = std::move(v);
                    slot.seq.store(pos + 1,
                                   std::memory_order_release);
                    return true;
                }
                // CAS reloaded pos; retry against the new slot.
            } else if (dif < 0) {
                // A full lap behind: the consumer has not re-armed
                // this slot yet, so the ring is full.
                return false;
            } else {
                pos = enqueue_.load(std::memory_order_relaxed);
            }
        }
    }

    /**
     * Move every currently published entry into `out` (appended).
     * Single-consumer only. Returns the number of entries drained.
     * Entries a producer has claimed but not yet published stay for
     * the next drain — the drain never spins on a slow producer.
     */
    size_t
    drainInto(std::vector<T> *out)
    {
        size_t drained = 0;
        for (;;) {
            Slot &slot = slots_[dequeue_ & mask_];
            size_t seq = slot.seq.load(std::memory_order_acquire);
            if (static_cast<intptr_t>(seq) -
                    static_cast<intptr_t>(dequeue_ + 1) !=
                0)
                break;
            out->push_back(std::move(slot.value));
            slot.value = T{};
            // Re-arm for the producer's next lap over this slot.
            slot.seq.store(dequeue_ + mask_ + 1,
                           std::memory_order_release);
            ++dequeue_;
            ++drained;
        }
        return drained;
    }

    /** Physical slot count (post power-of-two rounding). */
    size_t capacity() const { return mask_ + 1; }

    /**
     * Published-but-undrained entry estimate. Exact when producers
     * are quiescent (the barrier points where callers read it).
     */
    size_t
    sizeApprox() const
    {
        size_t enq = enqueue_.load(std::memory_order_acquire);
        return enq >= dequeue_ ? enq - dequeue_ : 0;
    }

  private:
    struct alignas(64) Slot
    {
        std::atomic<size_t> seq{0};
        T value{};
    };

    const size_t mask_;
    std::unique_ptr<Slot[]> slots_;
    /** Producer cursor (own cacheline: producers CAS it). */
    alignas(64) std::atomic<size_t> enqueue_{0};
    /** Consumer cursor (plain: single consumer). */
    alignas(64) size_t dequeue_ = 0;
};

} // namespace sleuth::util
