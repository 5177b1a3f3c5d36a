#pragma once
// Discrete-event simulation (DES) engine. The PBFT and Elastico substrates
// run on simulated time: components schedule callbacks at future instants,
// and the engine executes them in timestamp order (FIFO within equal
// timestamps, by insertion sequence — deterministic).
//
// One Simulator instance is single-threaded by construction — determinism
// matters more than intra-fabric parallelism for a protocol simulator. The
// epoch substrate reaches wall-clock parallelism one level up: mutually
// independent protocol instances (e.g. Elastico's per-committee PBFT runs)
// each own a private Simulator "lane" and many lanes execute concurrently
// on a worker pool (see sharding/elastico and DESIGN.md §12).
//
// Hot-path design (this engine fires tens of millions of events per epoch
// at the large scale tiers). Every event is one callback:
//  * Callbacks live in a slab of generation-stamped slots recycled through
//    a free list — no per-event heap allocation once the slab is warm, and
//    cancel() is O(1): bump the slot's generation and the stale heap entry
//    is skipped when it surfaces (lazy deletion, no hash sets). Callbacks
//    are stored inline in the slot (small-buffer, type-erased); only
//    captures larger than EventCallback::kInlineCapacity fall back to a
//    single heap allocation.
//  * The pending set is a 4-ary implicit heap — shallower than a binary
//    heap, it does fewer cache-missing levels per push/pop on large queues.
//    Its (timestamp, sequence) order is the execution order, compared as one
//    unsigned 128-bit key per event: the instant's bit pattern above the
//    sequence. The keys sit in their own array (four siblings' keys are 64
//    contiguous bytes), and each event's slot ref moves in step in a second
//    array.

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/fnv.hpp"
#include "common/sim_time.hpp"
#include "obs/context.hpp"

namespace mvcom::obs {
class Counter;
}  // namespace mvcom::obs

namespace mvcom::sim {

using common::SimTime;

/// Handle for a scheduled event; lets the scheduler cancel timers (e.g.
/// PBFT view-change timers that are disarmed on progress).
/// Encodes {slot index, slot generation}; a default-constructed id (0)
/// never matches a live event.
struct EventId {
  std::uint64_t value = 0;
  friend bool operator==(EventId, EventId) = default;
};

/// Type-erased callable storage with a small inline buffer. Built for the
/// event slab: a callback is emplaced exactly once, invoked at most once
/// from its slot (slots never move — the slab hands out stable addresses),
/// and destroyed in place.
class EventCallback {
 public:
  /// Sized so the common protocol callbacks — a PBFT message delivery
  /// lambda plus the network's tracing wrapper — stay inline.
  static constexpr std::size_t kInlineCapacity = 104;

  EventCallback() noexcept = default;
  EventCallback(const EventCallback&) = delete;
  EventCallback& operator=(const EventCallback&) = delete;
  ~EventCallback() { reset(); }

  [[nodiscard]] bool armed() const noexcept { return ops_ != nullptr; }

  template <typename F>
  void emplace(F&& f) {
    assert(ops_ == nullptr);
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineCapacity &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &inline_ops<Fn>;
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &boxed_ops<Fn>;
    }
  }

  /// Invokes the stored callable. The callable stays alive for the whole
  /// call (it may re-enter the simulator); call reset() afterwards.
  void invoke() {
    assert(ops_ != nullptr);
    ops_->invoke(buf_);
  }

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    void (*destroy)(void* storage) noexcept;
  };

  template <typename Fn>
  static constexpr Ops inline_ops{
      [](void* storage) { (*std::launder(static_cast<Fn*>(storage)))(); },
      [](void* storage) noexcept {
        std::launder(static_cast<Fn*>(storage))->~Fn();
      }};

  template <typename Fn>
  static constexpr Ops boxed_ops{
      [](void* storage) { (**std::launder(static_cast<Fn**>(storage)))(); },
      [](void* storage) noexcept {
        delete *std::launder(static_cast<Fn**>(storage));
      }};

  const Ops* ops_ = nullptr;
  alignas(std::max_align_t) unsigned char buf_[kInlineCapacity];
};

/// The simulation kernel.
class Simulator {
 public:
  Simulator() noexcept = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Schedules `f` to run at absolute simulated time `at`. Accepts any
  /// callable, so small captures stay allocation-free.
  /// Throws std::logic_error unless at >= now() (the past is immutable, and
  /// NaN is no instant).
  template <typename F>
  EventId schedule_at(SimTime at, F&& f) {
    const std::uint32_t index = arm_slot(at);
    slot(index).cb.emplace(std::forward<F>(f));
    return EventId{pack(index, slot(index).gen)};
  }

  /// Schedules `f` to run `delay` after the current time.
  template <typename F>
  EventId schedule_after(SimTime delay, F&& f) {
    return schedule_at(now() + delay, std::forward<F>(f));
  }

  /// Cancels a pending event in O(1). Cancelling an already-fired or
  /// unknown event is a harmless no-op (matches how protocol timers are
  /// usually disarmed).
  void cancel(EventId id);

  /// Runs events until the queue empties, `limit` events have fired or an
  /// event called stop(). Returns the number of events executed.
  std::size_t run(std::size_t limit = SIZE_MAX);

  /// Runs events with timestamp <= horizon, or until an event calls stop().
  /// Events scheduled during the run are honored if they also fall within
  /// the horizon. Unless stopped, advances the clock to `horizon` even if
  /// the queue drains early. Throws std::invalid_argument on a NaN horizon.
  std::size_t run_until(SimTime horizon);

  /// Called from an event, makes the running run() or run_until() return
  /// once that event's callback does. Pending events stay queued, and a
  /// later run fires them in order. Each run starts unstopped, so a stop()
  /// outside a run has no effect.
  void stop() noexcept { stopped_ = true; }

  [[nodiscard]] SimTime now() const noexcept { return now_; }
  [[nodiscard]] bool empty() const noexcept { return live_ == 0; }
  [[nodiscard]] std::size_t pending() const noexcept { return live_; }
  [[nodiscard]] std::uint64_t events_executed() const noexcept {
    return executed_;
  }

  /// Order digest: FNV-1a over the (sequence, timestamp) pairs of every
  /// executed event, folded in execution order. Two runs that fired the
  /// same events in the same order — the determinism contract of the
  /// lane-parallel epoch substrate — have equal digests; any divergence in
  /// scheduling or ordering changes it. Independent of the observability
  /// build mode. An event scheduled at −0.0 fires at +0.0 (now() reads
  /// +0.0) and folds +0.0's bits.
  [[nodiscard]] std::uint64_t order_digest() const noexcept { return digest_; }

  /// Attaches observability: counts scheduled/executed/cancelled events.
  /// (The sim clock itself is attached to a TraceRecorder by the run
  /// harness via TraceRecorder::set_sim_clock, not here — the recorder must
  /// outlive every component, while this simulator may not.)
  void set_obs(obs::ObsContext obs);

 private:
  /// Generation-stamped event slot. Slots live in fixed chunks (stable
  /// addresses) and are recycled through free_; the generation ties heap
  /// entries and EventIds to one incarnation of the slot.
  struct Slot {
    std::uint32_t gen = 1;
    EventCallback cb;
  };

  /// One pending event's queue order: the bits of its instant (high word)
  /// above its sequence, the global schedule order that breaks ties FIFO
  /// (low word). arm_slot admits only instants >= now() >= +0.0, and
  /// non-negative doubles and +inf order as their bit patterns do, so one
  /// unsigned compare is the (at, seq) order. The instant is stored as
  /// `at + 0.0`, which turns −0.0 (equal to +0.0 as a double) into +0.0.
  __extension__ typedef unsigned __int128 HeapKey;

  static HeapKey make_key(SimTime at, std::uint64_t seq) noexcept {
    const auto bits = std::bit_cast<std::uint64_t>(at.seconds() + 0.0);
    return (HeapKey{bits} << 64) | seq;
  }
  static std::uint64_t key_bits(HeapKey key) noexcept {
    return static_cast<std::uint64_t>(key >> 64);
  }
  static std::uint64_t key_seq(HeapKey key) noexcept {
    return static_cast<std::uint64_t>(key);
  }
  static SimTime key_at(HeapKey key) noexcept {
    return SimTime(std::bit_cast<double>(key_bits(key)));
  }

  static constexpr std::size_t kChunkShift = 6;  // 64 slots per chunk
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkShift;

  /// {slot index, slot generation} as one word: an EventId's value and a
  /// queued event's slot ref, validated against the slab on pop (which is
  /// how O(1) cancel works).
  static constexpr std::uint64_t pack(std::uint32_t index,
                                      std::uint32_t gen) noexcept {
    return (std::uint64_t{index} << 32) | gen;
  }
  static constexpr std::uint32_t ref_slot(std::uint64_t ref) noexcept {
    return static_cast<std::uint32_t>(ref >> 32);
  }

  [[nodiscard]] Slot& slot(std::uint32_t index) noexcept {
    return chunks_[index >> kChunkShift][index & (kChunkSize - 1)];
  }

  /// Claims a free slot (extending the slab if needed), pushes the heap
  /// entry, and returns the slot index. The caller emplaces the callback.
  std::uint32_t arm_slot(SimTime at);

  void retire_slot(std::uint32_t index) noexcept;

  void heap_push(HeapKey key, std::uint64_t ref);
  void heap_pop_root() noexcept;

  /// Pops and executes the event at the heap head. Precondition: the head
  /// is live (skip_stale_head ran).
  void fire_head();

  /// Drops tombstones (cancelled events) from the heap head so the peeked
  /// entry is live.
  void skip_stale_head() noexcept;

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::vector<std::uint32_t> free_;   // recycled slot indices (LIFO)
  std::vector<HeapKey> heap_;         // 4-ary implicit min-heap of keys
  std::vector<std::uint64_t> refs_;   // refs_[i]: heap_[i]'s pack(slot, gen)
  std::size_t live_ = 0;              // scheduled, not yet fired/cancelled
  SimTime now_ = SimTime::zero();
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::uint64_t digest_ = common::kFnv1aBasis;
  bool stopped_ = false;

  obs::Counter* obs_scheduled_ = nullptr;
  obs::Counter* obs_executed_ = nullptr;
  obs::Counter* obs_cancelled_ = nullptr;
};

}  // namespace mvcom::sim
