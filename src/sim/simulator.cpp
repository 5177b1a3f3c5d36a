#include "sim/simulator.hpp"

#include <bit>
#include <cmath>
#include <stdexcept>

#include "common/fnv.hpp"
#include "obs/metrics.hpp"

namespace mvcom::sim {
namespace {

// Fold values byte-granularity-free: one xor-multiply per 64-bit word keeps
// the per-event cost to a couple of cycles (common/fnv.hpp).
using common::fnv1a_mix;

}  // namespace

void Simulator::set_obs(obs::ObsContext obs) {
  obs_scheduled_ = nullptr;
  obs_executed_ = nullptr;
  obs_cancelled_ = nullptr;
  if (obs::MetricsRegistry* m = obs.metrics()) {
    obs_scheduled_ = &m->counter("mvcom_sim_events_total",
                                 "DES events by lifecycle stage",
                                 {{"stage", "scheduled"}});
    obs_executed_ = &m->counter("mvcom_sim_events_total",
                                "DES events by lifecycle stage",
                                {{"stage", "executed"}});
    obs_cancelled_ = &m->counter("mvcom_sim_events_total",
                                 "DES events by lifecycle stage",
                                 {{"stage", "cancelled"}});
  }
}

std::uint32_t Simulator::arm_slot(SimTime at) {
  // Negated so that NaN fails too: it compares false with every instant, so
  // once it became the clock no later instant would count as the past.
  if (!(at >= now_)) {
    throw std::logic_error(
        "Simulator::schedule_at: cannot schedule in the past or at NaN");
  }
  std::uint32_t index;
  if (!free_.empty()) {
    index = free_.back();
    free_.pop_back();
  } else {
    // Every allocated slot is busy: grow the slab by one chunk, take its
    // first slot, and hand the rest to the free list (descending, so low
    // indices are recycled first).
    const std::size_t used = chunks_.size() * kChunkSize;
    chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
    for (std::size_t i = kChunkSize - 1; i > 0; --i) {
      free_.push_back(static_cast<std::uint32_t>(used + i));
    }
    index = static_cast<std::uint32_t>(used);
  }
  heap_push(make_key(at, next_seq_++), pack(index, slot(index).gen));
  ++live_;
  if (obs_scheduled_ != nullptr) obs_scheduled_->inc();
  return index;
}

void Simulator::retire_slot(std::uint32_t index) noexcept {
  Slot& s = slot(index);
  ++s.gen;
  s.cb.reset();
  free_.push_back(index);
}

void Simulator::cancel(EventId id) {
  // Only ids whose generation matches the slot's current incarnation are
  // live; cancelling a fired or unknown id is a no-op (protocol timers are
  // routinely disarmed late). The stale heap entry is skipped lazily.
  const auto index = static_cast<std::uint32_t>(id.value >> 32);
  const auto gen = static_cast<std::uint32_t>(id.value);
  if (gen == 0 || index >= chunks_.size() * kChunkSize) return;
  Slot& s = slot(index);
  if (s.gen != gen || !s.cb.armed()) return;
  retire_slot(index);
  --live_;
  if (obs_cancelled_ != nullptr) obs_cancelled_->inc();
}

// Both percolations carry the moving key and ref in registers and shift the
// displaced ones with single copies (a "hole" walk) instead of swapping at
// every level; same comparison sequence, so the resulting order (and
// therefore the digest) is identical to the textbook swap formulation.
void Simulator::heap_push(HeapKey key, std::uint64_t ref) {
  std::size_t i = heap_.size();
  heap_.push_back(key);  // placeholders; overwritten when the hole settles
  refs_.push_back(ref);
  while (i > 0) {
    const std::size_t parent = (i - 1) >> 2;
    if (!(key < heap_[parent])) break;
    heap_[i] = heap_[parent];
    refs_[i] = refs_[parent];
    i = parent;
  }
  heap_[i] = key;
  refs_[i] = ref;
}

void Simulator::heap_pop_root() noexcept {
  // Floyd's variant: the replacement entry comes from the heap bottom, so
  // instead of comparing it against the min child at every level (it almost
  // always loses), sink the hole straight to a leaf along the min-child path
  // and bubble the entry back up — usually zero or one step. The popped
  // minimum is identical either way (the key order is total), so the
  // executed-event order and the digest cannot change.
  const HeapKey key = heap_.back();
  const std::uint64_t ref = refs_.back();
  heap_.pop_back();
  refs_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  std::size_t i = 0;
  for (;;) {
    const std::size_t first_child = (i << 2) + 1;
    if (first_child >= n) break;
    const std::size_t last_child = std::min(first_child + 4, n);
    std::size_t best = first_child;
    for (std::size_t c = first_child + 1; c < last_child; ++c) {
      if (heap_[c] < heap_[best]) best = c;
    }
    heap_[i] = heap_[best];
    refs_[i] = refs_[best];
    i = best;
  }
  while (i > 0) {
    const std::size_t parent = (i - 1) >> 2;
    if (!(key < heap_[parent])) break;
    heap_[i] = heap_[parent];
    refs_[i] = refs_[parent];
    i = parent;
  }
  heap_[i] = key;
  refs_[i] = ref;
}

void Simulator::fire_head() {
  const HeapKey key = heap_[0];
  const std::uint64_t ref = refs_[0];
  heap_pop_root();
  const std::uint32_t index = ref_slot(ref);
  Slot& s = slot(index);
  assert(pack(index, s.gen) == ref);  // skip_stale_head dropped tombstones
  assert(key_at(key) >= now_);
  now_ = key_at(key);
  ++s.gen;  // disarm: the event's id is dead for cancel() from here on
  --live_;
  ++executed_;
  digest_ = fnv1a_mix(digest_, key_seq(key));
  digest_ = fnv1a_mix(digest_, key_bits(key));
  if (obs_executed_ != nullptr) obs_executed_->inc();
  // The callback stays in its slot for the call (slots are stable even if
  // the callback schedules new events); the slot returns to the free list
  // only afterwards, so reentrant scheduling cannot reuse it mid-call.
  struct Retire {
    Simulator* sim;
    std::uint32_t index;
    ~Retire() {
      Slot& sl = sim->slot(index);
      sl.cb.reset();
      sim->free_.push_back(index);
    }
  } retire{this, index};
  s.cb.invoke();
}

void Simulator::skip_stale_head() noexcept {
  while (!refs_.empty()) {
    // A ref whose slot has moved to a later generation is a tombstone.
    const std::uint64_t ref = refs_[0];
    if (pack(ref_slot(ref), slot(ref_slot(ref)).gen) == ref) return;
    heap_pop_root();
  }
}

std::size_t Simulator::run(std::size_t limit) {
  stopped_ = false;
  std::size_t fired = 0;
  while (fired < limit && !stopped_) {
    skip_stale_head();
    if (heap_.empty()) break;
    fire_head();
    ++fired;
  }
  return fired;
}

std::size_t Simulator::run_until(SimTime horizon) {
  // A NaN horizon would pass every `at > horizon` test and run the queue dry.
  if (std::isnan(horizon.seconds())) {
    throw std::invalid_argument("Simulator::run_until: horizon is NaN");
  }
  stopped_ = false;
  std::size_t fired = 0;
  while (!stopped_) {
    skip_stale_head();
    if (heap_.empty() || key_at(heap_[0]) > horizon) break;
    fire_head();
    ++fired;
  }
  // A stopped run keeps its clock: its pending events up to the horizon
  // must not fall into the past.
  if (!stopped_ && now_ < horizon) now_ = horizon;
  return fired;
}

}  // namespace mvcom::sim
