#include "sim/simulator.hpp"

#include <bit>
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
  if (at < now_) {
    throw std::logic_error("Simulator::schedule_at: cannot schedule in the past");
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
  heap_push(HeapEntry{at, next_seq_++, index, slot(index).gen});
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

// Both percolations carry the moving entry in registers and shift the
// displaced entries with single copies (a "hole" walk) instead of swapping
// 24-byte entries at every level — one third of the memory traffic, same
// comparison sequence, so the resulting order (and therefore the digest) is
// identical to the textbook swap formulation.
void Simulator::heap_push(const HeapEntry& e) {
  std::size_t i = heap_.size();
  heap_.push_back(e);  // placeholder; overwritten when the hole settles
  while (i > 0) {
    const std::size_t parent = (i - 1) >> 2;
    if (!entry_before(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void Simulator::heap_pop_root() noexcept {
  // Floyd's variant: the replacement entry comes from the heap bottom, so
  // instead of comparing it against the min child at every level (it almost
  // always loses), sink the hole straight to a leaf along the min-child path
  // and bubble the entry back up — usually zero or one step. The popped
  // minimum is identical either way (the (at, seq) order is total), so the
  // executed-event order and the digest cannot change.
  const HeapEntry e = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  std::size_t i = 0;
  for (;;) {
    const std::size_t first_child = (i << 2) + 1;
    if (first_child >= n) break;
    const std::size_t last_child = std::min(first_child + 4, n);
    std::size_t best = first_child;
    for (std::size_t c = first_child + 1; c < last_child; ++c) {
      if (entry_before(heap_[c], heap_[best])) best = c;
    }
    heap_[i] = heap_[best];
    i = best;
  }
  while (i > 0) {
    const std::size_t parent = (i - 1) >> 2;
    if (!entry_before(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void Simulator::fire_head() {
  const HeapEntry top = heap_[0];
  heap_pop_root();
  Slot& s = slot(top.slot);
  assert(s.gen == top.gen);  // skip_stale_head dropped the tombstones
  assert(top.at >= now_);
  now_ = top.at;
  ++s.gen;  // disarm: the event's id is dead for cancel() from here on
  --live_;
  ++executed_;
  digest_ = fnv1a_mix(digest_, top.seq);
  digest_ = fnv1a_mix(digest_, std::bit_cast<std::uint64_t>(top.at.seconds()));
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
  } retire{this, top.slot};
  s.cb.invoke();
}

void Simulator::skip_stale_head() noexcept {
  while (!heap_.empty() && slot(heap_[0].slot).gen != heap_[0].gen) {
    heap_pop_root();
  }
}

std::size_t Simulator::run(std::size_t limit) {
  std::size_t fired = 0;
  while (fired < limit) {
    skip_stale_head();
    if (heap_.empty()) break;
    fire_head();
    ++fired;
  }
  return fired;
}

std::size_t Simulator::run_until(SimTime horizon) {
  std::size_t fired = 0;
  for (;;) {
    skip_stale_head();
    if (heap_.empty() || heap_[0].at > horizon) break;
    fire_head();
    ++fired;
  }
  if (now_ < horizon) now_ = horizon;
  return fired;
}

}  // namespace mvcom::sim
