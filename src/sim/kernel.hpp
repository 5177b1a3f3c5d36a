#pragma once
// Typed-event kernel interface of the DES engine (DESIGN.md §16).
//
// The protocol hot paths (PBFT message delivery and phase advance, heartbeat
// ticks) fire millions of structurally identical events per epoch. A
// component may describe such an event as a fixed 16-byte payload plus a
// kernel id instead of a type-erased callback: the engine stores payloads
// in a flat arena, groups ready events into cohorts of equal (timestamp,
// kernel), and hands each cohort to the kernel as one struct-of-arrays
// call. A cohort executes exactly the events, in exactly the (timestamp,
// sequence) order, that firing each typed event on its own as a cohort of
// one would; tests/test_sim_kernels.cpp checks that against a test-local
// one-event-at-a-time oracle.

#include <cstddef>
#include <cstdint>

namespace mvcom::sim {

/// Fixed-size typed-event payload. Components pack whatever the kernel needs
/// to decode the event (replica/committee ids, phase tags, interned digest
/// indices) into the two words; anything larger belongs on the callback path.
struct TypedPayload {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

/// A batch kernel: executes `n` events carrying `cohort[0..n)` payloads, all
/// sharing one timestamp (= Simulator::now() during the call). The kernel
/// runs its elements in array order — that order is the events' global
/// (timestamp, sequence) order, so per-element side effects (RNG draws,
/// schedules) must happen in index order to preserve determinism. Kernels
/// may re-enter the simulator (schedule_typed / schedule_at / cancel) but
/// must not call run/run_until. Typed events cannot be cancelled.
using KernelFn = void (*)(void* ctx, const TypedPayload* cohort,
                          std::size_t n);

/// Dense kernel handle returned by Simulator::register_kernel.
struct KernelId {
  std::uint16_t value = 0;
  friend bool operator==(KernelId, KernelId) = default;
};

}  // namespace mvcom::sim
