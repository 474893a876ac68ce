// Deterministic discrete-event simulator core.
//
// A single event queue ordered by (time, insertion sequence) drives the
// whole network: link deliveries, protocol timers, chaos-rule activations
// and harness probes are all events. The insertion-sequence tiebreak makes
// simultaneous events execute in a fixed order, so a (scenario, seed) pair
// always produces an identical trace.
//
// The hot path is allocation-free at steady state: actions live in
// util::InlineAction's small buffer (no heap for any closure the engines
// create), and each one sits in a slab of generation-counted slots
// recycled through a freelist, so schedule/cancel never allocate once the
// slab and event heap have grown to the workload's high-water mark. The
// heap itself orders 24-byte keys that name their slot, so a sift never
// moves an action.
#pragma once

#include <cstdint>
#include <type_traits>
#include <vector>

#include "util/inline_action.hpp"
#include "util/time.hpp"

namespace nidkit::netsim {

using Action = util::InlineAction;

/// Handle to a scheduled event. Cancelling is O(1): the event stays queued
/// but is skipped when it reaches the head. A default-constructed handle is
/// inert. Handles weakly reference a slab slot via a generation counter, so
/// a handle held past its event's execution is harmless — but a handle must
/// not outlive the Simulator it came from.
class TimerHandle {
 public:
  TimerHandle() = default;

  /// Prevents the event from running. Safe to call repeatedly or after the
  /// event has already fired.
  void cancel();

  bool valid() const { return sim_ != nullptr; }

 private:
  friend class Simulator;
  TimerHandle(class Simulator* sim, std::uint32_t slot, std::uint32_t gen)
      : sim_(sim), slot_(slot), generation_(gen) {}

  class Simulator* sim_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t generation_ = 0;
};

/// The event loop. Not thread-safe; the whole simulation is single-threaded.
class Simulator {
 public:
  SimTime now() const { return now_; }

  /// Schedules `action` at absolute time `when` (must be >= now()).
  TimerHandle schedule_at(SimTime when, Action action);

  /// Schedules `action` `delay` after now().
  TimerHandle schedule(SimDuration delay, Action action);

  /// Executes the next non-cancelled event. Returns false if none remain.
  bool step();

  /// Runs events with time <= deadline and none later (cancelled events
  /// at the front are dropped first), then advances the clock to
  /// `deadline` even if the queue drained early.
  void run_until(SimTime deadline);

  /// Runs until the queue is empty. Only safe for workloads that terminate
  /// (protocol engines re-arm periodic timers forever; use run_until).
  void run();

  std::size_t pending() const { return heap_.size(); }
  std::uint64_t executed() const { return executed_; }
  /// Events scheduled since construction or reset(), cancelled ones too.
  std::uint64_t scheduled() const { return next_seq_; }

  /// Returns the simulator to its just-constructed state — clock at
  /// kSimStart, empty queue, zeroed counters — while keeping the event
  /// heap, timer slab and freelist capacity, so a reused simulator reaches
  /// its high-water mark allocation-free. Outstanding TimerHandles must
  /// not be used afterwards (their owners are torn down first by
  /// harness::Workspace::reset).
  void reset() {
    heap_.clear();
    slots_.clear();
    free_slots_.clear();
    now_ = kSimStart;
    next_seq_ = 0;
    executed_ = 0;
  }

 private:
  friend class TimerHandle;

  /// A queued event's action and the cancellation state it shares with
  /// its handle. The generation counter bumps every time the slot is
  /// recycled, so a stale handle (event already fired) can never cancel the
  /// slot's next tenant. The action stays here, not in the heap, so heap
  /// sifts never relocate it.
  struct TimerSlot {
    Action action;
    std::uint32_t generation = 0;
    bool cancelled = false;
  };

  /// Heap key: execution order is (when, seq); `slot` holds the action.
  struct Event {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  static_assert(sizeof(Event) == 24 && std::is_trivially_copyable_v<Event>);
  /// Heap comparator: the "largest" element (heap front) is the earliest
  /// (time, seq) — identical ordering to the previous std::priority_queue.
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);

  SimTime now_{kSimStart};
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  /// Binary heap over a plain vector (std::push_heap/pop_heap) rather than
  /// std::priority_queue: the backing storage is reusable and reservable.
  std::vector<Event> heap_;
  std::vector<TimerSlot> slots_;
  std::vector<std::uint32_t> free_slots_;
};

inline void TimerHandle::cancel() {
  if (sim_ == nullptr) return;
  auto& slot = sim_->slots_[slot_];
  if (slot.generation == generation_) slot.cancelled = true;
}

}  // namespace nidkit::netsim
