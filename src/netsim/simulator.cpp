#include "netsim/simulator.hpp"

#include <algorithm>
#include <cassert>

namespace nidkit::netsim {

std::uint32_t Simulator::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  slots_.emplace_back();
  // The freelist can never hold more entries than the slab has slots, so
  // matching its capacity here keeps release_slot allocation-free even
  // when every in-flight timer drains back at once.
  free_slots_.reserve(slots_.capacity());
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Simulator::release_slot(std::uint32_t slot) {
  auto& s = slots_[slot];
  s.action = Action{};  // a skipped (cancelled) action dies here
  ++s.generation;       // invalidate outstanding handles
  s.cancelled = false;
  free_slots_.push_back(slot);
}

TimerHandle Simulator::schedule_at(SimTime when, Action action) {
  assert(when >= now_ && "cannot schedule into the past");
  const std::uint32_t slot = acquire_slot();
  TimerSlot& s = slots_[slot];
  s.action = std::move(action);
  heap_.push_back(Event{when, next_seq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return TimerHandle{this, slot, s.generation};
}

TimerHandle Simulator::schedule(SimDuration delay, Action action) {
  return schedule_at(now_ + delay, std::move(action));
}

bool Simulator::step() {
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    const Event ev = heap_.back();
    heap_.pop_back();
    TimerSlot& s = slots_[ev.slot];
    if (s.cancelled) {
      release_slot(ev.slot);
      continue;
    }
    // Move the action out before its slot is freed: running it may
    // schedule events, which can reuse the slot or grow (and move) the
    // slab.
    Action action = std::move(s.action);
    release_slot(ev.slot);
    now_ = ev.when;
    ++executed_;
    action();
    return true;
  }
  return false;
}

void Simulator::run_until(SimTime deadline) {
  while (!heap_.empty()) {
    const Event top = heap_.front();
    if (slots_[top.slot].cancelled) {
      // Dropped here, before the deadline check: step() would skip it and
      // run the next live event however far past the deadline.
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      heap_.pop_back();
      release_slot(top.slot);
      continue;
    }
    if (top.when > deadline) break;
    step();
  }
  if (now_ < deadline) now_ = deadline;
}

void Simulator::run() {
  while (step()) {
  }
}

}  // namespace nidkit::netsim
