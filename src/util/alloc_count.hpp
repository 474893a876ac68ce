// Global-allocation counter hook.
//
// Linking the companion nidkit_alloc_count library replaces the global
// operator new/delete with counting forwarders. The binary that proves
// allocation budgets (alloc_budget_tests) links it and reads the counter
// around the measured region; everything else never references these
// symbols and pays nothing. The counter is a relaxed atomic: the simulator
// hot path is single-threaded, and cross-thread counts only need eventual
// totals.
#pragma once

#include <cstdint>

namespace nidkit::util {

/// Total calls into the counting operator new since process start.
/// Only meaningful in binaries linked against nidkit_alloc_count.
std::uint64_t allocation_count() noexcept;

}  // namespace nidkit::util
