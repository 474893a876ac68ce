// The original std::map/std::set SPF — the pre-flat-kernel code, kept
// verbatim as the equivalence oracle for the flat kernel in
// src/ospf/spf.cpp. It is test support, not library code:
// tests/ospf/spf_property_test.cpp checks the kernel against it.
#pragma once

#include <vector>

#include "ospf/spf.hpp"

namespace nidkit::ospf {

/// Allocates heavily; use only in tests.
std::vector<Route> compute_routes_reference(const Lsdb& lsdb, RouterId self,
                                            SimTime now);

}  // namespace nidkit::ospf
