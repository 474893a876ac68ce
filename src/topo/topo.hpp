// Topology builders.
//
// The paper improves the extensiveness of mined relationships by running
// each implementation over diverse topologies — linear chains with 2 or 5
// routers and meshes with 3 or 5 routers in its experiments, with "more
// topologies can be added" noted. These builders cover the paper's four
// plus further shapes (ring, star, tree, broadcast LAN) used by the
// extensiveness bench.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netsim/network.hpp"

namespace nidkit::topo {

enum class Kind {
  kLinear,  ///< chain of p2p links
  kMesh,    ///< full mesh of p2p links
  kRing,    ///< cycle of p2p links
  kStar,    ///< hub-and-spoke p2p
  kTree,    ///< balanced binary tree of p2p links
  kLan,     ///< single broadcast segment (exercises DR election)
};

std::string to_string(Kind kind);

/// Declarative topology: kind + router count.
struct Spec {
  Kind kind = Kind::kLinear;
  std::size_t routers = 2;

  std::string name() const;
};

/// The paper's four topologies: linear-2, mesh-3, linear-5, mesh-5.
std::vector<Spec> paper_topologies();

/// Extended set: the paper's four plus ring-4, star-5, tree-7, lan-4.
std::vector<Spec> extended_topologies();

/// Nodes and segments created for a spec.
struct Built {
  Spec spec;
  std::vector<netsim::NodeId> nodes;
  std::vector<netsim::SegmentId> segments;
};

/// Most routers a spec may have. Router i gets id b.b.b.b and LAN host
/// address .b with b = i + 1, so a 255th would take a broadcast address and
/// a 256th would wrap to 0.0.0.0.
inline constexpr std::size_t kMaxRouters = 254;

/// Why `spec` cannot be built — fewer than 2 routers, more than
/// kMaxRouters, or a ring of fewer than 3 — or nullptr when it can.
const char* spec_error(const Spec& spec);

/// Instantiates `spec` inside `net` with nodes named r0, r1, ...
/// Throws std::invalid_argument with spec_error's reason for a spec that
/// cannot be built.
Built build(netsim::Network& net, const Spec& spec);

}  // namespace nidkit::topo
