#include "topo/topo.hpp"

#include <stdexcept>
#include <string>
#include <utility>

namespace nidkit::topo {

std::string to_string(Kind kind) {
  switch (kind) {
    case Kind::kLinear: return "linear";
    case Kind::kMesh: return "mesh";
    case Kind::kRing: return "ring";
    case Kind::kStar: return "star";
    case Kind::kTree: return "tree";
    case Kind::kLan: return "lan";
  }
  return "?";
}

std::string Spec::name() const {
  return to_string(kind) + "-" + std::to_string(routers);
}

std::vector<Spec> paper_topologies() {
  return {Spec{Kind::kLinear, 2}, Spec{Kind::kMesh, 3},
          Spec{Kind::kLinear, 5}, Spec{Kind::kMesh, 5}};
}

std::vector<Spec> extended_topologies() {
  auto specs = paper_topologies();
  specs.push_back(Spec{Kind::kRing, 4});
  specs.push_back(Spec{Kind::kStar, 5});
  specs.push_back(Spec{Kind::kTree, 7});
  specs.push_back(Spec{Kind::kLan, 4});
  return specs;
}

const char* spec_error(const Spec& spec) {
  if (spec.routers < 2) return "topology needs at least 2 routers";
  if (spec.routers > kMaxRouters)
    return "topology takes at most 254 routers: each router gets one octet "
           "of the address plan (router id b.b.b.b, LAN host .b)";
  if (spec.kind == Kind::kRing && spec.routers < 3)
    return "a ring needs at least 3 routers";
  return nullptr;
}

Built build(netsim::Network& net, const Spec& spec) {
  if (const char* why = spec_error(spec)) throw std::invalid_argument(why);

  Built out;
  out.spec = spec;
  // Exact counts are known up front; reserving keeps a warm-workspace
  // scenario setup at two allocations (these result vectors), which the
  // workspace alloc-budget test pins down.
  out.nodes.reserve(spec.routers);
  out.segments.reserve(spec.kind == Kind::kMesh
                           ? spec.routers * (spec.routers - 1) / 2
                           : spec.routers);
  for (std::size_t i = 0; i < spec.routers; ++i) {
    // Appended, not `"r" + ...`: GCC 12 -O3 misreads that as an
    // overlapping copy (-Wrestrict).
    std::string name = "r";
    name += std::to_string(i);
    out.nodes.push_back(net.add_node(std::move(name)));
  }
  const auto& n = out.nodes;

  switch (spec.kind) {
    case Kind::kLinear:
      for (std::size_t i = 0; i + 1 < n.size(); ++i)
        out.segments.push_back(net.add_p2p(n[i], n[i + 1]));
      break;
    case Kind::kMesh:
      for (std::size_t i = 0; i < n.size(); ++i)
        for (std::size_t j = i + 1; j < n.size(); ++j)
          out.segments.push_back(net.add_p2p(n[i], n[j]));
      break;
    case Kind::kRing:
      for (std::size_t i = 0; i < n.size(); ++i)
        out.segments.push_back(net.add_p2p(n[i], n[(i + 1) % n.size()]));
      break;
    case Kind::kStar:
      for (std::size_t i = 1; i < n.size(); ++i)
        out.segments.push_back(net.add_p2p(n[0], n[i]));
      break;
    case Kind::kTree:
      for (std::size_t i = 1; i < n.size(); ++i)
        out.segments.push_back(net.add_p2p(n[(i - 1) / 2], n[i]));
      break;
    case Kind::kLan:
      out.segments.push_back(net.add_lan(n));
      break;
  }
  return out;
}

}  // namespace nidkit::topo
