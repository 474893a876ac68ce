// Shortest-path-first route computation (§16), single area, with
// equal-cost multipath — flat kernel and memoizing cache.
//
// The flat kernel (`compute_routes`) runs Dijkstra over dense index-based
// arrays: LSAs are deduplicated into flat per-type vectors fed from the
// Lsdb's typed index, vertices are small integers (routers sorted by id,
// then transit networks sorted by DR address — exactly the tie order of
// the reference's (is_network, id) vertex ordering, so equal-cost pops
// happen in the same sequence and ECMP hop propagation is identical), the
// candidate list is a binary heap of packed (dist, index) words, and
// next-hop sets are util::SmallVec. All working storage lives in a
// caller-owned SpfScratch, which stops allocating once warm; a recompute's
// only allocations are then the output routes' next-hop vectors.
//
// `RouteCache` memoizes the kernel's output keyed by the Lsdb's content
// version plus an age-validity horizon: the earliest simulated instant at
// which any live LSA crosses MaxAge (which changes the collection outcome
// without a version bump). Probes inside [computed_at, valid_until) with
// an unchanged version return the cached vector untouched.
//
// The original std::map/std::set implementation is test support: the
// oracle the SPF equivalence property suite compares the kernel against
// (tests/ospf/spf_reference.hpp).
#pragma once

#include <cstdint>
#include <vector>

#include "ospf/lsdb.hpp"
#include "util/small_vec.hpp"
#include "util/time.hpp"

namespace nidkit::ospf {

/// A computed route (SPF output). Equal-cost multipath is supported:
/// `next_hops` lists every tied next-hop router; `via` is the primary
/// (lowest router id), kept for convenience.
struct Route {
  Ipv4Addr prefix;
  Ipv4Addr mask;
  std::uint32_t cost = 0;
  RouterId via;  ///< primary next hop (0 for directly attached)
  std::vector<RouterId> next_hops;  ///< all equal-cost next hops

  friend bool operator==(const Route&, const Route&) = default;
};

/// Reusable working storage for the flat SPF kernel. Vectors are cleared
/// (capacity retained) at the start of every compute, so a warm scratch
/// allocates nothing; the output's next-hop vectors still do.
struct SpfScratch {
  using HopSet = util::SmallVec<RouterId, 4>;

  /// One deduplicated router/network LSA (nullptr body = wrong variant
  /// stored under the key; participates in dedup but acts as absent).
  struct RouterSlot {
    Ipv4Addr id;
    const RouterLsaBody* body = nullptr;
  };
  struct NetworkSlot {
    Ipv4Addr id;  ///< DR interface address
    const NetworkLsaBody* body = nullptr;
  };
  struct ExternalSlot {
    Ipv4Addr prefix;
    RouterId origin;
    const ExternalLsaBody* body = nullptr;
  };

  std::vector<RouterSlot> routers;
  std::vector<NetworkSlot> networks;
  std::vector<ExternalSlot> externals;

  // Dijkstra state, indexed by vertex (router index, or R + network index).
  std::vector<std::uint32_t> dist;
  std::vector<std::uint8_t> reached;
  std::vector<std::uint8_t> done;
  std::vector<HopSet> hops;
  std::vector<std::uint64_t> heap;  ///< packed (dist << 32 | vertex index)

  /// Route offers accumulated before the final (prefix, mask) group merge.
  struct Offer {
    std::uint32_t prefix;
    std::uint32_t mask;
    std::uint32_t cost;
    std::uint32_t vertex;  ///< vertex whose hop set the route inherits
  };
  std::vector<Offer> offers;
};

/// Flat-kernel SPF: computes `self`'s routing table over `lsdb` at `now`
/// into `out` (cleared first). When `valid_until` is non-null it receives
/// the earliest instant at which a live LSA crosses MaxAge (SimTime::max()
/// if none will) — the result is valid for any probe in [now, *valid_until)
/// at the same Lsdb version. Output is byte-identical to the reference
/// oracle's.
void compute_routes(const Lsdb& lsdb, RouterId self, SimTime now,
                    SpfScratch& scratch, std::vector<Route>& out,
                    SimTime* valid_until = nullptr);

/// Memoized per-router routing table: a probe is a version compare plus a
/// horizon check; only LSDB content changes or MaxAge crossings trigger a
/// recompute.
class RouteCache {
 public:
  /// The routing table at `now`. The returned reference is valid until the
  /// next get() with a changed LSDB (or expired horizon).
  const std::vector<Route>& get(const Lsdb& lsdb, RouterId self, SimTime now) {
    if (cached_version_ == lsdb.version() && now >= computed_at_ &&
        now < valid_until_) {
      return routes_;
    }
    compute_routes(lsdb, self, now, scratch_, routes_, &valid_until_);
    cached_version_ = lsdb.version();
    computed_at_ = now;
    ++recomputes_;
    return routes_;
  }

  /// Number of actual kernel runs (cache misses) so far.
  std::uint64_t recomputes() const { return recomputes_; }

 private:
  SpfScratch scratch_;
  std::vector<Route> routes_;
  std::uint64_t cached_version_ = ~std::uint64_t{0};
  SimTime computed_at_{0};
  SimTime valid_until_{0};
  std::uint64_t recomputes_ = 0;
};

}  // namespace nidkit::ospf
