// SPF kernel microbenchmark: cold reference vs flat kernel vs memoized
// probes, on three synthetic LSDB shapes.
//
// The audit pipeline probes routing tables after every scenario (route
// consistency checks, convergence sampling), and before the flat kernel
// every probe re-ran the std::map/std::set Dijkstra from scratch. This
// bench isolates the three cost tiers the incremental-SPF work created:
//
//   cold      compute_routes_reference — the retained naive oracle, what
//             every probe used to cost.
//   flat      compute_routes on a reused SpfScratch — the dense-index
//             kernel, same answer, no per-run node allocations.
//   memoized  RouteCache::get on an unchanged database — a version
//             compare plus a validity-horizon check; what repeated probes
//             between topology changes cost now.
//
// Topologies: a full mesh (dense, ECMP-heavy), a ring (sparse, long
// paths), and an ISP-like two-tier shape (core mesh + edge stars + a LAN
// + externals) sized like the larger audit scenarios.
//
// Exits nonzero when the speedups the PR promises stop holding:
// memoized >= 5x cold, flat measurably (>= 1.1x) faster than cold, and
// flat/reference answers identical on every shape.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "ospf/lsdb.hpp"
#include "ospf/spf.hpp"
#include "spf_reference.hpp"
#include "util/ip.hpp"

using namespace nidkit;
using namespace nidkit::ospf;
using namespace std::chrono_literals;
using Clock = std::chrono::steady_clock;

namespace {

RouterId rid(std::uint32_t i) {
  return RouterId{static_cast<std::uint8_t>((i >> 8) + 1),
                  static_cast<std::uint8_t>(i & 0xff), 0, 1};
}

Lsa router_lsa(RouterId id, std::vector<RouterLink> links) {
  Lsa lsa;
  lsa.header.type = LsaType::kRouter;
  lsa.header.link_state_id = Ipv4Addr{id.value()};
  lsa.header.advertising_router = id;
  lsa.body = RouterLsaBody{0, std::move(links)};
  return lsa;
}

void add_p2p(std::vector<std::vector<RouterLink>>& links, std::size_t a,
             std::size_t b, std::uint16_t metric) {
  links[a].push_back({Ipv4Addr{rid(static_cast<std::uint32_t>(b)).value()},
                      Ipv4Addr{}, RouterLinkType::kPointToPoint, metric});
  links[b].push_back({Ipv4Addr{rid(static_cast<std::uint32_t>(a)).value()},
                      Ipv4Addr{}, RouterLinkType::kPointToPoint, metric});
}

void add_stub(std::vector<std::vector<RouterLink>>& links, std::size_t i) {
  links[i].push_back({Ipv4Addr{10, 1, static_cast<std::uint8_t>(i >> 8),
                               static_cast<std::uint8_t>(i & 0xff)},
                      Ipv4Addr{255, 255, 255, 255}, RouterLinkType::kStub, 1});
}

struct Shape {
  std::string name;
  Lsdb db;
  std::size_t routers = 0;
};

Shape make_mesh(std::size_t n) {
  Shape s;
  s.name = "mesh-" + std::to_string(n);
  s.routers = n;
  std::vector<std::vector<RouterLink>> links(n);
  for (std::size_t a = 0; a < n; ++a)
    for (std::size_t b = a + 1; b < n; ++b) add_p2p(links, a, b, 10);
  for (std::size_t i = 0; i < n; ++i) {
    add_stub(links, i);
    s.db.install(router_lsa(rid(static_cast<std::uint32_t>(i)), links[i]),
                 0s);
  }
  return s;
}

Shape make_ring(std::size_t n) {
  Shape s;
  s.name = "ring-" + std::to_string(n);
  s.routers = n;
  std::vector<std::vector<RouterLink>> links(n);
  for (std::size_t i = 0; i < n; ++i)
    add_p2p(links, i, (i + 1) % n, 1 + static_cast<std::uint16_t>(i % 3));
  for (std::size_t i = 0; i < n; ++i) {
    add_stub(links, i);
    s.db.install(router_lsa(rid(static_cast<std::uint32_t>(i)), links[i]),
                 0s);
  }
  return s;
}

/// Two-tier ISP-like shape: a core mesh, `edge` stub routers hanging off
/// each core router, a LAN joining the first three cores, and externals
/// originated at the last core (the AS exit).
Shape make_isp(std::size_t core, std::size_t edge) {
  Shape s;
  const std::size_t n = core + core * edge;
  s.name = "isp-" + std::to_string(n);
  s.routers = n;
  std::vector<std::vector<RouterLink>> links(n);
  for (std::size_t a = 0; a < core; ++a)
    for (std::size_t b = a + 1; b < core; ++b) add_p2p(links, a, b, 5);
  for (std::size_t c = 0; c < core; ++c)
    for (std::size_t e = 0; e < edge; ++e)
      add_p2p(links, c, core + c * edge + e, 20);

  const Ipv4Addr dr_addr{10, 200, 0, 1};
  const Ipv4Addr lan_mask{255, 255, 255, 0};
  std::vector<RouterId> attached;
  for (std::size_t c = 0; c < 3 && c < core; ++c) {
    attached.push_back(rid(static_cast<std::uint32_t>(c)));
    links[c].push_back({dr_addr,
                        Ipv4Addr{10, 200, 0, static_cast<std::uint8_t>(c + 1)},
                        RouterLinkType::kTransit, 1});
  }

  for (std::size_t i = 0; i < n; ++i) {
    add_stub(links, i);
    s.db.install(router_lsa(rid(static_cast<std::uint32_t>(i)), links[i]),
                 0s);
  }

  Lsa net_lsa;
  net_lsa.header.type = LsaType::kNetwork;
  net_lsa.header.link_state_id = dr_addr;
  net_lsa.header.advertising_router = rid(0);
  net_lsa.body = NetworkLsaBody{lan_mask, attached};
  s.db.install(net_lsa, 0s);

  for (std::uint8_t e = 0; e < 8; ++e) {
    Lsa ext;
    ext.header.type = LsaType::kExternal;
    ext.header.link_state_id = Ipv4Addr{203, 0, e, 0};
    ext.header.advertising_router = rid(static_cast<std::uint32_t>(core - 1));
    ExternalLsaBody body;
    body.network_mask = Ipv4Addr{255, 255, 255, 0};
    body.type2 = true;
    body.metric = 10 + e;
    ext.body = body;
    s.db.install(ext, 0s);
  }
  return s;
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Runs `fn` repeatedly for ~`budget` wall seconds, returns calls/sec.
template <typename Fn>
double rate_of(Fn&& fn, double budget) {
  // Calibrate the batch size so the timed loop checks the clock rarely.
  std::uint64_t batch = 1;
  for (;;) {
    const auto start = Clock::now();
    for (std::uint64_t i = 0; i < batch; ++i) fn();
    if (seconds_since(start) > budget / 50 || batch > (1ull << 30)) break;
    batch *= 4;
  }
  std::uint64_t calls = 0;
  const auto start = Clock::now();
  double elapsed = 0;
  do {
    for (std::uint64_t i = 0; i < batch; ++i) fn();
    calls += batch;
    elapsed = seconds_since(start);
  } while (elapsed < budget);
  return calls / elapsed;
}

}  // namespace

int main(int argc, char** argv) {
  bool short_mode = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--short") == 0) {
      short_mode = true;
    } else {
      std::fprintf(stderr, "usage: micro_spf [--short]\n");
      return 2;
    }
  }
  const double budget = short_mode ? 0.1 : 0.5;

  std::vector<Shape> shapes;
  shapes.push_back(make_mesh(short_mode ? 12 : 24));
  shapes.push_back(make_ring(short_mode ? 16 : 48));
  shapes.push_back(make_isp(short_mode ? 4 : 8, 3));

  std::printf("=== SPF kernel microbenchmark (%s mode) ===\n\n",
              short_mode ? "short" : "full");
  std::printf("%-10s %14s %14s %16s %8s %8s\n", "shape", "cold/s", "flat/s",
              "memoized/s", "flat_x", "memo_x");

  bool ok = true;
  const SimTime now = 30s;
  for (Shape& shape : shapes) {
    const RouterId self = rid(0);

    // Answers must agree before timing means anything.
    SpfScratch scratch;
    std::vector<Route> flat_routes;
    compute_routes(shape.db, self, now, scratch, flat_routes);
    const auto ref_routes = compute_routes_reference(shape.db, self, now);
    if (!(flat_routes == ref_routes)) {
      std::printf("%-10s FLAT KERNEL DISAGREES WITH REFERENCE\n",
                  shape.name.c_str());
      ok = false;
      continue;
    }

    const double cold = rate_of(
        [&] { (void)compute_routes_reference(shape.db, self, now); }, budget);
    const double flat = rate_of(
        [&] { compute_routes(shape.db, self, now, scratch, flat_routes); },
        budget);
    RouteCache cache;
    (void)cache.get(shape.db, self, now);
    const double memo =
        rate_of([&] { (void)cache.get(shape.db, self, now); }, budget);

    const double flat_x = flat / cold;
    const double memo_x = memo / cold;
    std::printf("%-10s %14.0f %14.0f %16.0f %7.1fx %7.0fx\n",
                shape.name.c_str(), cold, flat, memo, flat_x, memo_x);

    // The PR's promises: memoized probes >= 5x a cold recompute, and the
    // flat kernel a measurable (>= 1.1x) win over the reference.
    if (memo_x < 5.0) {
      std::printf("  FAIL: memoized probe speedup %.1fx < 5x\n", memo_x);
      ok = false;
    }
    if (flat_x < 1.1) {
      std::printf("  FAIL: flat kernel speedup %.2fx < 1.1x\n", flat_x);
      ok = false;
    }
  }

  std::printf("\nspf gates (flat >= 1.1x, memoized >= 5x): %s\n",
              ok ? "ok" : "FAIL");
  return ok ? 0 : 3;
}
