// Scenario runner: one emulated network, one implementation, one topology.
//
// This is the equivalent of the paper's "small-scale network running a
// single implementation inside Docker, delayed with Pumba, captured with
// tcpdump": it wires up the simulator, topology, chaos delay, routers and
// trace log, runs for a configured duration, and hands back the trace plus
// convergence/health statistics.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "bgp/bgp_router.hpp"
#include "cov/cov.hpp"
#include "netsim/chaos.hpp"
#include "obs/obs.hpp"
#include "netsim/network.hpp"
#include "netsim/simulator.hpp"
#include "ospf/router.hpp"
#include "rip/rip_router.hpp"
#include "topo/topo.hpp"
#include "trace/trace.hpp"

namespace nidkit::harness {

using namespace std::chrono_literals;

/// Which protocol the network runs.
enum class Protocol { kOspf, kRip, kBgp };

struct Scenario {
  Protocol protocol = Protocol::kOspf;
  topo::Spec topology{topo::Kind::kLinear, 2};

  /// OSPF behaviour profile for every router in the network (the paper
  /// runs one implementation per network).
  ospf::BehaviorProfile ospf_profile;
  /// RIP behaviour profile (protocol == kRip).
  rip::RipProfile rip_profile;
  /// BGP behaviour profile (protocol == kBgp).
  bgp::BgpProfile bgp_profile;
  /// BGP workload: the AS_PATH prepend length of the long-path
  /// announcement injected at the first churn time (the 2009-incident
  /// stimulus). 0 disables it.
  std::size_t bgp_longpath_prepend = 120;

  /// The injected per-interface one-way delay (the paper's TDelay).
  SimDuration tdelay = 900ms;
  /// Uniform extra delay in [0, jitter] modeling RTT/processing variance.
  SimDuration link_jitter = 10ms;
  /// Frame loss probability per segment (containers under load do drop
  /// packets; loss also exercises the retransmission machinery).
  double link_loss = 0.002;
  SimDuration duration = 180s;
  std::uint64_t seed = 1;

  /// Workload churn: routers originate external LSAs (OSPF) or extra
  /// prefixes (RIP) at these times, creating LSDB/table changes mid-run.
  std::vector<SimTime> churn_times = {60s, 110s};

  /// Keep raw wire bytes in each trace record. On by default so direct
  /// scenario runs can save and pcap-export their traces; the experiment
  /// pipelines turn it off (digests are all the miner reads).
  bool keep_bytes = true;
};

/// Everything a run produces. Routers and network are torn down; the trace
/// and summary statistics survive.
struct ScenarioResult {
  trace::TraceLog log;
  std::size_t routers = 0;
  std::size_t segments = 0;
  /// Sum of Full adjacencies over all routers at the end of the run
  /// (OSPF; each adjacency is counted from both ends).
  std::size_t full_adjacencies = 0;
  /// True when every router pair expected to be adjacent reached Full.
  bool converged = false;
  /// First simulation instant at which the expected adjacency count was
  /// reached (OSPF; sampled at 1 s granularity). -1 s if never.
  SimTime convergence_time{-1s};
  /// Routers' route tables agreed pairwise on prefix->cost at the end.
  bool routes_consistent = false;
  std::uint64_t frames_delivered = 0;
  std::uint64_t frames_dropped = 0;
  ospf::Router::Stats ospf_totals;
  rip::RipRouter::Stats rip_totals;
  bgp::BgpRouter::Stats bgp_totals;
  /// Deterministic per-scenario metric deltas (simulated-time domain).
  /// Always collected — it is cheap, end-of-run bookkeeping — so cached
  /// results can replay their metrics on a warm run. Folded into the
  /// run's obs::RunRecord in canonical job order by the fan-out layer.
  obs::ScenarioMetrics metrics;
  /// Canonical behavioral-coverage feature set. Like `metrics`, always
  /// collected (cache entries never depend on reporting flags) and folded
  /// into the same record.
  cov::CoverageVector coverage;
};

class Workspace;

/// Runs one scenario to completion. Deterministic in (scenario, seed).
/// Uses the calling thread's Workspace (see workspace.hpp), so
/// back-to-back scenarios on one thread reuse simulator/network/router
/// storage — with output byte-identical to a fresh construction.
ScenarioResult run_scenario(const Scenario& scenario);

/// Same, on an explicit workspace (reset()s it first). Exposed for tests
/// and benchmarks that manage workspace lifetime themselves.
ScenarioResult run_scenario(const Scenario& scenario, Workspace& ws);

/// Adds a finished simulation's own totals (events run and scheduled,
/// frames delivered and dropped) to the wall registry's process counters;
/// a no-op while recording is off. run_scenario and inject_and_observe
/// call it once per simulation, so the event loop itself never reads the
/// registry.
void count_simulation(const netsim::Simulator& sim,
                      const netsim::Network& net);

/// Expected number of Full adjacency endpoints for a topology (2 per
/// p2p link; LAN: 2*(n-1) DR-centric pairs... computed per spec).
std::size_t expected_adjacency_endpoints(const topo::Spec& spec);

}  // namespace nidkit::harness
