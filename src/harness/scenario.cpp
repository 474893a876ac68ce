#include "harness/scenario.hpp"

#include <algorithm>
#include <map>

#include "harness/workspace.hpp"

namespace nidkit::harness {

std::size_t expected_adjacency_endpoints(const topo::Spec& spec) {
  const std::size_t n = spec.routers;
  switch (spec.kind) {
    case topo::Kind::kLinear:
      return 2 * (n - 1);
    case topo::Kind::kMesh:
      return n * (n - 1);
    case topo::Kind::kRing:
      return 2 * n;
    case topo::Kind::kStar:
    case topo::Kind::kTree:
      return 2 * (n - 1);
    case topo::Kind::kLan:
      // Adjacencies form with DR and BDR only: the DR and BDR are adjacent
      // to everyone (n-1 each), others to the two of them.
      return n <= 2 ? 2 : 2 * (n - 1) + 2 * (n - 2);
  }
  return 0;
}

void count_simulation(const netsim::Simulator& sim,
                      const netsim::Network& net) {
  obs::Registry::instance().add_process_counts(
      {sim.executed(), sim.scheduled(), net.frames_delivered(),
       net.frames_dropped()});
}

ScenarioResult run_scenario(const Scenario& scenario) {
  return run_scenario(scenario, Workspace::of_current_thread());
}

ScenarioResult run_scenario(const Scenario& scenario, Workspace& ws) {
  // The workspace hands back simulator/network state identical to a fresh
  // construction; only the allocations are recycled.
  ws.reset(scenario.seed);
  netsim::Simulator& sim = ws.sim();
  netsim::Network& net = ws.net();
  const topo::Built built = topo::build(net, scenario.topology);

  trace::TraceLog log;
  log.set_keep_bytes(scenario.keep_bytes);
  log.attach(net);

  // Every segment gets the paper's TDelay (Pumba's netem delay) and the
  // scenario's jitter and loss.
  for (netsim::SegmentId s = 0; s < net.segment_count(); ++s) {
    netsim::FaultModel& fault = net.fault(s);
    fault.delay = scenario.tdelay;
    if (scenario.link_jitter.count() > 0) fault.jitter = scenario.link_jitter;
    if (scenario.link_loss > 0) fault.loss = scenario.link_loss;
  }

  ScenarioResult result;
  result.routers = built.nodes.size();
  result.segments = built.segments.size();

  Rng seeder(scenario.seed * 0x9e3779b97f4a7c15ULL + 1);

  if (scenario.protocol == Protocol::kOspf) {
    util::ObjectPool<ospf::Router>& routers = ws.ospf_routers();
    for (std::size_t i = 0; i < built.nodes.size(); ++i) {
      ospf::RouterConfig cfg;
      const auto b = static_cast<std::uint8_t>(i + 1);
      cfg.router_id = RouterId{b, b, b, b};
      cfg.profile = scenario.ospf_profile;
      routers.create(net, built.nodes[i], cfg, seeder.next());
    }
    // Every record carries the observing router's max neighbor FSM state
    // (the state-conditioned key scheme reads it); trace load accepts the
    // same range.
    static_assert(static_cast<int>(ospf::NeighborState::kFull) ==
                  trace::TraceLog::kMaxObserverState);
    log.set_prober([&routers](netsim::NodeId node) {
      return node < routers.size() ? routers[node].max_neighbor_state() : -1;
    });
    // Staggered startup, as daemons in containers never boot in lockstep.
    for (std::size_t i = 0; i < routers.size(); ++i) {
      ospf::Router* r = &routers[i];
      sim.schedule(seeder.jitter(0ms, 2s), [r] { r->start(); });
    }
    // Churn workload: alternating routers inject external LSAs.
    std::uint32_t churn_net = 0;
    for (const SimTime when : scenario.churn_times) {
      const std::size_t who = churn_net % routers.size();
      const std::uint32_t third_octet = 100 + churn_net;
      ++churn_net;
      ospf::Router* r = &routers[who];
      sim.schedule_at(when, [r, third_octet] {
        r->originate_external(
            Ipv4Addr{192, 168, static_cast<std::uint8_t>(third_octet), 0},
            Ipv4Addr{255, 255, 255, 0}, 10);
      });
    }

    // Convergence probe: sample adjacency counts once per simulated second
    // and record the first instant the expected count is reached. A
    // neighbor can only enter or leave Full through set_neighbor_state,
    // which bumps the router's fsm_transitions counter — so a router whose
    // counter is unchanged since the last probe is skipped and its cached
    // count reused.
    const std::size_t expected_endpoints =
        expected_adjacency_endpoints(scenario.topology);
    std::vector<std::uint64_t> probe_seen(routers.size(), ~std::uint64_t{0});
    std::vector<std::size_t> probe_full(routers.size(), 0);
    auto count_full = [&routers, &probe_seen, &probe_full] {
      std::size_t full = 0;
      for (std::size_t i = 0; i < routers.size(); ++i) {
        const std::uint64_t transitions = routers[i].stats().fsm_transitions;
        if (transitions != probe_seen[i]) {
          std::size_t mine = 0;
          for (const auto& oi : routers[i].interfaces())
            for (const auto& [id, n] : oi.neighbors)
              if (n.state == ospf::NeighborState::kFull) ++mine;
          probe_seen[i] = transitions;
          probe_full[i] = mine;
        }
        full += probe_full[i];
      }
      return full;
    };
    std::function<void()> probe = [&] {
      if (result.convergence_time.count() < 0 &&
          count_full() >= expected_endpoints) {
        result.convergence_time = sim.now();
        return;  // stop probing once converged
      }
      if (result.convergence_time.count() < 0 &&
          sim.now() < scenario.duration)
        sim.schedule(1s, probe);
    };
    sim.schedule(1s, probe);

    sim.run_until(scenario.duration);

    for (std::size_t i = 0; i < routers.size(); ++i) {
      const ospf::Router& r = routers[i];
      for (const auto& oi : r.interfaces())
        for (const auto& [id, n] : oi.neighbors)
          if (n.state == ospf::NeighborState::kFull)
            ++result.full_adjacencies;
      const auto& s = r.stats();
      for (int t = 0; t <= ospf::kNumPacketTypes; ++t) {
        result.ospf_totals.tx_by_type[t] += s.tx_by_type[t];
        result.ospf_totals.rx_by_type[t] += s.rx_by_type[t];
      }
      result.ospf_totals.lsa_installs += s.lsa_installs;
      result.ospf_totals.lsa_refreshes += s.lsa_refreshes;
      result.ospf_totals.retransmissions += s.retransmissions;
      result.ospf_totals.duplicates_received += s.duplicates_received;
      result.ospf_totals.stale_received += s.stale_received;
      result.ospf_totals.decode_failures += s.decode_failures;
      result.ospf_totals.auth_failures += s.auth_failures;
      result.ospf_totals.fsm_transitions += s.fsm_transitions;
      result.ospf_totals.fsm_edge_mask |= s.fsm_edge_mask;
      result.ospf_totals.dr_role_mask |= s.dr_role_mask;
      result.ospf_totals.self_originations += s.self_originations;
      result.ospf_totals.maxage_flushes += s.maxage_flushes;
    }
    result.converged = result.full_adjacencies >=
                       expected_adjacency_endpoints(scenario.topology);

    // Route-level interoperability check: all routers must agree on the
    // cost to every prefix.
    std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint32_t> costs;
    result.routes_consistent = true;
    bool first_router = true;
    for (std::size_t i = 0; i < routers.size(); ++i) {
      std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint32_t> mine;
      for (const auto& route : routers[i].routes())
        mine[{route.prefix.value(), route.mask.value()}] = route.cost;
      if (first_router) {
        costs = std::move(mine);
        first_router = false;
        continue;
      }
      // Same destinations reachable (costs legitimately differ per vantage).
      if (mine.size() != costs.size()) result.routes_consistent = false;
      for (const auto& [key, cost] : costs)
        if (mine.find(key) == mine.end()) result.routes_consistent = false;
    }
  } else if (scenario.protocol == Protocol::kBgp) {
    // BGP assumes a reliable, ordered transport (we do not model TCP
    // recovery), so BGP scenarios run loss-free and in-order regardless of
    // the configured fault model.
    for (netsim::SegmentId s = 0; s < net.segment_count(); ++s) {
      net.fault(s).loss = 0.0;
      net.fault(s).fifo = true;
    }

    util::ObjectPool<bgp::BgpRouter>& routers = ws.bgp_routers();
    for (std::size_t i = 0; i < built.nodes.size(); ++i) {
      bgp::BgpConfig cfg;
      cfg.as_number = static_cast<std::uint16_t>(65001 + i);
      const auto b = static_cast<std::uint8_t>(i + 1);
      cfg.router_id = RouterId{b, b, b, b};
      cfg.profile = scenario.bgp_profile;
      routers.create(net, built.nodes[i], cfg, seeder.next());
    }
    for (std::size_t i = 0; i < routers.size(); ++i) {
      bgp::BgpRouter* r = &routers[i];
      const auto third = static_cast<std::uint8_t>(10 + i);
      sim.schedule(seeder.jitter(0ms, 2s), [r, third] {
        r->start();
        // Every AS originates one prefix, as real networks do.
        r->originate(bgp::Prefix{Ipv4Addr{10, 10, third, 0}, 24});
      });
    }
    // Churn: the first churn time injects the long-path announcement (the
    // 2009-incident stimulus); later churns are ordinary originations.
    std::uint32_t churn_net = 0;
    for (const SimTime when : scenario.churn_times) {
      const std::size_t who = churn_net % routers.size();
      const std::uint32_t third_octet = 200 + churn_net;
      const bool longpath =
          churn_net == 0 && scenario.bgp_longpath_prepend > 0;
      ++churn_net;
      bgp::BgpRouter* r = &routers[who];
      const std::size_t prepend =
          longpath ? scenario.bgp_longpath_prepend : 1;
      sim.schedule_at(when, [r, third_octet, prepend] {
        r->originate(
            bgp::Prefix{
                Ipv4Addr{192, 168, static_cast<std::uint8_t>(third_octet), 0},
                24},
            prepend);
      });
    }

    sim.run_until(scenario.duration);

    result.converged = true;
    for (std::size_t i = 0; i < routers.size(); ++i) {
      const bgp::BgpRouter& r = routers[i];
      if (!r.all_sessions_established()) result.converged = false;
      const auto& s = r.stats();
      result.bgp_totals.tx_open += s.tx_open;
      result.bgp_totals.rx_open += s.rx_open;
      result.bgp_totals.tx_update += s.tx_update;
      result.bgp_totals.rx_update += s.rx_update;
      result.bgp_totals.tx_keepalive += s.tx_keepalive;
      result.bgp_totals.rx_keepalive += s.rx_keepalive;
      result.bgp_totals.tx_notification += s.tx_notification;
      result.bgp_totals.rx_notification += s.rx_notification;
      result.bgp_totals.session_resets += s.session_resets;
      result.bgp_totals.loop_rejects += s.loop_rejects;
      result.bgp_totals.long_path_rejects += s.long_path_rejects;
      result.bgp_totals.routes_selected += s.routes_selected;
      result.bgp_totals.fsm_transitions += s.fsm_transitions;
      result.bgp_totals.fsm_edge_mask |= s.fsm_edge_mask;
    }
    // Route-level consistency: every router reaches every originated
    // prefix (only checked when nothing is flapping).
    result.routes_consistent = true;
    const std::size_t expected = routers.size();
    for (std::size_t i = 0; i < routers.size(); ++i) {
      std::size_t base_prefixes = 0;
      for (const auto& route : routers[i].routes())
        if ((route.prefix.network.value() >> 24) == 10) ++base_prefixes;
      if (base_prefixes < expected) result.routes_consistent = false;
    }
  } else {
    util::ObjectPool<rip::RipRouter>& routers = ws.rip_routers();
    for (std::size_t i = 0; i < built.nodes.size(); ++i) {
      routers.create(net, built.nodes[i], scenario.rip_profile,
                     seeder.next());
    }
    for (std::size_t i = 0; i < routers.size(); ++i) {
      rip::RipRouter* r = &routers[i];
      sim.schedule(seeder.jitter(0ms, 2s), [r] { r->start(); });
    }
    std::uint32_t churn_net = 0;
    for (const SimTime when : scenario.churn_times) {
      const std::size_t who = churn_net % routers.size();
      const std::uint32_t third_octet = 100 + churn_net;
      ++churn_net;
      rip::RipRouter* r = &routers[who];
      sim.schedule_at(when, [r, third_octet] {
        r->originate(
            Ipv4Addr{192, 168, static_cast<std::uint8_t>(third_octet), 0},
            Ipv4Addr{255, 255, 255, 0});
      });
    }

    sim.run_until(scenario.duration);

    std::size_t expected_prefixes = net.segment_count() +
                                    scenario.churn_times.size();
    result.routes_consistent = true;
    for (std::size_t i = 0; i < routers.size(); ++i) {
      const rip::RipRouter& r = routers[i];
      std::size_t reachable = 0;
      for (const auto& route : r.routes())
        if (route.metric < rip::kInfinityMetric) ++reachable;
      if (reachable < expected_prefixes) result.routes_consistent = false;
      const auto& s = r.stats();
      result.rip_totals.tx_requests += s.tx_requests;
      result.rip_totals.tx_responses += s.tx_responses;
      result.rip_totals.rx_requests += s.rx_requests;
      result.rip_totals.rx_responses += s.rx_responses;
      result.rip_totals.routes_learned += s.routes_learned;
      result.rip_totals.routes_expired += s.routes_expired;
      result.rip_totals.triggered += s.triggered;
      result.rip_totals.version_rejected += s.version_rejected;
    }
    result.converged = result.routes_consistent;
  }

  result.frames_delivered = net.frames_delivered();
  result.frames_dropped = net.frames_dropped();
  count_simulation(sim, net);

  // Deterministic simulated-time metric deltas. These live in the result
  // (and in cache entries) so a warm cache run replays exactly the numbers
  // a cold run would have produced.
  auto& m = result.metrics;
  m.set("sim.events_executed", sim.executed());
  m.set("sim.frames_delivered", net.frames_delivered());
  m.set("sim.frames_dropped", net.frames_dropped());
  m.set("sim.frames_duplicated", net.frames_duplicated());
  m.set("sim.frames_reorder_delayed", net.frames_reorder_delayed());
  m.set("scenario.runs", 1);
  m.set("scenario.converged", result.converged ? 1 : 0);
  m.set("scenario.routes_consistent", result.routes_consistent ? 1 : 0);
  if (result.convergence_time.count() >= 0)
    m.set("scenario.convergence_time_us",
          static_cast<std::uint64_t>(result.convergence_time.count()));
  if (scenario.protocol == Protocol::kOspf) {
    const auto& t = result.ospf_totals;
    static constexpr const char* kTx[] = {nullptr, "ospf.tx_hello",
                                          "ospf.tx_dbd", "ospf.tx_lsr",
                                          "ospf.tx_lsu", "ospf.tx_lsack"};
    static constexpr const char* kRx[] = {nullptr, "ospf.rx_hello",
                                          "ospf.rx_dbd", "ospf.rx_lsr",
                                          "ospf.rx_lsu", "ospf.rx_lsack"};
    for (int t_idx = 1; t_idx <= ospf::kNumPacketTypes; ++t_idx) {
      m.set(kTx[t_idx], t.tx_by_type[t_idx]);
      m.set(kRx[t_idx], t.rx_by_type[t_idx]);
    }
    m.set("ospf.lsa_installs", t.lsa_installs);
    m.set("ospf.lsa_refreshes", t.lsa_refreshes);
    m.set("ospf.retransmissions", t.retransmissions);
    m.set("ospf.duplicates_received", t.duplicates_received);
    m.set("ospf.stale_received", t.stale_received);
    m.set("ospf.decode_failures", t.decode_failures);
    m.set("ospf.auth_failures", t.auth_failures);
    m.set("ospf.fsm_transitions", t.fsm_transitions);
  } else if (scenario.protocol == Protocol::kBgp) {
    const auto& t = result.bgp_totals;
    m.set("bgp.tx_open", t.tx_open);
    m.set("bgp.rx_open", t.rx_open);
    m.set("bgp.tx_update", t.tx_update);
    m.set("bgp.rx_update", t.rx_update);
    m.set("bgp.tx_keepalive", t.tx_keepalive);
    m.set("bgp.rx_keepalive", t.rx_keepalive);
    m.set("bgp.tx_notification", t.tx_notification);
    m.set("bgp.rx_notification", t.rx_notification);
    m.set("bgp.session_resets", t.session_resets);
    m.set("bgp.loop_rejects", t.loop_rejects);
    m.set("bgp.long_path_rejects", t.long_path_rejects);
    m.set("bgp.routes_selected", t.routes_selected);
    m.set("bgp.fsm_transitions", t.fsm_transitions);
  } else {
    const auto& t = result.rip_totals;
    m.set("rip.tx_requests", t.tx_requests);
    m.set("rip.tx_responses", t.tx_responses);
    m.set("rip.rx_requests", t.rx_requests);
    m.set("rip.rx_responses", t.rx_responses);
    m.set("rip.routes_learned", t.routes_learned);
    m.set("rip.routes_expired", t.routes_expired);
    m.set("rip.triggered", t.triggered);
    m.set("rip.version_rejected", t.version_rejected);
  }

  // Behavioral coverage fill: fold the engines' edge masks, path counters
  // and the trace into the canonical per-scenario feature set. Always
  // collected (one end-of-run pass, nothing per-event) so cache entries
  // carry it regardless of reporting flags.
  auto& cv = result.coverage;
  auto add_fsm_edges = [&cv](cov::Proto p, std::uint64_t mask) {
    for (unsigned bit = 0; bit < 64; ++bit)
      if (mask >> bit & 1) cv.add(cov::fsm_edge(p, bit / 8, bit % 8));
  };
  if (scenario.protocol == Protocol::kOspf) {
    const auto& t = result.ospf_totals;
    add_fsm_edges(cov::Proto::kOspf, t.fsm_edge_mask);
    if (t.retransmissions > 0)
      cv.add(cov::path_marker(cov::OspfMarker::kRetransmission));
    if (t.duplicates_received > 0)
      cv.add(cov::path_marker(cov::OspfMarker::kDuplicateLsa));
    if (t.stale_received > 0)
      cv.add(cov::path_marker(cov::OspfMarker::kStaleLsa));
    if (t.dr_role_mask >> static_cast<unsigned>(ospf::InterfaceState::kDr) & 1)
      cv.add(cov::path_marker(cov::OspfMarker::kDrRole));
    if (t.dr_role_mask >>
            static_cast<unsigned>(ospf::InterfaceState::kBackup) & 1)
      cv.add(cov::path_marker(cov::OspfMarker::kBdrRole));
    if (t.dr_role_mask >>
            static_cast<unsigned>(ospf::InterfaceState::kDrOther) & 1)
      cv.add(cov::path_marker(cov::OspfMarker::kDrOtherRole));
    if (t.self_originations > 0)
      cv.add(cov::lsa_lifecycle(cov::LsaEvent::kOriginate));
    if (t.lsa_refreshes > 0)
      cv.add(cov::lsa_lifecycle(cov::LsaEvent::kRefresh));
    if (t.maxage_flushes > 0)
      cv.add(cov::lsa_lifecycle(cov::LsaEvent::kMaxAgeFlush));
  } else if (scenario.protocol == Protocol::kBgp) {
    const auto& t = result.bgp_totals;
    add_fsm_edges(cov::Proto::kBgp, t.fsm_edge_mask);
    if (t.session_resets > 0)
      cv.add(cov::path_marker(cov::BgpMarker::kSessionReset));
    if (t.loop_rejects > 0)
      cv.add(cov::path_marker(cov::BgpMarker::kLoopReject));
    if (t.long_path_rejects > 0)
      cv.add(cov::path_marker(cov::BgpMarker::kLongPathReject));
  } else {
    const auto& t = result.rip_totals;
    if (t.triggered > 0)
      cv.add(cov::path_marker(cov::RipMarker::kTriggeredUpdate));
    if (t.routes_expired > 0)
      cv.add(cov::path_marker(cov::RipMarker::kRouteExpired));
    if (t.version_rejected > 0)
      cv.add(cov::path_marker(cov::RipMarker::kVersionRejected));
  }
  if (scenario.tdelay.count() > 0) cv.add(cov::chaos(cov::ChaosClass::kDelay));
  if (scenario.link_jitter.count() > 0)
    cv.add(cov::chaos(cov::ChaosClass::kJitter));
  if (net.frames_dropped() > 0) cv.add(cov::chaos(cov::ChaosClass::kLoss));
  if (net.frames_duplicated() > 0)
    cv.add(cov::chaos(cov::ChaosClass::kDuplicate));
  if (net.frames_reorder_delayed() > 0)
    cv.add(cov::chaos(cov::ChaosClass::kReorder));
  if (!scenario.churn_times.empty())
    cv.add(cov::chaos(cov::ChaosClass::kChurn));
  // Packet-kind pairs: per observing node, each send is paired with the
  // kind of the packet most recently received there — the same
  // stimulus→response view the causal miner takes of the trace.
  for (std::size_t node = 0; node < log.node_index_extent(); ++node) {
    int last_rx = -1;
    for (const std::uint32_t idx : log.node_records(
             static_cast<netsim::NodeId>(node))) {
      const trace::RecordView rec = log.view(idx);
      cov::Proto proto = cov::Proto::kOspf;
      unsigned kind = 0;
      if (const auto* o = rec.ospf) {
        proto = cov::Proto::kOspf;
        kind = o->pkt_type;
      } else if (const auto* ri = rec.rip) {
        proto = cov::Proto::kRip;
        kind = ri->command;
      } else if (const auto* b = rec.bgp) {
        proto = cov::Proto::kBgp;
        kind = b->msg_type;
      }
      if (kind == 0 || kind > cov::packet_kind_count(proto)) continue;
      if (rec.is_send()) {
        if (last_rx >= 0)
          cv.add(cov::packet_pair(proto, static_cast<unsigned>(last_rx),
                                  kind));
      } else {
        last_rx = static_cast<int>(kind);
      }
    }
  }
  cv.finalize();

  result.log = std::move(log);
  // The network survives in the workspace, so its tap (which points into
  // the dead local TraceLog shell) must be dropped before we return; the
  // moved-out log and statistics are self-contained.
  net.set_tap(nullptr);
  return result;
}

}  // namespace nidkit::harness
