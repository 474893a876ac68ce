#include "harness/injection.hpp"

#include <algorithm>
#include <limits>

#include "mining/keying.hpp"
#include "packet/ospf_packet.hpp"

namespace nidkit::harness {

const std::vector<std::string>& injection_stimulus_labels() {
  static const std::vector<std::string> kLabels = {
      "Hello", "DBD", "LSR", "LSU", "LSU-stale", "LSAck", "LSAck+gtSN"};
  return kLabels;
}

const std::map<std::string, std::string>& injection_stimulus_aliases() {
  static const std::map<std::string, std::string> kAliases = {
      {"LSU+gtSN", "LSU"}};
  return kAliases;
}

std::string injection_canonical_stimulus(const std::string& s) {
  const auto& aliases = injection_stimulus_aliases();
  if (const auto it = aliases.find(s); it != aliases.end()) return it->second;
  const auto& labels = injection_stimulus_labels();
  if (std::find(labels.begin(), labels.end(), s) != labels.end()) return s;
  return "";
}

bool injection_supports(const std::string& s) {
  return !injection_canonical_stimulus(s).empty();
}

namespace {

constexpr SimDuration kProbeTdelay = 900ms;
/// Responses later than this after the injection are not attributed.
constexpr SimDuration kObserveWindow = 7s;
constexpr std::uint64_t kProbeSeed = 7;

/// inject_and_observe's probe, on the caller's fresh simulator and
/// network.
InjectionOutcome probe(const InjectionConfig& config, netsim::Simulator& sim,
                       netsim::Network& net) {
  InjectionOutcome outcome;
  outcome.stimulus = config.stimulus;  // echo the requested label
  // Dispatch on the canonical label so aliases cannot diverge from their
  // targets ("" — unsupported — falls through every branch below).
  const std::string stimulus = injection_canonical_stimulus(config.stimulus);

  const netsim::NodeId prober_node = net.add_node("prober");
  const netsim::NodeId target_node = net.add_node("target");
  const netsim::SegmentId link = net.add_p2p(prober_node, target_node);
  net.fault(link).delay = kProbeTdelay;

  trace::TraceLog log;
  log.attach(net);

  // The prober runs a strict-RFC engine so that the adjacency it offers the
  // target is uncontroversial.
  ospf::RouterConfig prober_cfg;
  prober_cfg.router_id = RouterId{9, 9, 9, 9};
  prober_cfg.profile = ospf::strict_profile();
  ospf::Router prober(net, prober_node, prober_cfg, kProbeSeed * 3 + 1);

  ospf::RouterConfig target_cfg;
  target_cfg.router_id = RouterId{1, 1, 1, 1};
  target_cfg.profile = config.target_profile;
  ospf::Router target(net, target_node, target_cfg, kProbeSeed * 3 + 2);

  prober.start();
  target.start();

  sim.run_until(config.inject_at);
  if (prober.neighbor_state(target_cfg.router_id) !=
      ospf::NeighborState::kFull) {
    return outcome;  // injected=false: no adjacency to probe over
  }

  // ---- Craft the stimulus from the prober's protocol knowledge.
  const Ipv4Addr target_addr = net.iface(target_node, 0).address;
  const auto prober_key = ospf::LsaKey{
      ospf::LsaType::kRouter, Ipv4Addr{prober_cfg.router_id.value()},
      prober_cfg.router_id};
  const auto target_key = ospf::LsaKey{
      ospf::LsaType::kRouter, Ipv4Addr{target_cfg.router_id.value()},
      target_cfg.router_id};
  const auto* own_entry = prober.lsdb().find(prober_key);
  const auto* target_entry = prober.lsdb().find(target_key);
  if (own_entry == nullptr || target_entry == nullptr) return outcome;

  ospf::PacketBody body;
  Ipv4Addr dst = target_addr;
  std::int32_t stimulus_seq = std::numeric_limits<std::int32_t>::min();

  if (stimulus == "Hello") {
    ospf::HelloBody hello;
    hello.network_mask = Ipv4Addr{255, 255, 255, 252};
    hello.neighbors.push_back(target_cfg.router_id);
    dst = kAllSpfRouters;
    body = std::move(hello);
  } else if (stimulus == "DBD") {
    ospf::DbdBody dbd;
    dbd.flags = ospf::kDbdFlagInit | ospf::kDbdFlagMore | ospf::kDbdFlagMs;
    dbd.dd_sequence = 0xdead;
    body = std::move(dbd);
  } else if (stimulus == "LSR") {
    ospf::LsRequestBody lsr;
    lsr.requests.push_back(ospf::LsRequestEntry{
        ospf::LsaType::kRouter, target_key.link_state_id,
        target_key.advertising_router});
    body = std::move(lsr);
  } else if (stimulus == "LSU" || stimulus == "LSU-stale") {
    ospf::Lsa lsa = own_entry->lsa;
    if (stimulus == "LSU-stale") {
      // A stale instance of the *target's* LSA, older than its database
      // copy.
      lsa = target_entry->lsa;
      lsa.header.seq -= 1;
    } else {
      lsa.header.seq += 1;
    }
    lsa.header.age = 1;
    lsa.finalize();
    stimulus_seq = lsa.header.seq;
    ospf::LsUpdateBody lsu;
    lsu.lsas.push_back(std::move(lsa));
    body = std::move(lsu);
  } else if (stimulus == "LSAck" || stimulus == "LSAck+gtSN") {
    ospf::LsaHeader h = target_entry->lsa.header;
    if (stimulus == "LSAck+gtSN") {
      h.seq += 1;  // acknowledge an instance newer than anything sent
    }
    stimulus_seq = h.seq;
    ospf::LsAckBody ack;
    ack.lsa_headers.push_back(h);
    body = std::move(ack);
  } else {
    return outcome;  // unsupported stimulus
  }

  const ospf::OspfPacket pkt =
      make_packet(prober_cfg.router_id, kBackboneArea, std::move(body));
  netsim::Frame frame;
  frame.dst = dst;
  frame.protocol = ospf::kIpProtoOspf;
  frame.payload = encode(pkt);
  const SimTime injected_at = sim.now();
  net.send(prober_node, 0, std::move(frame));
  outcome.injected = true;

  sim.run_until(injected_at + kObserveWindow);

  // ---- Classify everything the prober received inside the window.
  for (const auto& rec : log.records()) {
    if (rec.node != prober_node || rec.is_send()) continue;
    if (rec.time <= injected_at) continue;
    const auto* o = rec.ospf;
    if (o == nullptr) continue;
    std::string label = mining::ospf_type_label(o->pkt_type);
    outcome.responses.insert(label);
    if ((o->pkt_type == 4 || o->pkt_type == 5) && !o->lsas.empty() &&
        stimulus_seq != std::numeric_limits<std::int32_t>::min() &&
        o->max_seq() > stimulus_seq) {
      outcome.responses.insert(label + "+gtSN");
    }
  }
  return outcome;
}

}  // namespace

InjectionOutcome inject_and_observe(const InjectionConfig& config) {
  netsim::Simulator sim;
  netsim::Network net(sim, kProbeSeed);
  InjectionOutcome outcome = probe(config, sim, net);
  // After every return path of the probe, even the early ones.
  count_simulation(sim, net);
  return outcome;
}

std::string stimulus_for_cell(const mining::RelationCell& cell) {
  const std::string& s = cell.stimulus;
  const bool gtsn_response = cell.response.find("+gtSN") != std::string::npos;
  if (s == "LSU" && gtsn_response) return "LSU-stale";
  if (s == "LSAck" && gtsn_response) return "LSAck+gtSN";
  if (injection_supports(s)) return s;
  // Strip refinements like "@Exchange" or "[router]".
  const auto cut = s.find_first_of("@[+");
  if (cut != std::string::npos) {
    const std::string base = s.substr(0, cut);
    if (injection_supports(base)) return base;
  }
  return "";
}

}  // namespace nidkit::harness
