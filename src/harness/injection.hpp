// Packet-injection validation (the paper's future work, §3).
//
// A mined discrepancy says: implementation A exhibits stimulus→response
// relationship (S → R), implementation B never does. To verify that this
// is a real behavioural difference rather than a mining artifact, we build
// a network containing one router of the *target* implementation plus a
// prober — a full protocol engine under harness control — establish a real
// adjacency, inject a crafted packet of class S, and observe whether the
// target answers with class R within the causal window. Triage
// (triage.hpp) probes both sides of a flag this way and turns the two
// outcomes into its verdict with classify_injection.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "harness/scenario.hpp"
#include "mining/relation.hpp"

namespace nidkit::harness {

/// Stimulus classes the injector can synthesize. Labels match the key
/// schemes' labels so mined discrepancy cells can be validated directly.
///   "Hello"       periodic hello
///   "DBD"         out-of-sequence database description
///   "LSR"         request for the target's router-LSA
///   "LSU"         fresh instance (seq+1) of the prober's router-LSA
///   "LSU-stale"   stale instance (seq-1) of the target's router-LSA
///   "LSAck"       unsolicited ack of the target's current router-LSA
///   "LSAck+gtSN"  ack carrying seq+1 of the target's router-LSA
/// plus the aliases in injection_stimulus_aliases() — e.g. "LSU+gtSN" is
/// "LSU" (the crafted instance always carries a greater LS-SN than
/// anything previously sent).
///
/// These tables are the single source of truth for what the synthesizer
/// in inject_and_observe dispatches on; triage's cell→stimulus mapping is
/// tested against them so the two cannot silently drift apart.
const std::vector<std::string>& injection_stimulus_labels();
const std::map<std::string, std::string>& injection_stimulus_aliases();

/// Canonical form of a stimulus label: aliases resolve to their target,
/// canonical labels map to themselves, anything else to "".
std::string injection_canonical_stimulus(const std::string& stimulus_label);

bool injection_supports(const std::string& stimulus_label);

/// One probe: the prober and the target share a 900 ms (TDelay) link,
/// and responses count for 7 s after the injection (the miner's 2 x
/// TDelay threshold plus its 5 s horizon).
struct InjectionConfig {
  ospf::BehaviorProfile target_profile;
  std::string stimulus;
  /// When to inject; must leave room for adjacency establishment.
  SimTime inject_at = 60s;
};

struct InjectionOutcome {
  bool injected = false;  ///< false if the adjacency never formed
  std::string stimulus;
  /// Response classes observed at the prober within the window, labeled by
  /// packet type with the +gtSN refinement relative to the stimulus.
  std::set<std::string> responses;

  bool saw(const std::string& label) const { return responses.count(label); }
};

/// Runs the probe. Deterministic in `config`.
InjectionOutcome inject_and_observe(const InjectionConfig& config);

/// Picks the injection stimulus for a discrepancy cell, or empty if the
/// class cannot be synthesized in a 2-router probe. Both directions map
/// the same way: a send->recv cell's stimulus is what the flagged
/// implementation sends, a recv->send cell's what it received, and either
/// way the probe injects that packet.
std::string stimulus_for_cell(const mining::RelationCell& cell);

}  // namespace nidkit::harness
