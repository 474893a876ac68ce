// Automatic disagreement triage: minimize → inject → confirm → rank.
//
// An audit's flagged discrepancy is a relation-set diff a human must
// inspect. Triage closes the loop (the paper's stated future work): for
// each flagged cell it
//
//   1. finds a single (topology, seed) scenario of the audit matrix where
//      the cell reproduces — present in the exhibiting implementation's
//      mined set, absent from the other's;
//   2. delta-debugs that scenario to a minimal repro (see minimize.hpp):
//      shrink the topology, drop churn events, bisect the seed, halve
//      TDelay, keeping only steps that still reproduce;
//   3. maps the cell onto the packet-injection validator's stimulus
//      classes and probes both implementations to confirm or refute the
//      behavioural difference — unsupported stimulus classes degrade to
//      "unconfirmed" with a reason, never an error, and probes whose
//      adjacency never formed are reported as such;
//   4. emits a ranked, deterministic incident report with the shrink
//      trace and a copy-pasteable reproduction command line.
//
// Every reproduction probe runs through run_cached with the same keys the
// audit uses, so a triage after an audit against one cache directory
// replays the expensive part; candidate batches fan out over --jobs
// workers with canonical-order selection, so reports are byte-identical
// for any worker count and any cache temperature.
#pragma once

#include <string>
#include <vector>

#include "detect/detect.hpp"
#include "harness/experiment.hpp"
#include "harness/injection.hpp"
#include "harness/minimize.hpp"

namespace nidkit::harness {

struct TriageConfig {
  /// Audit matrix and executor context (topologies, seeds, tdelay, churn
  /// schedule, jobs, store...). The audit and every reproduction probe
  /// share the context. The repro search candidates are exactly this
  /// config's (topology, seed) scenarios.
  ExperimentConfig experiment;
  /// Key scheme the audit mines under. The gtsn scheme is the default
  /// triage granularity: its cells map directly onto injection stimuli.
  mining::KeyScheme scheme = mining::ospf_greater_lssn_scheme();
  /// Per-incident probe budget (repro search + shrink loop; one probe =
  /// one candidate scenario = one run per implementation side).
  std::size_t max_probes = 200;
  /// Triage at most this many flagged discrepancies (0 = all), in
  /// canonical flag order.
  std::size_t max_incidents = 0;
};

/// Injection verdict for a triaged incident.
enum class Confirmation {
  kConfirmed,    ///< probes isolate the cell's response class
  kRefuted,      ///< both implementations respond identically when probed
  kUnconfirmed,  ///< could not be probed (unsupported stimulus, adjacency
                 ///< failure, or no single-scenario repro) — see reason
};

std::string to_string(Confirmation c);

struct IncidentReport {
  std::size_t rank = 0;  ///< 1-based position after ranking
  detect::Discrepancy discrepancy;
  /// A single audit-matrix scenario reproduces the cell. When false the
  /// discrepancy only emerges from the merged matrix (or the budget ran
  /// out searching) and minimize/injection are skipped.
  bool reproduced = false;
  Scenario original;  ///< the repro the audit-matrix search selected
  Scenario minimal;   ///< the delta-debugged repro
  /// Strictly smaller than `original`: fewer routers or fewer churn
  /// events (seed/tdelay reductions alone do not count).
  bool smaller = false;
  MinimizeResult shrink;
  std::size_t find_probes = 0;  ///< probes spent locating `original`
  std::string stimulus;  ///< injected stimulus class ("" if unmappable)
  Confirmation confirmation = Confirmation::kUnconfirmed;
  std::string reason;  ///< why not confirmed ("" when confirmed)
  InjectionOutcome outcome_present;  ///< probe of the exhibiting impl
  InjectionOutcome outcome_absent;   ///< probe of the lacking impl
};

struct TriageResult {
  std::vector<std::string> impl_names;
  std::string scheme;
  std::size_t flagged = 0;  ///< discrepancies the audit produced
  /// Ranked incidents: confirmed first, then unconfirmed, then refuted;
  /// reproduced before unreproduced; higher evidence counts first; ties
  /// keep canonical audit flag order.
  std::vector<IncidentReport> incidents;
  std::size_t total_probes = 0;  ///< across all incidents
};

/// Runs audit → triage for two or more OSPF implementations.
/// Deterministic in (profiles, config): reports are byte-identical for
/// any config.experiment.jobs value and any cache temperature.
TriageResult triage_ospf(const std::vector<ospf::BehaviorProfile>& profiles,
                         const TriageConfig& config);

/// Applies the confirmation rules to one incident's injection probes:
/// confirmed when the probes isolate the cell's observable response class
/// (present side saw it, absent side did not); refuted when both probes
/// elicit identical response sets; everything else — empty stimulus (no
/// synthesizer), adjacency never formed on either side, or non-isolating
/// differences — is unconfirmed. `reason` explains any non-confirmed
/// verdict and is cleared on confirmation.
Confirmation classify_injection(const detect::Discrepancy& d,
                                const std::string& stimulus,
                                const InjectionOutcome& present,
                                const InjectionOutcome& absent,
                                std::string& reason);

/// The `nidt audit` invocation that replays an incident's minimal
/// scenario pair and re-flags the cell.
std::string repro_command(const Scenario& minimal,
                          const std::string& present_in,
                          const std::string& absent_in,
                          const std::string& scheme);

/// Deterministic line-structured report JSON. Stable field order; the
/// whole "incidents" array occupies exactly one line so determinism
/// checks can byte-compare it with line tools (grep '"incidents":').
std::string triage_report_json(const TriageResult& result);

}  // namespace nidkit::harness
