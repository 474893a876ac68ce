#include "harness/triage.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <utility>

#include "detect/json.hpp"
#include "harness/cached_fanout.hpp"
#include "obs/obs.hpp"

namespace nidkit::harness {

namespace {

std::string cell_label(const detect::Discrepancy& d) {
  return detect::to_string(d.direction) + " " + d.cell.stimulus + " -> " +
         d.cell.response;
}

/// The response class the injection prober can actually observe: the
/// packet-type label with the +gtSN refinement, minus mining-only context
/// like "@Exchange" or "[router]" (the prober labels raw packets, not
/// neighbor-state-refined cells).
std::string response_probe_label(const std::string& response) {
  const auto cut = response.find_first_of("@[");
  return cut == std::string::npos ? response : response.substr(0, cut);
}

std::string seconds_list(const std::vector<SimDuration>& times) {
  if (times.empty()) return "none";
  std::string out;
  for (std::size_t i = 0; i < times.size(); ++i) {
    if (i) out += ',';
    out += std::to_string(times[i].count() / 1'000'000);
  }
  return out;
}

/// Shrink-relevant scenario knobs as a one-line JSON object — the shape
/// `repro_command` maps back onto CLI flags.
std::string scenario_json(const Scenario& s) {
  std::ostringstream os;
  os << "{\"topology\":\"" << detect::json_escape(s.topology.name())
     << "\",\"seed\":" << s.seed
     << ",\"tdelay_ms\":" << s.tdelay.count() / 1000
     << ",\"duration_s\":" << s.duration.count() / 1'000'000
     << ",\"churn_s\":[";
  for (std::size_t i = 0; i < s.churn_times.size(); ++i) {
    if (i) os << ",";
    os << s.churn_times[i].count() / 1'000'000;
  }
  os << "]}";
  return os.str();
}

int confirmation_order(Confirmation c) {
  switch (c) {
    case Confirmation::kConfirmed: return 0;
    case Confirmation::kUnconfirmed: return 1;
    case Confirmation::kRefuted: return 2;
  }
  return 3;
}

}  // namespace

std::string to_string(Confirmation c) {
  switch (c) {
    case Confirmation::kConfirmed: return "confirmed";
    case Confirmation::kRefuted: return "refuted";
    case Confirmation::kUnconfirmed: return "unconfirmed";
  }
  return "?";
}

Confirmation classify_injection(const detect::Discrepancy& d,
                                const std::string& stimulus,
                                const InjectionOutcome& present,
                                const InjectionOutcome& absent,
                                std::string& reason) {
  // Confirmed means the probes isolate the exact response class the cell
  // names; identical response sets refute the cell as a mining artifact;
  // anything else stays unconfirmed with the reason spelled out.
  if (stimulus.empty()) {
    reason = "no injection synthesizer for stimulus class '" +
             d.cell.stimulus + "'";
    return Confirmation::kUnconfirmed;
  }
  if (!present.injected) {
    reason = "adjacency never formed probing " + d.present_in;
    return Confirmation::kUnconfirmed;
  }
  if (!absent.injected) {
    reason = "adjacency never formed probing " + d.absent_in;
    return Confirmation::kUnconfirmed;
  }
  const std::string want = response_probe_label(d.cell.response);
  if (present.saw(want) && !absent.saw(want)) {
    reason.clear();
    return Confirmation::kConfirmed;
  }
  if (present.responses == absent.responses) {
    reason = "both implementations respond identically to " + stimulus;
    return Confirmation::kRefuted;
  }
  reason = "probe responses differ but do not isolate '" + want + "'";
  return Confirmation::kUnconfirmed;
}

TriageResult triage_ospf(const std::vector<ospf::BehaviorProfile>& profiles,
                         const TriageConfig& config) {
  TriageResult result;
  result.scheme = config.scheme.name;

  // Phase 0: the audit itself. Flag order is the canonical detect order
  // (direction, then cell) — the tiebreaker rank preserves it.
  const AuditResult audit =
      audit_ospf(profiles, config.experiment, config.scheme);
  result.impl_names = audit.names;
  result.flagged = audit.discrepancies.size();

  std::map<std::string, ospf::BehaviorProfile> by_name;
  for (const auto& p : profiles) by_name.emplace(p.name, p);

  // One probe = one candidate scenario run under *both* implementations of
  // a discrepancy and mined; the verdict is "cell present in the
  // exhibiting side's set and absent from the other's".
  auto probe_batch = [&](const detect::Discrepancy& d,
                         const std::vector<Scenario>& candidates) {
    std::vector<CachedJob> jobs;
    jobs.reserve(candidates.size() * 2);
    for (const auto& cand : candidates) {
      for (const std::string* impl : {&d.present_in, &d.absent_in}) {
        Scenario s = cand;
        s.protocol = Protocol::kOspf;
        s.ospf_profile = by_name.at(*impl);
        mining::MinerConfig miner = config.experiment.miner_config();
        // The mining threshold tracks the candidate's TDelay: a shrunken
        // tdelay only reproduces if mining still attributes under it, and
        // unshrunk candidates keep the audit's exact cache key.
        miner.tdelay = s.tdelay;
        std::string label = "triage/" + *impl + "/" + s.topology.name() +
                            "/s" + std::to_string(s.seed);
        jobs.push_back(CachedJob{std::move(s), std::move(label), miner});
      }
    }
    // Probes run in the audit's executor context: same store, same payload
    // kind, same scheme id and — for unshrunk candidates — the very keys
    // the audit just put, so the find phase is usually all hits.
    const auto entries =
        simulate_and_mine(jobs, config.experiment, config.scheme);
    std::vector<bool> verdicts;
    verdicts.reserve(candidates.size());
    for (std::size_t i = 0; i < candidates.size(); ++i)
      verdicts.push_back(
          entries[2 * i].relations.has(d.direction, d.cell.stimulus,
                                       d.cell.response) &&
          !entries[2 * i + 1].relations.has(d.direction, d.cell.stimulus,
                                            d.cell.response));
    return verdicts;
  };

  // Injection probes are shared across incidents: several cells commonly
  // map onto the same stimulus class, and one (implementation, stimulus)
  // probe answers all of them.
  std::map<std::pair<std::string, std::string>, InjectionOutcome> probed;
  auto inject = [&](const std::string& impl, const std::string& stimulus) {
    const auto key = std::make_pair(impl, stimulus);
    auto it = probed.find(key);
    if (it != probed.end()) return it->second;
    InjectionConfig inj;
    inj.stimulus = stimulus;
    inj.target_profile = by_name.at(impl);
    auto outcome = inject_and_observe(inj);
    probed.emplace(key, outcome);
    return outcome;
  };

  const std::size_t limit =
      config.max_incidents == 0
          ? audit.discrepancies.size()
          : std::min(config.max_incidents, audit.discrepancies.size());
  for (std::size_t di = 0; di < limit; ++di) {
    const detect::Discrepancy& d = audit.discrepancies[di];
    IncidentReport incident;
    incident.discrepancy = d;

    // Phase 1: find a single audit-matrix scenario that reproduces the
    // cell on its own. Candidates in canonical (topology, seed) order;
    // the whole batch is probed before selecting the canonically first
    // hit, so the choice is jobs-invariant.
    {
      obs::Span span("triage-find", cell_label(d));
      std::vector<Scenario> candidates;
      for (const auto& spec : config.experiment.topologies)
        for (const auto seed : config.experiment.seeds) {
          if (candidates.size() >= config.max_probes) break;
          candidates.push_back(config.experiment.scenario_for(spec, seed));
        }
      const bool budget_cut =
          candidates.size() <
          config.experiment.topologies.size() * config.experiment.seeds.size();
      const auto verdicts = probe_batch(d, candidates);
      incident.find_probes = candidates.size();
      for (std::size_t i = 0; i < verdicts.size(); ++i)
        if (verdicts[i]) {
          incident.reproduced = true;
          incident.original = candidates[i];
          break;
        }
      if (!incident.reproduced)
        incident.reason =
            budget_cut
                ? "probe budget exhausted searching the audit matrix"
                : "no single-scenario reproduction in the audit matrix "
                  "(cell emerges only from the merged matrix)";
    }

    if (incident.reproduced) {
      // Phase 2: delta-debug with whatever budget the find phase left.
      obs::Span span("triage-minimize", cell_label(d));
      MinimizeConfig mc;
      mc.max_probes = config.max_probes - incident.find_probes;
      incident.shrink = minimize_scenario(
          incident.original, mc,
          [&](const std::vector<Scenario>& batch) {
            return probe_batch(d, batch);
          });
      incident.minimal = incident.shrink.minimal;
      incident.smaller =
          incident.minimal.topology.routers <
              incident.original.topology.routers ||
          incident.minimal.churn_times.size() <
              incident.original.churn_times.size();

      // Phase 3: injection confirm.
      obs::Span inject_span("triage-inject", cell_label(d));
      incident.stimulus = stimulus_for_cell(d.cell);
      if (!incident.stimulus.empty()) {
        incident.outcome_present = inject(d.present_in, incident.stimulus);
        incident.outcome_absent = inject(d.absent_in, incident.stimulus);
      }
      incident.confirmation = classify_injection(
          d, incident.stimulus, incident.outcome_present,
          incident.outcome_absent, incident.reason);
    }

    result.total_probes += incident.find_probes + incident.shrink.probes;
    result.incidents.push_back(std::move(incident));
  }

  // Ranking: actionability first. Stable sort keeps the canonical audit
  // flag order as the final tiebreaker, so ranks are deterministic.
  std::stable_sort(result.incidents.begin(), result.incidents.end(),
                   [](const IncidentReport& a, const IncidentReport& b) {
                     const int ca = confirmation_order(a.confirmation);
                     const int cb = confirmation_order(b.confirmation);
                     if (ca != cb) return ca < cb;
                     if (a.reproduced != b.reproduced) return a.reproduced;
                     return a.discrepancy.evidence.count >
                            b.discrepancy.evidence.count;
                   });
  for (std::size_t i = 0; i < result.incidents.size(); ++i)
    result.incidents[i].rank = i + 1;

  if (obs::RunRecord* record = config.experiment.record) {
    // Probe counts are pure functions of (profiles, config), so they join
    // the record's sim counters (and add no coverage point).
    std::size_t confirmed = 0;
    for (const auto& inc : result.incidents)
      confirmed += inc.confirmation == Confirmation::kConfirmed ? 1 : 0;
    record->add("triage.probes", result.total_probes);
    record->add("triage.incidents", result.incidents.size());
    record->add("triage.confirmed", confirmed);
  }
  return result;
}

std::string repro_command(const Scenario& minimal,
                          const std::string& present_in,
                          const std::string& absent_in,
                          const std::string& scheme) {
  std::ostringstream os;
  os << "nidt audit --impls " << present_in << "," << absent_in
     << " --scheme " << scheme << " --topos " << minimal.topology.name()
     << " --seeds " << minimal.seed
     << " --tdelay-ms " << minimal.tdelay.count() / 1000
     << " --duration-s " << minimal.duration.count() / 1'000'000
     << " --churn-s " << seconds_list(minimal.churn_times)
     << " --format json";
  return os.str();
}

std::string triage_report_json(const TriageResult& result) {
  std::ostringstream os;
  os << "{\"schema\":\"nidt-triage-v1\",\n";
  os << "\"implementations\":[";
  for (std::size_t i = 0; i < result.impl_names.size(); ++i) {
    if (i) os << ",";
    os << "\"" << detect::json_escape(result.impl_names[i]) << "\"";
  }
  os << "],\n";
  os << "\"scheme\":\"" << detect::json_escape(result.scheme) << "\",\n";
  os << "\"flagged\":" << result.flagged << ",\n";

  std::size_t reproduced = 0, confirmed = 0, refuted = 0, unconfirmed = 0;
  os << "\"incidents\":[";
  for (std::size_t i = 0; i < result.incidents.size(); ++i) {
    const IncidentReport& inc = result.incidents[i];
    reproduced += inc.reproduced ? 1 : 0;
    switch (inc.confirmation) {
      case Confirmation::kConfirmed: ++confirmed; break;
      case Confirmation::kRefuted: ++refuted; break;
      case Confirmation::kUnconfirmed: ++unconfirmed; break;
    }
    if (i) os << ",";
    os << "{\"rank\":" << inc.rank << ",\"direction\":\""
       << detect::to_string(inc.discrepancy.direction) << "\",\"stimulus\":\""
       << detect::json_escape(inc.discrepancy.cell.stimulus)
       << "\",\"response\":\""
       << detect::json_escape(inc.discrepancy.cell.response)
       << "\",\"present_in\":\""
       << detect::json_escape(inc.discrepancy.present_in)
       << "\",\"absent_in\":\""
       << detect::json_escape(inc.discrepancy.absent_in)
       << "\",\"count\":" << inc.discrepancy.evidence.count
       << ",\"first_seen_us\":" << inc.discrepancy.evidence.first_seen.count()
       << ",\"reproduced\":" << (inc.reproduced ? "true" : "false")
       << ",\"find_probes\":" << inc.find_probes;
    if (inc.reproduced) {
      os << ",\"original\":" << scenario_json(inc.original)
         << ",\"minimal\":" << scenario_json(inc.minimal)
         << ",\"smaller\":" << (inc.smaller ? "true" : "false")
         << ",\"shrink\":{\"probes\":" << inc.shrink.probes
         << ",\"fixpoint\":" << (inc.shrink.fixpoint ? "true" : "false")
         << ",\"budget_exhausted\":"
         << (inc.shrink.budget_exhausted ? "true" : "false")
         << ",\"steps\":[";
      for (std::size_t j = 0; j < inc.shrink.trace.size(); ++j) {
        const ShrinkStep& step = inc.shrink.trace[j];
        if (j) os << ",";
        os << "{\"phase\":\"" << detect::json_escape(step.phase)
           << "\",\"action\":\"" << detect::json_escape(step.action)
           << "\",\"reproduced\":" << (step.reproduced ? "true" : "false")
           << ",\"kept\":" << (step.kept ? "true" : "false") << "}";
      }
      os << "]},\"injection\":{\"stimulus\":\""
         << detect::json_escape(inc.stimulus) << "\",\"verdict\":\""
         << to_string(inc.confirmation) << "\",\"reason\":\""
         << detect::json_escape(inc.reason) << "\",\"present_responses\":[";
      std::size_t k = 0;
      for (const auto& r : inc.outcome_present.responses)
        os << (k++ ? "," : "") << "\"" << detect::json_escape(r) << "\"";
      os << "],\"absent_responses\":[";
      k = 0;
      for (const auto& r : inc.outcome_absent.responses)
        os << (k++ ? "," : "") << "\"" << detect::json_escape(r) << "\"";
      os << "]},\"repro\":\""
         << detect::json_escape(repro_command(
                inc.minimal, inc.discrepancy.present_in,
                inc.discrepancy.absent_in, result.scheme))
         << "\"";
    } else {
      os << ",\"verdict\":\"" << to_string(inc.confirmation)
         << "\",\"reason\":\"" << detect::json_escape(inc.reason) << "\"";
    }
    os << "}";
  }
  os << "],\n";
  os << "\"summary\":{\"incidents\":" << result.incidents.size()
     << ",\"reproduced\":" << reproduced << ",\"confirmed\":" << confirmed
     << ",\"refuted\":" << refuted << ",\"unconfirmed\":" << unconfirmed
     << ",\"probes\":" << result.total_probes << "}}\n";
  return os.str();
}

}  // namespace nidkit::harness
