#include "harness/minimize.hpp"

#include <map>
#include <set>
#include <utility>

namespace nidkit::harness {

namespace {

std::string ms_string(SimDuration d) {
  return std::to_string(d.count() / 1000) + "ms";
}

}  // namespace

std::string shrink_signature(const Scenario& s) {
  std::string sig = "topo=" + s.topology.name();
  sig += ";churn=";
  for (std::size_t i = 0; i < s.churn_times.size(); ++i) {
    if (i) sig += ',';
    sig += std::to_string(s.churn_times[i].count());
  }
  sig += ";seed=" + std::to_string(s.seed);
  sig += ";td=" + std::to_string(s.tdelay.count());
  return sig;
}

std::vector<ShrinkCandidate> shrink_candidates(const Scenario& s) {
  std::vector<ShrinkCandidate> out;
  std::set<std::string> seen;
  seen.insert(shrink_signature(s));
  auto push = [&](Scenario c, const char* phase, std::string action) {
    if (!seen.insert(shrink_signature(c)).second) return;
    out.push_back(ShrinkCandidate{std::move(c), phase, std::move(action)});
  };
  auto with_spec = [&](topo::Spec spec) {
    Scenario c = s;
    c.topology = spec;
    return c;
  };
  auto topo_action = [&](const topo::Spec& to) {
    return "topology " + s.topology.name() + " -> " + to.name();
  };

  // Topology, aggressive jump first: straight to the 2-router chain, then
  // one router fewer, then the same router count on plain p2p links.
  const topo::Spec linear2{topo::Kind::kLinear, 2};
  if (!(s.topology.kind == topo::Kind::kLinear && s.topology.routers == 2))
    push(with_spec(linear2), "topology", topo_action(linear2));
  if (s.topology.routers >= 3) {
    const topo::Spec spec{s.topology.kind, s.topology.routers - 1};
    if (!topo::spec_error(spec))
      push(with_spec(spec), "topology", topo_action(spec));
  }
  if (s.topology.kind != topo::Kind::kLinear) {
    const topo::Spec spec{topo::Kind::kLinear, s.topology.routers};
    push(with_spec(spec), "topology", topo_action(spec));
  }

  // Churn (the chaos/workload schedule): all events at once, then each
  // single event.
  if (s.churn_times.size() >= 2) {
    Scenario c = s;
    c.churn_times.clear();
    push(std::move(c), "churn",
         "drop all churn (" + std::to_string(s.churn_times.size()) +
             " events)");
  }
  for (std::size_t i = 0; i < s.churn_times.size(); ++i) {
    Scenario c = s;
    c.churn_times.erase(c.churn_times.begin() +
                        static_cast<std::ptrdiff_t>(i));
    push(std::move(c), "churn",
         "drop churn[" + std::to_string(i) + "] @" +
             ms_string(s.churn_times[i]));
  }

  // Seed, bisected toward 1.
  if (s.seed > 1) {
    Scenario c = s;
    c.seed = 1;
    push(std::move(c), "seed",
         "seed " + std::to_string(s.seed) + " -> 1");
  }
  if (s.seed / 2 > 1) {
    Scenario c = s;
    c.seed = s.seed / 2;
    push(std::move(c), "seed",
         "seed " + std::to_string(s.seed) + " -> " +
             std::to_string(s.seed / 2));
  }

  // TDelay, halved to whole-millisecond values (so the minimal scenario
  // stays expressible as --tdelay-ms) with a 100 ms floor — below that the
  // 2×TDelay mining window collapses into protocol processing noise.
  if (s.tdelay >= SimDuration{std::chrono::milliseconds{200}}) {
    Scenario c = s;
    c.tdelay = SimDuration{(s.tdelay.count() / 2 / 1000) * 1000};
    push(std::move(c), "tdelay",
         "tdelay " + ms_string(s.tdelay) + " -> " + ms_string(c.tdelay));
  }

  return out;
}

MinimizeResult minimize_scenario(const Scenario& start,
                                 const MinimizeConfig& config,
                                 const BatchOracle& oracle) {
  MinimizeResult out;
  out.minimal = start;

  // Oracle memo: candidate signature -> verdict. Probing each distinct
  // scenario at most once keeps the probe count deterministic and the
  // loop convergent (a refuted candidate regenerated from a later,
  // smaller scenario is rejected from memory).
  std::map<std::string, bool> memo;

  bool progressed = true;
  while (progressed) {
    progressed = false;
    const auto cands = shrink_candidates(out.minimal);

    // Walk candidates in canonical order, collecting the ones that need a
    // fresh probe. The round stops early when the budget cannot cover the
    // next fresh probe — candidates past the cut are not considered at
    // all, so probe accounting is independent of oracle fan-out.
    std::vector<std::size_t> considered;
    std::vector<std::size_t> to_probe;
    bool round_truncated = false;
    for (std::size_t i = 0; i < cands.size(); ++i) {
      if (!memo.count(shrink_signature(cands[i].scenario))) {
        if (out.probes + to_probe.size() + 1 > config.max_probes) {
          round_truncated = true;
          out.budget_exhausted = true;
          break;
        }
        to_probe.push_back(i);
      }
      considered.push_back(i);
    }

    if (!to_probe.empty()) {
      std::vector<Scenario> batch;
      batch.reserve(to_probe.size());
      for (const auto i : to_probe) batch.push_back(cands[i].scenario);
      const auto verdicts = oracle(batch);
      out.probes += to_probe.size();
      for (std::size_t k = 0; k < to_probe.size(); ++k)
        memo[shrink_signature(cands[to_probe[k]].scenario)] =
            k < verdicts.size() && verdicts[k];
    }

    // Trace every considered candidate, then keep the canonically first
    // reproducing one. Probing the whole batch before selecting is what
    // makes the trace identical for any oracle worker count.
    std::size_t accepted = considered.size();
    const std::size_t base = out.trace.size();
    for (std::size_t j = 0; j < considered.size(); ++j) {
      const auto& cand = cands[considered[j]];
      const bool reproduced = memo.at(shrink_signature(cand.scenario));
      out.trace.push_back(
          ShrinkStep{cand.phase, cand.action, reproduced, false});
      if (accepted == considered.size() && reproduced) accepted = j;
    }
    if (accepted < considered.size()) {
      out.trace[base + accepted].kept = true;
      out.minimal = cands[considered[accepted]].scenario;
      progressed = true;
    } else if (!round_truncated) {
      // Every single-step reduction of the final scenario was probed (this
      // round or a previous one) and refuted: 1-minimal.
      out.fixpoint = true;
    }
  }
  return out;
}

}  // namespace nidkit::harness
