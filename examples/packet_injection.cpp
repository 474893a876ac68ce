// Injection confirmation — the paper's future work, operational: triage
// every discrepancy the miner flags between FRR-like and BIRD-like OSPF.
// Each flag is shrunk to a minimal reproducing scenario, then its stimulus
// is injected over a live adjacency into each implementation. The flag is
// CONFIRMED when the probes isolate the cell's response class, REFUTED
// when both implementations respond identically (a mining artifact), and
// UNCONFIRMED with a reason otherwise.
#include <cstdio>

#include "harness/triage.hpp"

using namespace nidkit;

namespace {

void print_responses(const char* impl, const harness::InjectionOutcome& o) {
  std::printf(" %s: {", impl);
  for (const auto& r : o.responses) std::printf(" %s", r.c_str());
  std::printf(" }");
}

}  // namespace

int main() {
  // Paper topologies and defaults; triage mines at greater-LS-SN
  // granularity, whose cells map directly onto injection stimuli.
  const auto result = harness::triage_ospf(
      {ospf::frr_profile(), ospf::bird_profile()}, harness::TriageConfig{});

  std::printf("mined %zu discrepancies at greater-LS-SN granularity\n\n",
              result.flagged);

  int confirmed = 0;
  for (const auto& inc : result.incidents) {
    const auto& d = inc.discrepancy;
    std::printf("#%zu flag: %s %s -> %s (present in %s)\n", inc.rank,
                detect::to_string(d.direction).c_str(),
                d.cell.stimulus.c_str(), d.cell.response.c_str(),
                d.present_in.c_str());
    if (!inc.stimulus.empty()) {
      std::printf("  injected %-12s", inc.stimulus.c_str());
      print_responses(d.present_in.c_str(), inc.outcome_present);
      print_responses(d.absent_in.c_str(), inc.outcome_absent);
      std::printf("\n");
    }
    std::printf("  => %s%s%s\n", to_string(inc.confirmation).c_str(),
                inc.reason.empty() ? "" : ": ", inc.reason.c_str());
    if (inc.confirmation == harness::Confirmation::kConfirmed) ++confirmed;
  }

  std::printf("\n%d of %zu incidents confirmed by injection\n", confirmed,
              result.incidents.size());
  std::printf("(the paper's Table 2 discrepancy corresponds to the "
              "LSU-stale probe: FRR\nanswers with the newer LSA, BIRD with "
              "a greater-LS-SN acknowledgment.)\n");
  return confirmed > 0 ? 0 : 1;
}
