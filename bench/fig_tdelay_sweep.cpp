// Reproduces the paper's TDelay calibration (§3): "we set TDelay to
// 900 ms, because the reduction in the unobserved packet causal
// relationships plateaued with this amount of delay."
//
// We sweep the injected TDelay from 0 to 1500 ms over the paper's four
// topologies with realistic RTT variance (±400 ms jitter, modeling
// container scheduling + processing time) and report, per TDelay:
//
//   unobserved — true relationship cells the miner failed to observe
//                (computable here because the simulator stamps every frame
//                with ground-truth provenance, which the paper's black-box
//                setting cannot);
//   spurious   — mined cells not supported by any provenance-caused pair;
//   precision/recall — pair-level attribution accuracy.
//
// Expected shape: unobserved falls steeply once TDelay exceeds the RTT/
// processing variance, then plateaus; pushing TDelay toward the
// retransmission timeout (5 s here) buys nothing further — exactly the
// paper's "greater than the variance in RTT … lower than the
// retransmission timeout" guidance.
#include <cstdio>

#include "harness/experiment.hpp"

using namespace nidkit;
using namespace std::chrono_literals;

int main() {
  harness::ExperimentConfig config;
  config.seeds = {1, 2};
  config.link_jitter = 400ms;

  std::vector<SimDuration> tdelays;
  for (int ms = 0; ms <= 1500; ms += 150) tdelays.push_back(SimDuration{ms * 1000});

  const auto sweep = harness::tdelay_sweep(
      ospf::frr_profile(), config, tdelays, mining::ospf_type_scheme());

  std::printf("=== TDelay calibration sweep (FRR profile, 4 topologies, "
              "jitter 400 ms) ===\n\n");
  std::printf("%8s %12s %10s %12s %11s %9s\n", "TDelay", "unobserved",
              "spurious", "mined-cells", "precision", "recall");
  for (const auto& p : sweep) {
    std::printf("%6lldms %12zu %10zu %12zu %11.3f %9.3f\n",
                static_cast<long long>(p.tdelay.count() / 1000),
                p.unobserved_cells, p.spurious_cells, p.mined_cells,
                p.precision, p.recall);
  }

  // Shape check: the unobserved count at the calibrated 900 ms must sit at
  // (or near) the plateau — substantially below the TDelay=0 value, and
  // within noise of the 1500 ms tail.
  const auto& first = sweep.front();
  const auto& tail = sweep.back();
  std::size_t at_900 = first.unobserved_cells;
  for (const auto& p : sweep)
    if (p.tdelay == 900ms) at_900 = p.unobserved_cells;

  const bool drops = at_900 * 3 <= first.unobserved_cells * 2;  // >=33% drop
  const bool plateaued =
      at_900 <= tail.unobserved_cells + 5 && tail.unobserved_cells <= at_900 + 5;
  std::printf("\npaper shape check:\n"
              "  unobserved(900ms) well below unobserved(0ms): %s (%zu vs %zu)\n"
              "  flat between 900ms and 1500ms (plateau):      %s (%zu vs %zu)\n",
              drops ? "yes" : "NO", at_900, first.unobserved_cells,
              plateaued ? "yes" : "NO", at_900, tail.unobserved_cells);
  return (drops && plateaued) ? 0 : 1;
}
