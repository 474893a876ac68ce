// Ablations of the causal miner's two design choices called out in
// DESIGN.md, on one mesh-5 FRR trace:
//
//   * horizon cap — the paper's implicit bound (TDelay below the
//     retransmission timeout) made explicit: mined cells per horizon;
//   * window factor — the paper's "at least 2*TDelay" attribution window:
//     unobserved true cells (simulator provenance is the ground truth) per
//     factor.
//
// Both are counts over a deterministic trace, so the table is exact.
// Exits nonzero if a longer horizon drops a cell (first-match attribution
// makes the cell set monotone in the horizon) or if the paper's 2x window
// misses more true cells than 1x or 3x.
#include <cstdio>

#include "harness/experiment.hpp"
#include "mining/miner.hpp"

using namespace nidkit;
using namespace std::chrono_literals;

namespace {

/// True when every cell of `inner` is also a cell of `outer`.
bool subset(const mining::RelationSet& inner,
            const mining::RelationSet& outer) {
  for (const auto dir : {mining::RelationDirection::kSendToRecv,
                         mining::RelationDirection::kRecvToSend})
    for (const auto& [cell, stats] : inner.cells(dir))
      if (outer.find(dir, cell) == nullptr) return false;
  return true;
}

}  // namespace

int main() {
  harness::Scenario s;
  s.topology = {topo::Kind::kMesh, 5};
  s.ospf_profile = ospf::frr_profile();
  s.duration = 180s;
  const trace::TraceLog log = harness::run_scenario(s).log;
  const auto scheme = mining::ospf_type_scheme();

  std::printf("=== Miner ablations (FRR, mesh-5, 180 s, packet-type scheme) "
              "===\n\n");

  // A horizon of 0 disables the cap.
  const char* labels[] = {"uncapped", "1 s", "5 s", "30 s"};
  const SimDuration caps[] = {SimDuration{0}, 1s, 5s, 30s};
  mining::RelationSet cells[4];
  std::printf("%-10s %6s\n", "horizon", "cells");
  for (std::size_t i = 0; i < 4; ++i) {
    mining::MinerConfig cfg;
    cfg.horizon = caps[i];
    cells[i] = mining::CausalMiner(cfg).mine(log, scheme);
    std::printf("%-10s %6zu\n", labels[i], cells[i].size());
  }
  // 1 s within 5 s within 30 s within uncapped.
  const bool monotone = subset(cells[1], cells[2]) &&
                        subset(cells[2], cells[3]) &&
                        subset(cells[3], cells[0]);

  std::printf("\n%-10s %11s\n", "window", "unobserved");
  std::size_t unobserved[3] = {};
  for (int factor = 1; factor <= 3; ++factor) {
    mining::MinerConfig cfg;
    cfg.window_factor = factor;
    const auto set = mining::CausalMiner(cfg).mine(log, scheme);
    unobserved[factor - 1] = mining::score_cells(log, set, scheme).unobserved;
    std::printf("%dx %18zu\n", factor, unobserved[factor - 1]);
  }
  const bool paper_window = unobserved[1] <= unobserved[0] &&
                            unobserved[1] <= unobserved[2];

  std::printf("\nablation shape check:\n"
              "  a longer horizon keeps every cell of a shorter one: %s\n"
              "  2x window misses no more cells than 1x or 3x:      %s\n",
              monotone ? "yes" : "NO", paper_window ? "yes" : "NO");
  return (monotone && paper_window) ? 0 : 1;
}
