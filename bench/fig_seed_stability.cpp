// Methodology extension (beyond the paper): relationship stability across
// seeds.
//
// First-match attribution is timing-sensitive, so a single run's relation
// set mixes an implementation's *systematic* behaviour with one-off
// schedule artifacts. Mining five seeds independently and histogramming
// per-cell seed coverage separates the two — and filtering the comparison
// to fully-stable cells yields high-confidence flags (the paper's Table 2
// discrepancy survives; most single-seed noise does not).
#include <cstdio>

#include "detect/detect.hpp"
#include "harness/stability.hpp"

using namespace nidkit;
using namespace std::chrono_literals;

int main() {
  harness::ExperimentConfig config;
  config.seeds = {1, 2, 3, 4, 5};

  std::printf("=== Relationship stability across %zu seeds (type "
              "granularity) ===\n\n",
              config.seeds.size());
  std::printf("%-6s %10s %10s\n", "impl", "seen-in-k", "cells");
  std::size_t frr_total = 0, frr_stable = 0;
  for (const auto& profile : {ospf::frr_profile(), ospf::bird_profile()}) {
    const auto report = harness::ospf_relation_stability(
        profile, config, mining::ospf_type_scheme());
    std::size_t histogram[6] = {};
    for (const auto& cell : report) ++histogram[cell.seeds_seen];
    for (std::size_t k = config.seeds.size(); k >= 1; --k) {
      std::printf("%-6s %8zu/%zu %10zu\n", profile.name.c_str(), k,
                  config.seeds.size(), histogram[k]);
    }
    if (profile.name == "frr") {
      frr_total = report.size();
      frr_stable = histogram[config.seeds.size()];
    }
    std::printf("\n");
  }

  // High-confidence comparison: only cells present in every seed.
  const auto frr = harness::stable_relations(
      ospf::frr_profile(), config, mining::ospf_greater_lssn_scheme(), 1.0);
  const auto bird = harness::stable_relations(
      ospf::bird_profile(), config, mining::ospf_greater_lssn_scheme(), 1.0);
  const auto flags = detect::compare_all({{"frr", &frr}, {"bird", &bird}});
  std::printf("fully-stable greater-LS-SN discrepancies: %zu\n",
              flags.size());
  bool headline = false;
  for (const auto& d : flags)
    if (d.cell.response == "LSAck+gtSN" && d.present_in == "bird")
      headline = true;

  const bool has_unstable_tail = frr_stable < frr_total;
  std::printf("\nshape check:\n"
              "  a stable core exists alongside an unstable tail: %s "
              "(%zu/%zu cells fully stable)\n"
              "  the Table 2 headline discrepancy survives 100%%-stability "
              "filtering: %s\n",
              has_unstable_tail ? "yes" : "NO", frr_stable, frr_total,
              headline ? "yes" : "NO");
  return (has_unstable_tail && headline) ? 0 : 1;
}
