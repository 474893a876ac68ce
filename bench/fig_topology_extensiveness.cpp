// Reproduces the paper's topology-extensiveness claim (§2): "we stopped
// seeing significant changes in the packet causal relationships after
// considering these four topologies, but additional topologies can be
// added."
//
// We add topologies one at a time — the paper's four first, then four
// extras (ring-4, star-5, tree-7, lan-4) — and report how many new
// relationship cells each contributes to the cumulative union. Expected
// shape: the paper's four topologies contribute nearly everything; the
// extras add little to nothing.
#include <cstdio>

#include "bench_flags.hpp"
#include "harness/experiment.hpp"

using namespace nidkit;
using namespace std::chrono_literals;

int main(int argc, char** argv) {
  harness::ExperimentConfig config;
  config.topologies = topo::extended_topologies();
  config.seeds = {1, 2};
  config.jobs = bench::jobs_from_argv(argc, argv);

  std::printf("=== Relationship extensiveness vs topology set ===\n\n");

  // Each profile is held to its own plateau: the cells its four extra
  // topologies may add beyond the paper's four. FRR adds 1 (the LAN's DR
  // election); BIRD adds 6, 3 of them from the LAN.
  struct Profile {
    ospf::BehaviorProfile profile;
    std::size_t max_extra;
    std::size_t after_paper_four = 0;
    std::size_t total = 0;
  };
  Profile profiles[] = {{ospf::frr_profile(), 2}, {ospf::bird_profile(), 6}};
  for (auto& pr : profiles) {
    const auto points = harness::topology_extensiveness(
        pr.profile, config, mining::ospf_type_scheme());
    std::printf("[%s]\n%12s %10s %12s\n", pr.profile.name.c_str(),
                "+topology", "new-cells", "cumulative");
    for (std::size_t i = 0; i < points.size(); ++i) {
      const auto& p = points[i];
      std::printf("%12s %10zu %12zu\n", p.topology.c_str(), p.new_cells,
                  p.cumulative_cells);
      if (i == 3) pr.after_paper_four = p.cumulative_cells;
      pr.total = p.cumulative_cells;
    }
    std::printf("\n");
  }

  bool plateau = true;
  std::printf("paper shape check:\n");
  for (const auto& pr : profiles) {
    const bool ok = pr.total <= pr.after_paper_four + pr.max_extra;
    plateau = plateau && ok;
    std::printf("  %s: four extra topologies add <=%zu cells beyond the "
                "paper's four: %s (%zu -> %zu)\n",
                pr.profile.name.c_str(), pr.max_extra, ok ? "yes" : "NO",
                pr.after_paper_four, pr.total);
  }
  return plateau ? 0 : 1;
}
