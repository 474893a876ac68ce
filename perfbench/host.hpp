// Facts about the machine a benchmark result was measured on. They are
// recorded with every result, not compared as metrics: they say how many
// cores the run could really use and how the benchmark was built.
#pragma once

#include <string>

namespace perfbench {

struct HostFacts {
  long nproc = 0;          ///< online processors (sysconf)
  int affinity_cpus = 0;   ///< CPUs in this process's sched_getaffinity mask
  std::string cpu_max;     ///< cgroup v2 cpu.max ("max 100000", or "none")
  /// Burner probe: copies of a fixed integer loop run alone and then as
  /// `burner_copies` concurrent threads. The slowdown is the concurrent
  /// wall time over the solo one; effective cores = copies / slowdown.
  int burner_copies = 0;
  double burner_solo_ms = 0;
  double burner_concurrent_ms = 0;
  double effective_cores = 0;
  std::string build_type;
  std::string cxx_flags;
  std::string compiler;

  std::string to_json() const;
};

/// Reads the static facts and runs the burner probe (about 0.2 s).
HostFacts probe_host();

/// Peak resident set of this process so far, in MiB (getrusage).
double peak_rss_mb();

}  // namespace perfbench
