#include "host.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

/// Burner results land here so the compiler cannot drop the loops.
volatile std::uint64_t g_burn_sink = 0;

/// A fixed amount of integer work that stays in registers.
std::uint64_t burn(std::uint64_t iterations) {
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (std::uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

double burn_ms(std::uint64_t iterations, std::uint64_t& sink) {
  const auto t0 = Clock::now();
  sink += burn(iterations);
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

std::string read_cpu_max() {
  std::ifstream file("/sys/fs/cgroup/cpu.max");
  std::string line;
  if (!file || !std::getline(file, line)) return "none";
  return line;
}

std::string escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

HostFacts probe_host() {
  HostFacts h;
  h.nproc = sysconf(_SC_NPROCESSORS_ONLN);
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0)
    h.affinity_cpus = CPU_COUNT(&set);
  h.cpu_max = read_cpu_max();
  h.build_type = PERFBENCH_BUILD_TYPE;
  h.cxx_flags = PERFBENCH_CXX_FLAGS;
  h.compiler = __VERSION__;

  // Best of three for each side, so one descheduling does not decide it.
  constexpr std::uint64_t kIterations = 20'000'000;
  h.burner_copies = std::max(1, h.affinity_cpus);
  std::uint64_t sink = 0;
  h.burner_solo_ms = 1e300;
  h.burner_concurrent_ms = 1e300;
  for (int round = 0; round < 3; ++round) {
    h.burner_solo_ms = std::min(h.burner_solo_ms, burn_ms(kIterations, sink));
    std::vector<std::uint64_t> sinks(h.burner_copies, 0);
    const auto t0 = Clock::now();
    {
      std::vector<std::jthread> threads;
      for (int i = 0; i < h.burner_copies; ++i)
        threads.emplace_back([&sinks, i] { sinks[i] = burn(kIterations); });
    }  // jthreads join here
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    h.burner_concurrent_ms = std::min(h.burner_concurrent_ms, ms);
    for (const auto v : sinks) sink += v;
  }
  const double slowdown = h.burner_concurrent_ms / h.burner_solo_ms;
  h.effective_cores = h.burner_copies / slowdown;
  g_burn_sink = sink;
  return h;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

std::string HostFacts::to_json() const {
  std::ostringstream os;
  os << "{\"nproc\":" << nproc << ",\"affinity_cpus\":" << affinity_cpus
     << ",\"cgroup_cpu_max\":\"" << escape(cpu_max)
     << "\",\"burner_copies\":" << burner_copies
     << ",\"burner_solo_ms\":" << burner_solo_ms
     << ",\"burner_concurrent_ms\":" << burner_concurrent_ms
     << ",\"effective_cores\":" << effective_cores << ",\"build_type\":\""
     << escape(build_type) << "\",\"cxx_flags\":\"" << escape(cxx_flags)
     << "\",\"compiler\":\"" << escape(compiler) << "\"}";
  return os.str();
}

}  // namespace perfbench
