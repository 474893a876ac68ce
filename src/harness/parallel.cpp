#include "harness/parallel.hpp"

#include <sched.h>

#include <algorithm>
#include <sstream>
#include <thread>

namespace nidkit::harness {

std::size_t worker_count(std::size_t jobs) {
  if (jobs > 0) return jobs;
  cpu_set_t mask;
  if (sched_getaffinity(0, sizeof mask, &mask) == 0)
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&mask)));
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string ExecReport::to_json() const {
  std::ostringstream os;
  os << "{\"jobs\":" << jobs << ",\"tasks_run\":" << tasks_run
     << ",\"wall_ms\":" << wall_ms;
  if (cache_enabled) {
    os << ",\"cache\":{\"hits\":" << cache_hits << ",\"pack_hits\":"
       << cache_pack_hits << ",\"misses\":" << cache_misses << "}";
  }
  os << "}";
  return os.str();
}

}  // namespace nidkit::harness
