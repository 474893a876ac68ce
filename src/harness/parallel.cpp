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

void ExecReport::accumulate(const ExecReport& other) {
  jobs = std::max(jobs, other.jobs);
  tasks_run += other.tasks_run;
  wall_ms += other.wall_ms;
  cache_enabled = cache_enabled || other.cache_enabled;
  cache_hits += other.cache_hits;
  cache_pack_hits += other.cache_pack_hits;
  cache_misses += other.cache_misses;
  cache_dedup += other.cache_dedup;
}

std::string ExecReport::to_json() const {
  std::ostringstream os;
  os << "{\"jobs\":" << jobs << ",\"tasks_run\":" << tasks_run
     << ",\"wall_ms\":" << wall_ms;
  if (cache_enabled) {
    os << ",\"cache\":{\"hits\":" << cache_hits << ",\"pack_hits\":"
       << cache_pack_hits << ",\"misses\":" << cache_misses
       << ",\"in_flight_dedup\":" << cache_dedup << "}";
  }
  os << "}";
  return os.str();
}

}  // namespace nidkit::harness
