// Result-cache benchmark + correctness gate.
//
// Runs the paper's default audit (4 topologies × 3 seeds, frr vs bird)
// cold into a fresh cache directory, warm from the segment the cold run
// wrote, then compacts and runs warm again, and measures:
//
//   cold_ms / warm_ms     end-to-end audit wall clock — the headline
//                         number: a warm cache replays every scenario
//                         instead of simulating it. warm_ms is the run
//                         after compact; warm_precompact_ms the one before.
//   mean_lookup_us        mean per-entry Store::get latency against the
//                         compacted directory, through one long-lived
//                         Store (every get decodes from the mapping).
//   mean_batch_lookup_us  per-key latency of one Store::get_batch over
//                         the full key set (the run_cached warm path).
//
// Exit status: nonzero if any warm report JSON differs from the cold one
// byte-for-byte, if a warm run missed, if compact did not keep every
// entry, if a warm hit was not read from a segment, or if the mean lookup
// exceeds the gate — 3µs by default in full mode, override or enable in
// short mode with --gate-lookup-us N. Full mode also keeps the
// warm-speedup >= 5x floor. Results are printed and written to
// BENCH_cache.json (override with --out).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "cache/store.hpp"
#include "detect/json.hpp"
#include "harness/experiment.hpp"

using namespace nidkit;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

namespace {

struct Run {
  std::string json;
  double wall_ms = 0;
  harness::ExecReport exec;
};

Run run_audit(const harness::ExperimentConfig& config) {
  const auto start = Clock::now();
  const auto audit = harness::audit_ospf(
      {ospf::frr_profile(), ospf::bird_profile()}, config,
      mining::ospf_type_scheme());
  Run run;
  run.wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start).count();
  run.json = detect::to_json(audit.named(), audit.discrepancies);
  run.exec = audit.exec;
  return run;
}

/// Per-entry Store::get latency over every entry in `dir`: the minimum
/// per-round mean across `rounds` timed rounds of >= `min_lookups` gets
/// each, through one long-lived Store — what a warm fleet process pays:
/// index the directory once, look entries up many times. Min-of-means
/// rather than one long mean because the gate runs on shared CI machines —
/// a scheduler preemption can inflate a mean but never deflate a minimum,
/// so the number is the achievable steady-state latency and the
/// regression gate does not flap on noise.
double mean_lookup_us(const std::string& dir,
                      const std::vector<cache::ScenarioKey>& keys,
                      std::size_t rounds = 8,
                      std::size_t min_lookups = 2048) {
  if (keys.empty()) return 0;
  cache::Store store(dir);
  double best_us = 0;
  for (std::size_t round = 0; round < rounds; ++round) {
    std::size_t done = 0;
    std::size_t found = 0;
    const auto start = Clock::now();
    while (done < min_lookups) {
      for (const auto& key : keys)
        if (store.get(key).has_value()) ++found;
      done += keys.size();
    }
    const double total_us =
        std::chrono::duration<double, std::micro>(Clock::now() - start).count();
    if (found == 0) continue;
    const double mean = total_us / static_cast<double>(found);
    if (best_us == 0 || mean < best_us) best_us = mean;
  }
  return best_us;
}

/// Per-key latency of batched lookups against the compacted store (one
/// long-lived Store, min-of-means — same reasoning as mean_lookup_us).
double mean_batch_lookup_us(const std::string& dir,
                            const std::vector<cache::ScenarioKey>& keys,
                            std::size_t rounds = 8,
                            std::size_t min_lookups = 2048) {
  if (keys.empty()) return 0;
  cache::Store store(dir);
  double best_us = 0;
  for (std::size_t round = 0; round < rounds; ++round) {
    std::size_t done = 0;
    std::size_t found = 0;
    const auto start = Clock::now();
    while (done < min_lookups) {
      const auto batch = store.get_batch(keys);
      for (const auto& e : batch.entries)
        if (e.has_value()) ++found;
      done += keys.size();
    }
    const double total_us =
        std::chrono::duration<double, std::micro>(Clock::now() - start).count();
    if (found == 0) continue;
    const double mean = total_us / static_cast<double>(found);
    if (best_us == 0 || mean < best_us) best_us = mean;
  }
  return best_us;
}

}  // namespace

int main(int argc, char** argv) {
  bool short_mode = false;
  std::string out_path = "BENCH_cache.json";
  double gate_lookup_us = -1;  // <0: default policy (3µs in full mode)
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--short") == 0) {
      short_mode = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--gate-lookup-us") == 0 && i + 1 < argc) {
      gate_lookup_us = std::atof(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: bench_cache [--short] [--out file]"
                   " [--gate-lookup-us N]\n");
      return 2;
    }
  }
  if (gate_lookup_us < 0) gate_lookup_us = short_mode ? 0 : 3.0;

  harness::ExperimentConfig config;  // paper defaults: 4 topologies, 3 seeds
  config.jobs = 1;  // serial baseline: isolates caching from parallelism
  if (short_mode) {
    config.topologies = {topo::Spec{topo::Kind::kLinear, 2},
                         topo::Spec{topo::Kind::kMesh, 3}};
    config.seeds = {1};
    config.duration = std::chrono::seconds(90);
  }

  const fs::path dir =
      fs::temp_directory_path() / "nidkit_bench_cache";
  fs::remove_all(dir);
  config.cache_dir = dir.string();

  std::printf("=== Result cache: audit cold vs warm (%s mode) ===\n\n",
              short_mode ? "short" : "full");

  const Run cold = run_audit(config);
  const Run warm_precompact = run_audit(config);

  std::vector<cache::ScenarioKey> keys;
  for (const auto& f : cache::Store::ls(config.cache_dir))
    keys.push_back(f.key);

  const auto compacted = cache::compact(config.cache_dir);
  const bool compact_ok = compacted.has_value() &&
                          compacted->kept == keys.size() &&
                          compacted->skipped == 0;
  const Run warm = run_audit(config);
  const double lookup_us = mean_lookup_us(config.cache_dir, keys);
  const double batch_lookup_us =
      mean_batch_lookup_us(config.cache_dir, keys);

  std::uint64_t cache_bytes = 0;
  for (const auto& f : cache::Store::ls(config.cache_dir))
    cache_bytes += f.bytes;
  fs::remove_all(dir);

  const bool identical =
      cold.json == warm_precompact.json && cold.json == warm.json;
  bool all_hits = true;
  bool all_from_segments = true;
  for (const Run* run : {&warm_precompact, &warm}) {
    all_hits = all_hits && run->exec.cache_misses == 0 &&
               run->exec.cache_hits == cold.exec.cache_misses;
    all_from_segments = all_from_segments &&
                        run->exec.cache_pack_hits == run->exec.cache_hits;
  }
  const double speedup = warm.wall_ms > 0 ? cold.wall_ms / warm.wall_ms : 0;

  char json[1024];
  std::snprintf(
      json, sizeof(json),
      "{\"bench\":\"cache\",\"mode\":\"%s\",\"scenarios\":%llu,"
      "\"cold_ms\":%.2f,\"warm_precompact_ms\":%.2f,\"warm_ms\":%.2f,"
      "\"speedup\":%.2f,\"mean_lookup_us\":%.2f,"
      "\"mean_batch_lookup_us\":%.2f,"
      "\"cache_bytes\":%llu,\"warm_hits\":%llu,\"warm_pack_hits\":%llu,"
      "\"warm_misses\":%llu,\"report_json_identical\":%s}",
      short_mode ? "short" : "full",
      static_cast<unsigned long long>(cold.exec.cache_misses), cold.wall_ms,
      warm_precompact.wall_ms, warm.wall_ms, speedup, lookup_us,
      batch_lookup_us, static_cast<unsigned long long>(cache_bytes),
      static_cast<unsigned long long>(warm.exec.cache_hits),
      static_cast<unsigned long long>(warm.exec.cache_pack_hits),
      static_cast<unsigned long long>(warm.exec.cache_misses),
      identical ? "true" : "false");
  std::printf("%s\n\n", json);

  std::printf("correctness checks:\n"
              "  warm report JSONs byte-identical to cold:  %s\n"
              "  warm runs served entirely from cache:      %s\n"
              "  compact kept every entry:                  %s\n"
              "  every warm hit read from a segment:        %s\n",
              identical ? "yes" : "NO", all_hits ? "yes" : "NO",
              compact_ok ? "yes" : "NO", all_from_segments ? "yes" : "NO");
  const bool lookup_ok = gate_lookup_us <= 0 || lookup_us <= gate_lookup_us;
  if (gate_lookup_us > 0)
    std::printf("lookup gate:\n"
                "  mean lookup <= %.1fus: %s (%.2fus; batch %.2fus)\n",
                gate_lookup_us, lookup_ok ? "yes" : "NO", lookup_us,
                batch_lookup_us);
  std::printf("speedup check (%s in %s mode):\n"
              "  warm >= 5x faster than cold: %s (%.1fx)\n",
              short_mode ? "informational only" : "enforced",
              short_mode ? "short" : "full", speedup >= 5.0 ? "yes" : "NO",
              speedup);

  std::ofstream file(out_path);
  if (file) {
    file << json << "\n";
  } else {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
  }

  if (!identical || !all_hits || !compact_ok || !all_from_segments) return 1;
  if (!lookup_ok) return 1;
  if (!short_mode && speedup < 5.0) return 1;
  return 0;
}
