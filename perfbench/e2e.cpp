// nidkit end-to-end benchmark.
//
//   perfbench_e2e --workload ospf-audit-cold|ospf-audit-warm|triage
//                 --seed S --seconds T --trace 0|1 --work DIR
//
// Every timed run calls cli::run_cli in-process with the argument vector a
// user would type, output to memory, at --jobs 1 on one thread, and is
// checked against a reference report built during set-up. With --trace 0
// the last stdout line is the end-to-end result; with --trace 1 untraced
// runs alternate with traced ones — the same command with the library's
// span recording on (see tracer.hpp) — and the last line holds the
// per-layer split. The spans of the traced runs are written to
// DIR/trace-<workload>-s<seed>.json. See README.md for the workloads.
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cache/key.hpp"
#include "cli/cli.hpp"
#include "harness/experiment.hpp"
#include "host.hpp"
#include "mining/keying.hpp"
#include "topo/topo.hpp"
#include "tracer.hpp"

namespace {

namespace fs = std::filesystem;
namespace nh = nidkit::harness;
namespace obs = nidkit::obs;
using Clock = std::chrono::steady_clock;
using perfbench::Tracer;
using Counts = std::map<std::string, double>;

const Clock::time_point g_process_start = Clock::now();

/// The run-time quantile the end-to-end figures are taken at. The host this
/// was built on alternates, for seconds at a time, between an uncontended
/// speed and one about 1.6x slower; a run's median lands on either, while
/// its fastest twentieth stays near the uncontended speed (README.md).
constexpr double kRunQuantile = 0.05;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work = ".bench_build/perfbench-work";
};

std::optional<Options> parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") o.workload = value;
      else if (key == "--seed") o.seed = std::stoull(value);
      else if (key == "--seconds") o.seconds = std::stod(value);
      else if (key == "--trace") o.trace = value == "1";
      else if (key == "--work") o.work = value;
      else return std::nullopt;
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if (argc % 2 == 0 || o.workload.empty() || o.seconds <= 0) return std::nullopt;
  return o;
}

/// Writes back the work directory's file system. Deleting and writing
/// cache files leaves journal and write-back work that otherwise lands in
/// the next timed run, so every run starts from a clean file system.
void flush_file_system(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return;
  ::syncfs(fd);
  ::close(fd);
}

/// "first,first+1,...,first+count-1" — the CLI's --seeds syntax.
std::string seed_list(std::uint64_t first, std::size_t count) {
  std::string out;
  for (std::size_t i = 0; i < count; ++i) {
    if (i) out += ',';
    out += std::to_string(first + i);
  }
  return out;
}

struct CommandResult {
  int rc = -1;
  std::string out;
  std::string err;
};

CommandResult run_nidt(const std::vector<std::string>& argv) {
  CommandResult r;
  std::ostringstream out, err;
  try {
    r.rc = nidkit::cli::run_cli(argv, out, err);
  } catch (const std::exception& e) {
    err << "exception: " << e.what();
  }
  r.out = out.str();
  r.err = err.str();
  return r;
}

std::string read_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  std::ostringstream os;
  os << file.rdbuf();
  return os.str();
}

/// The unsigned number after the last "key": in a JSON text, if present.
std::optional<std::uint64_t> json_count(const std::string& json,
                                        const std::string& key) {
  const auto at = json.rfind("\"" + key + "\":");
  if (at == std::string::npos) return std::nullopt;
  std::size_t i = at + key.size() + 3;
  if (i >= json.size() || json[i] < '0' || json[i] > '9') return std::nullopt;
  std::uint64_t v = 0;
  for (; i < json.size() && json[i] >= '0' && json[i] <= '9'; ++i)
    v = v * 10 + static_cast<std::uint64_t>(json[i] - '0');
  return v;
}

double count_of(const std::string& json, const std::string& key) {
  return static_cast<double>(json_count(json, key).value_or(0));
}

std::string join(const std::vector<std::string>& items, char sep) {
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i) out += sep;
    out += items[i];
  }
  return out;
}

/// One workload: a timed command, its set-up and reference, and its checks.
class Workload {
 public:
  Workload(std::string work_dir, std::string name)
      : work_(std::move(work_dir)),
        stats_path_(work_ + "/" + name + ".stats.json") {}
  virtual ~Workload() = default;

  /// Untimed set-up before the warm-up run; may set the reference report.
  /// Throws std::runtime_error when set-up fails.
  virtual void setup() {}
  /// Set-up repetitions in one benchmark run (setup_s is their median).
  virtual int setup_reps() const { return 7; }

  const std::vector<std::string>& command() const { return command_; }
  /// Work counts set-up measured (warm: the bytes the cache fill wrote).
  const Counts& setup_counts() const { return setup_counts_; }

  /// Runs the command once and checks it; returns its wall ms. `why` is
  /// empty when the run was correct, else the reason it failed. `scenarios`
  /// gets the scenario jobs the run resolved.
  double timed_run(std::string& why, std::uint64_t& scenarios) {
    fs::remove(stats_path_);
    flush_file_system(work_);
    const auto t0 = Clock::now();
    const CommandResult r = run_nidt(command_);
    const double ms = ms_between(t0, Clock::now());
    why = check(r, scenarios);
    return ms;
  }

  /// The same run with the library's span recording on, as traced run
  /// "run" in `tracer`, checked like a timed run. Returns the work counts
  /// read from the program's output and its process counters.
  Counts traced_run(Tracer& tracer, std::string& why) {
    fs::remove(stats_path_);
    flush_file_system(work_);
    CommandResult r;
    tracer.record("run", [&] { r = run_nidt(command_); });
    std::uint64_t scenarios = 0;
    why = check(r, scenarios);
    const auto& registry = obs::Registry::instance();
    const std::string stats = read_file(stats_path_);
    Counts counts = {
        {"simulate.frames", static_cast<double>(registry.hot_counter(
                                obs::Hot::kFramesDelivered))},
        {"simulate.events", static_cast<double>(registry.hot_counter(
                                obs::Hot::kEventsExecuted))},
        {"cache.pack_hits", count_of(stats, "pack_hits")},
        {"cache.loose_hits", count_of(stats, "loose_hits")},
        {"cache.misses", count_of(stats, "misses")},
        {"detect.report_bytes", static_cast<double>(r.out.size())}};
    add_counts(r.out, stats, counts);
    return counts;
  }

  /// Splits the library records no span for, timed by the benchmark on
  /// the traced run's inputs right after it (warm: cache key hashing).
  virtual void record_splits(Tracer&, Counts&) {}

  /// The set-up's warm-up run: on the first set-up without a reference,
  /// its output becomes the reference.
  void warm_up() {
    const CommandResult r = run_nidt(command_);
    if (reference_.empty() && r.rc == 0) reference_ = r.out;
    std::uint64_t scenarios = 0;
    const std::string why = check(r, scenarios);
    if (!why.empty()) throw std::runtime_error("warm-up run: " + why);
  }

 protected:
  /// The counts only this workload's report or stats carry.
  virtual void add_counts(const std::string& report, const std::string&,
                          Counts& counts) const {
    std::size_t found = 0;
    for (auto at = report.find("\"present_in\":"); at != std::string::npos;
         at = report.find("\"present_in\":", at + 1))
      ++found;
    counts["detect.discrepancies"] = static_cast<double>(found);
  }

  std::string check(const CommandResult& r, std::uint64_t& scenarios) const {
    if (r.rc != 0)
      return "exit code " + std::to_string(r.rc) + ": " + r.err;
    if (r.out != reference_) return "report differs from the reference";
    const std::string stats = read_file(stats_path_);
    const auto tasks = json_count(stats, "tasks_run");
    if (!tasks) return "no executor stats written";
    scenarios = *tasks + json_count(stats, "hits").value_or(0) +
                json_count(stats, "in_flight_dedup").value_or(0);
    if (expect_packed_ > 0) {
      const auto packed = json_count(stats, "pack_hits").value_or(0);
      const auto misses = json_count(stats, "misses").value_or(1);
      if (packed != expect_packed_ || misses != 0)
        return "warm run had " + std::to_string(packed) + " pack hits and " +
               std::to_string(misses) + " misses, want " +
               std::to_string(expect_packed_) + " and 0";
    }
    return "";
  }

  /// Establishes (or, on later set-ups, re-checks) the reference report.
  void set_reference(const CommandResult& r, const char* what) {
    if (r.rc != 0)
      throw std::runtime_error(std::string(what) + ": exit code " +
                               std::to_string(r.rc) + ": " + r.err);
    if (reference_.empty()) reference_ = r.out;
    else if (r.out != reference_)
      throw std::runtime_error(std::string(what) +
                               ": report differs from the first set-up's");
  }

  std::string work_;
  std::string stats_path_;
  std::vector<std::string> command_;
  std::string reference_;
  Counts setup_counts_;
  /// Warm only: every run must be served wholly from packs.
  std::uint64_t expect_packed_ = 0;
};

/// 128 scenarios (frr, bird × 8 extended topologies × 8 seeds), no cache:
/// the pipeline as a first run.
class ColdAudit : public Workload {
 public:
  ColdAudit(const std::string& work, std::uint64_t seed)
      : Workload(work, "ospf-audit-cold") {
    command_ = {"audit", "--impls", "frr,bird", "--topos", "extended",
                "--seeds", seed_list(seed, 8), "--jobs", "1", "--no-cache",
                "--format", "json", "--stats-out", stats_path_};
  }
};

/// 1,024 scenarios (seeds S..S+63) against a compacted cache: every
/// scenario is a pack hit and nothing is simulated — the CI re-audit.
class WarmAudit : public Workload {
 public:
  WarmAudit(const std::string& work, std::uint64_t seed)
      : Workload(work, "ospf-audit-warm"), dir_(work + "/warm-cache") {
    command_ = {"audit", "--impls", "frr,bird", "--topos", "extended",
                "--seeds", seed_list(seed, kSeeds), "--jobs", "1",
                "--cache-dir", dir_, "--format", "json", "--stats-out",
                stats_path_};
    // The jobs the command resolves, for timing their cache keys.
    nh::ExperimentConfig config;
    config.seeds.clear();
    for (std::size_t i = 0; i < kSeeds; ++i) config.seeds.push_back(seed + i);
    miner_ = config.miner_config();
    for (const auto& profile :
         {nidkit::ospf::frr_profile(), nidkit::ospf::bird_profile()})
      for (const auto& spec : nidkit::topo::extended_topologies())
        for (const auto s : config.seeds) {
          jobs_.push_back(config.scenario_for(spec, s));
          jobs_.back().protocol = nh::Protocol::kOspf;
          jobs_.back().ospf_profile = profile;
        }
    expect_packed_ = jobs_.size();
  }

  int setup_reps() const override { return 5; }

  /// Fills the cache with one cold run (the reference), then compacts it.
  void setup() override {
    fs::remove_all(dir_);
    std::vector<std::string> fill = command_;
    fill.resize(fill.size() - 2);  // no --stats-out: the fill is not checked
    set_reference(run_nidt(fill), "cache fill");
    double bytes = 0;
    for (const auto& f : fs::recursive_directory_iterator(dir_))
      if (f.is_regular_file()) bytes += static_cast<double>(f.file_size());
    setup_counts_["cache.put_bytes"] = bytes;
    obs::Span span("cache-compact");
    const CommandResult c = run_nidt({"cache", "compact", "--cache-dir", dir_});
    if (c.rc != 0) throw std::runtime_error("cache compact: " + c.err);
  }

  void record_splits(Tracer& tracer, Counts& counts) override {
    const auto scheme = nidkit::mining::ospf_type_scheme();
    std::vector<nidkit::cache::ScenarioKey> keys;
    keys.reserve(jobs_.size());
    tracer.record("cache-key", [&] {
      for (const auto& job : jobs_)
        keys.push_back(nidkit::cache::scenario_key(
            job, miner_, scheme.name,
            nidkit::cache::PayloadKind::kMinedRelations));
    });
    counts["cache.keys"] = static_cast<double>(keys.size());
  }

 private:
  static constexpr std::size_t kSeeds = 64;
  std::string dir_;
  std::vector<nh::Scenario> jobs_;
  nidkit::mining::MinerConfig miner_;
};

/// Audit three implementations, then delta-debug, inject and rank the
/// first two flags within a fixed probe budget, without a cache.
class Triage : public Workload {
 public:
  Triage(const std::string& work, std::uint64_t seed)
      : Workload(work, "triage") {
    // Three implementations flag at least two cells on every seed tried,
    // and the caps fix the probe count, so the work per run barely depends
    // on the seed. No --cache-dir: a cache emptied before every run made
    // each run create and delete a few hundred files, and the kernel's
    // deferred work for them slowed whichever run came next (README.md).
    command_ = {"triage", "--impls", "frr,bird,strict", "--seeds",
                seed_list(seed, 4), "--max-incidents", "2", "--max-probes",
                "24", "--jobs", "1", "--no-cache", "--format", "json",
                "--stats-out", stats_path_};
  }

 protected:
  void add_counts(const std::string& report, const std::string& stats,
                  Counts& counts) const override {
    counts["detect.discrepancies"] = count_of(report, "flagged");
    counts["triage.probes"] = count_of(report, "probes");  // the summary's
    counts["triage.scenarios"] = count_of(stats, "tasks_run");
  }
};

std::unique_ptr<Workload> make_workload(const Options& o) {
  if (o.workload == "ospf-audit-cold")
    return std::make_unique<ColdAudit>(o.work, o.seed);
  if (o.workload == "ospf-audit-warm")
    return std::make_unique<WarmAudit>(o.work, o.seed);
  if (o.workload == "triage") return std::make_unique<Triage>(o.work, o.seed);
  return nullptr;
}

/// Linear-interpolated quantile of unsorted samples.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

struct Metric {
  const char* name;
  const char* unit;
};

// Must match "end_to_end" and "per_layer" in BENCHMARK.json.
constexpr Metric kEndToEnd[] = {{"setup_s", "s"},
                                {"run_ms.p05", "ms"},
                                {"scenarios_per_s", "1/s"},
                                {"peak_rss_mb", "MiB"}};

constexpr Metric kPerLayer[] = {
    {"simulate.ms", "ms"},         {"simulate.calls", "count"},
    {"simulate.events", "count"},  {"simulate.frames", "count"},
    {"simulate.ns_per_frame", "ns"},
    {"mine.ms", "ms"},             {"merge.ms", "ms"},
    {"cache.key_ms", "ms"},        {"cache.keys", "count"},
    {"cache.lookup_ms", "ms"},     {"cache.us_per_hit", "us"},
    {"cache.pack_hits", "count"},  {"cache.loose_hits", "count"},
    {"cache.misses", "count"},     {"cache.hit_ratio", "ratio"},
    {"cache.put_ms", "ms"},        {"cache.puts", "count"},
    {"cache.put_bytes", "bytes"},  {"cache.compact_ms", "ms"},
    {"detect.discrepancies", "count"},
    {"detect.report_bytes", "bytes"},
    {"triage.probes", "count"},    {"triage.scenarios", "count"},
    {"triage.scenario_ms", "ms"},  {"triage.find_ms", "ms"},
    {"triage.minimize_ms", "ms"},  {"triage.inject_ms", "ms"},
    {"trace.overhead_pct", "%"},   {"trace.unattributed_pct", "%"}};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// One traced run's per-layer values from its spans and counts. Span names
/// are the library's (obs) phases plus the benchmark's split spans.
Counts layer_values(const Tracer& tracer, std::size_t first, Counts v) {
  const auto layers = tracer.layers(first);
  const auto layer = [&](const char* name) {
    const auto it = layers.find(name);
    return it == layers.end() ? Tracer::Layer{} : it->second;
  };
  v["simulate.ms"] = layer("simulate").self_ms;
  v["simulate.calls"] = static_cast<double>(layer("simulate").calls);
  v["mine.ms"] = layer("mine").self_ms;
  v["merge.ms"] = layer("merge").self_ms;
  v["cache.key_ms"] = layer("cache-key").self_ms;
  v["cache.lookup_ms"] = layer("cache-lookup").self_ms;
  if (layer("triage-find").calls > 0)
    v["triage.scenario_ms"] = layer("scenario").total_ms;
  v["triage.find_ms"] = layer("triage-find").self_ms;
  v["triage.minimize_ms"] = layer("triage-minimize").self_ms;
  v["triage.inject_ms"] = layer("triage-inject").self_ms;
  v["simulate.ns_per_frame"] =
      ratio(v["simulate.ms"] * 1e6, v["simulate.frames"]);
  const double hits = v["cache.pack_hits"] + v["cache.loose_hits"];
  v["cache.us_per_hit"] = ratio(v["cache.lookup_ms"] * 1e3, hits);
  v["cache.hit_ratio"] = ratio(hits, hits + v["cache.misses"]);
  v["trace.unattributed_pct"] =
      ratio(100 * layer("run").self_ms, layer("run").total_ms);
  return v;
}

void print_metrics(std::ostream& os, bool correct, std::uint64_t attempted,
                   std::uint64_t failed,
                   const std::vector<std::pair<Metric, double>>& metrics) {
  os.precision(17);
  os << "{\"correct\":" << (correct ? "true" : "false")
     << ",\"attempted\":" << attempted << ",\"failed\":" << failed
     << ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) os << ",";
    os << "\"" << metrics[i].first.name << "\":{\"value\":"
       << metrics[i].second << ",\"unit\":\"" << metrics[i].first.unit
       << "\"}";
  }
  os << "}}\n";
}

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_failure;

  void add(const std::string& why) {
    ++attempted;
    if (why.empty()) return;
    if (failed++ == 0) first_failure = why;
  }
};

int run(const Options& o) {
  fs::create_directories(o.work);
  auto wl = make_workload(o);
  if (!wl) {
    std::cerr << "unknown workload: " << o.workload << "\n";
    return 2;
  }

  // Set-up, repeated; the first repetition is timed from process start.
  // A traced benchmark sets up once, with span recording on, so the cache
  // write path (put, compact) shows as traced run 0.
  Tracer tracer;
  std::vector<double> setup_s;
  const int reps = o.trace ? 1 : wl->setup_reps();
  for (int i = 0; i < reps; ++i) {
    const auto t0 = i == 0 ? g_process_start : Clock::now();
    if (o.trace) tracer.record("setup", [&] { wl->setup(); });
    else wl->setup();
    wl->warm_up();
    setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
    flush_file_system(o.work);
  }
  Counts setup_values = wl->setup_counts();
  if (o.trace) {
    const auto layers = tracer.layers(0);
    if (const auto it = layers.find("cache-store"); it != layers.end()) {
      setup_values["cache.put_ms"] = it->second.self_ms;
      setup_values["cache.puts"] = static_cast<double>(it->second.calls);
    }
    if (const auto it = layers.find("cache-compact"); it != layers.end())
      setup_values["cache.compact_ms"] = it->second.self_ms;
  }

  Tally tally;
  std::vector<double> run_ms;
  std::uint64_t good_runs = 0;
  std::uint64_t scenarios = 0;
  double timed_ms = 0;
  std::vector<double> traced_ms;
  std::vector<Counts> layers;
  const auto end = Clock::now() + std::chrono::duration<double>(o.seconds);
  while (Clock::now() < end) {
    std::string why;
    std::uint64_t n = 0;
    const double ms = wl->timed_run(why, n);
    run_ms.push_back(ms);
    tally.add(why);
    if (why.empty()) {
      ++good_runs;
      scenarios += n;
      timed_ms += ms;
    }
    if (!o.trace) continue;

    const std::size_t first = tracer.next_run();
    Counts counts = wl->traced_run(tracer, why);
    tally.add(why.empty() ? "" : "traced run: " + why);
    wl->record_splits(tracer, counts);
    Counts values = layer_values(tracer, first, std::move(counts));
    traced_ms.push_back(tracer.layers(first).at("run").total_ms);
    layers.push_back(std::move(values));
  }
  const double rss_mb = perfbench::peak_rss_mb();

  // Recorded facts, not metrics: the command, the run-time distribution
  // and set-up repetitions, and the host.
  std::cout.precision(17);
  std::cout << "{\"info\":\"perfbench\",\"workload\":\"" << o.workload
            << "\",\"seed\":" << o.seed << ",\"command\":\"nidt "
            << join(wl->command(), ' ') << "\",\"runs\":" << run_ms.size()
            << ",\"run_ms\":{\"p05\":" << quantile(run_ms, 0.05)
            << ",\"p50\":" << quantile(run_ms, 0.5)
            << ",\"p90\":" << quantile(run_ms, 0.9)
            << ",\"mean\":" << ratio(timed_ms, static_cast<double>(good_runs))
            << "},\"setup_s\":[";
  for (std::size_t i = 0; i < setup_s.size(); ++i)
    std::cout << (i ? "," : "") << setup_s[i];
  std::cout << "],\"host\":" << perfbench::probe_host().to_json() << "}\n";
  if (tally.failed)
    std::cerr << tally.failed << " failed runs; first: " << tally.first_failure
              << "\n";

  std::vector<std::pair<Metric, double>> metrics;
  if (!o.trace) {
    const double run_p = quantile(run_ms, kRunQuantile);
    const double per_run = ratio(static_cast<double>(scenarios),
                                 static_cast<double>(good_runs));
    metrics = {{kEndToEnd[0], quantile(setup_s, 0.5)},
               {kEndToEnd[1], run_p},
               {kEndToEnd[2], ratio(per_run * 1e3, run_p)},
               {kEndToEnd[3], rss_mb}};
  } else {
    for (const Metric& m : kPerLayer) {
      const std::string name = m.name;
      double value = 0;
      if (name == "trace.overhead_pct") {
        value = 100 * (ratio(quantile(traced_ms, kRunQuantile),
                             quantile(run_ms, kRunQuantile)) -
                       1);
      } else if (setup_values.count(name)) {
        value = setup_values.at(name);
      } else {
        std::vector<double> xs;
        for (const auto& l : layers) {
          const auto it = l.find(name);
          xs.push_back(it == l.end() ? 0.0 : it->second);
        }
        value = quantile(xs, 0.5);
      }
      metrics.push_back({m, value});
    }
    const std::string path =
        o.work + "/trace-" + o.workload + "-s" + std::to_string(o.seed) + ".json";
    std::ofstream file(path);
    tracer.write_chrome_json(file);
  }
  print_metrics(std::cout, tally.failed == 0, tally.attempted, tally.failed,
                metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = parse_options(argc, argv);
  if (!options) {
    std::cerr << "usage: perfbench_e2e --workload NAME --seed N --seconds T "
                 "--trace 0|1 [--work DIR]\n";
    return 2;
  }
  try {
    return run(*options);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
