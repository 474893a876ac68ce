#include "cli/cli.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <string_view>

#include "cache/store.hpp"
#include "cov/cov.hpp"
#include "detect/json.hpp"
#include "detect/report.hpp"
#include "harness/experiment.hpp"
#include "harness/injection.hpp"
#include "harness/stability.hpp"
#include "harness/triage.hpp"
#include "obs/obs.hpp"
#include "trace/pcap.hpp"

namespace nidkit::cli {

using namespace std::chrono_literals;

namespace {

/// Parses all of `text` as an integer of type T; a sign on an unsigned
/// type, blanks, or any trailing character make it malformed.
template <typename T>
std::optional<T> parse_whole(const std::string& text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || stop != end) return std::nullopt;
  return value;
}

}  // namespace

std::string Args::get(const std::string& key,
                      const std::string& fallback) const {
  auto it = flags.find(key);
  return it == flags.end() ? fallback : it->second;
}

std::optional<long long> Args::get_int(const std::string& key) const {
  auto it = flags.find(key);
  if (it == flags.end()) return std::nullopt;
  return parse_whole<long long>(it->second);
}

std::optional<Args> parse_args(const std::vector<std::string>& tokens,
                               std::ostream& err) {
  Args args;
  std::size_t i = 0;
  if (i < tokens.size() && tokens[i].rfind("--", 0) != 0)
    args.command = tokens[i++];
  // The cache command takes an action word: `nidt cache ls|compact|...`.
  if (args.command == "cache" && i < tokens.size() &&
      tokens[i].rfind("--", 0) != 0)
    args.subcommand = tokens[i++];
  while (i < tokens.size()) {
    const auto& tok = tokens[i];
    if (tok.rfind("--", 0) != 0) {
      err << "unexpected positional argument: " << tok << "\n";
      return std::nullopt;
    }
    // Boolean switches: presence means "on", no value token follows.
    if (tok == "--no-cache" || tok == "--json") {
      // Not `= "1"`: GCC 12 -O3 misreads that as an overlapping copy
      // (-Wrestrict).
      args.flags[tok.substr(2)] = std::string(1, '1');
      i += 1;
      continue;
    }
    if (i + 1 >= tokens.size()) {
      err << "flag " << tok << " needs a value\n";
      return std::nullopt;
    }
    args.flags[tok.substr(2)] = tokens[i + 1];
    i += 2;
  }
  return args;
}

std::vector<std::string> split_list(const std::string& csv) {
  std::vector<std::string> out;
  std::string item;
  std::istringstream is(csv);
  while (std::getline(is, item, ','))
    if (!item.empty()) out.push_back(item);
  return out;
}

namespace {

int usage(std::ostream& out) {
  out << "nidt — non-interoperability detection for routing protocols\n"
         "\n"
         "usage: nidt <command> [--flag value ...]\n"
         "\n"
         "commands:\n"
         "  audit      --protocol ospf|rip|bgp  --impls frr,bird\n"
         "             [--scheme type|gtsn|state|lsatype] [--topos paper|extended]\n"
         "             [--format text|json]\n"
         "             [--tdelay-ms 900] [--seeds 1,2,3] [--duration-s 180]\n"
         "             [--jobs N] [--stats-out s.json]\n"
         "             [--metrics-out m.json] [--trace-out t.json]\n"
         "  trace      --impl frr [--topo mesh-5] [--seed 1]\n"
         "             [--out trace.txt | --pcap capture.pcap]\n"
         "  mine       --in trace.txt [--tdelay-ms 900] [--scheme type]\n"
         "  sweep      [--impl frr] [--max-ms 1500] [--step-ms 150] [--jobs N]\n"
         "  inject     --target frr|bird|strict --stimulus LSU-stale|LSR|...\n"
         "  triage     --impls frr,bird [--scheme gtsn]\n"
         "             [--max-probes 200] [--max-incidents N] [--jobs N]\n"
         "             [--report-out report.json] [--format text|json]\n"
         "             [--churn-s 60,110|none] : audit, then delta-debug\n"
         "             each flag to a minimal repro, confirm by injection,\n"
         "             and rank incidents\n"
         "  stability  [--impl frr] [--scheme type] [--seeds 1,2,3] [--jobs N]\n"
         "  coverage   [audit flags] [--format text|json] : run the audit\n"
         "             and report the behavioral features it exercised,\n"
         "             per-class saturation and the features-seen curve\n"
         "  cache      ls|prune|clear|compact  --cache-dir DIR\n"
         "             [--max-age-days 30] [--json] : compact copies every\n"
         "             valid entry into one fresh segment; prune is compact\n"
         "             that also drops entries older than --max-age-days\n"
         "  help\n"
         "\n"
         "  --jobs N parallelizes scenario execution over N workers\n"
         "  (default: one per CPU this process may run on; results are\n"
         "  identical for every N).\n"
         "  --cache-dir DIR memoizes per-scenario results on disk, keyed\n"
         "  by every simulation-affecting knob; repeat runs (audit, sweep,\n"
         "  stability) replay hits instead of re-simulating, with byte-\n"
         "  identical output. NIDKIT_CACHE_DIR sets a default directory;\n"
         "  --no-cache overrides both.\n"
         "  Telemetry (audit, sweep, triage, stability, coverage), one\n"
         "  file each: --stats-out FILE writes executor wall-time and\n"
         "  cache telemetry. --metrics-out FILE writes the run record,\n"
         "  one section per line: \"sim\" (simulated-time counters) and\n"
         "  \"cov\" (behavioral coverage) are bit-identical for every\n"
         "  --jobs value and cache temperature; \"wall\" holds wall-clock\n"
         "  histograms and span counts. --trace-out FILE writes a Chrome\n"
         "  trace-event JSON of the run's phase spans — open it in\n"
         "  ui.perfetto.dev.\n"
         "  A flag the command does not read, or an integer outside its\n"
         "  range, is a usage error (exit 2).\n";
  return 0;
}

std::optional<ospf::BehaviorProfile> ospf_profile_by_name(
    const std::string& name) {
  if (name == "frr") return ospf::frr_profile();
  if (name == "bird") return ospf::bird_profile();
  if (name == "strict") return ospf::strict_profile();
  return std::nullopt;
}

/// Writes the usage error for an entry `flag`'s list names twice: the
/// repeat would run, and count, the same scenarios again.
void report_repeat(const char* flag, const std::string& token,
                   std::ostream& err) {
  err << flag << " entry '" << token
      << "' repeats an earlier one; each may appear once\n";
}

/// The OSPF implementations --impls names (default frr,bird): each known,
/// each named once, at least two. Nullopt after writing why to `err`.
std::optional<std::vector<ospf::BehaviorProfile>> ospf_impls_from(
    const Args& args, const std::string& command, std::ostream& err) {
  std::vector<ospf::BehaviorProfile> impls;
  std::set<std::string> seen;
  for (const auto& name : split_list(args.get("impls", "frr,bird"))) {
    const auto p = ospf_profile_by_name(name);
    if (!p) {
      err << "unknown OSPF implementation: " << name << "\n";
      return std::nullopt;
    }
    if (!seen.insert(name).second) {
      report_repeat("--impls", name, err);
      return std::nullopt;
    }
    impls.push_back(*p);
  }
  if (impls.size() < 2) {
    err << command << " needs at least two implementations\n";
    return std::nullopt;
  }
  return impls;
}

std::optional<mining::KeyScheme> scheme_by_name(const std::string& name) {
  // Short CLI spellings and the schemes' own names are both accepted —
  // triage's repro command lines quote the latter.
  if (name == "type" || name == "ospf-type") return mining::ospf_type_scheme();
  if (name == "gtsn" || name == "ospf-greater-lssn")
    return mining::ospf_greater_lssn_scheme();
  if (name == "state" || name == "ospf-state")
    return mining::ospf_state_scheme();
  if (name == "lsatype" || name == "ospf-lsa-type")
    return mining::ospf_lsa_type_scheme();
  return std::nullopt;
}

std::optional<topo::Kind> kind_by_name(const std::string& kind) {
  if (kind == "linear") return topo::Kind::kLinear;
  if (kind == "mesh") return topo::Kind::kMesh;
  if (kind == "ring") return topo::Kind::kRing;
  if (kind == "star") return topo::Kind::kStar;
  if (kind == "tree") return topo::Kind::kTree;
  if (kind == "lan") return topo::Kind::kLan;
  return std::nullopt;
}

/// Parses "<kind>-<routers>" (linear-2, mesh-5, ...). Returns nullopt after
/// writing the reason to `err` for an unknown name or a shape topo::build
/// refuses.
std::optional<topo::Spec> topo_by_name(const std::string& name,
                                       std::ostream& err) {
  const auto dash = name.rfind('-');
  const auto kind = kind_by_name(name.substr(0, dash));
  const auto routers = dash == std::string::npos
                           ? std::nullopt
                           : parse_whole<std::size_t>(name.substr(dash + 1));
  if (!kind || !routers) {
    err << "unknown topology: " << name << "\n";
    return std::nullopt;
  }
  const topo::Spec spec{*kind, *routers};
  if (const char* why = topo::spec_error(spec)) {
    err << "bad topology " << name << ": " << why << "\n";
    return std::nullopt;
  }
  return spec;
}

/// Cache directory for this invocation: --no-cache wins, then --cache-dir,
/// then the NIDKIT_CACHE_DIR environment variable. Empty means caching is
/// off (the default).
std::string resolve_cache_dir(const Args& args) {
  if (args.has("no-cache")) return "";
  const char* env = std::getenv("NIDKIT_CACHE_DIR");
  return args.get("cache-dir", env ? env : "");
}

/// Upper bounds of the time flags. Every accepted value converts to
/// microseconds without overflow, and a run at the bound still finishes.
constexpr long long kMaxTdelayMs = 60'000;
/// The finest sweep step, which bounds a sweep at 1,201 TDelay points.
constexpr long long kMinStepMs = 50;
constexpr long long kMaxDurationS = 3'600;
/// Each churn event originates its own /24 from one octet of the address
/// plan, so the 257th would repeat the first.
constexpr std::size_t kMaxChurnTimes = 256;
/// Every scenario result (about 2.4 KB encoded per seed, topology and
/// implementation) stays in memory until the merge.
constexpr std::size_t kMaxSeeds = 4'096;

/// The experiment config the flags describe, in the executor context
/// `base` carries.
std::optional<harness::ExperimentConfig> config_from(
    const Args& args, const harness::ExperimentConfig& base,
    std::ostream& err) {
  harness::ExperimentConfig config = base;
  const std::string topos = args.get("topos", "paper");
  if (topos == "paper") {
    config.topologies = topo::paper_topologies();
  } else if (topos == "extended") {
    config.topologies = topo::extended_topologies();
  } else {
    config.topologies.clear();
    std::set<std::string> seen;
    for (const auto& name : split_list(topos)) {
      const auto spec = topo_by_name(name, err);
      if (!spec) return std::nullopt;
      if (!seen.insert(spec->name()).second) {
        report_repeat("--topos", name, err);
        return std::nullopt;
      }
      config.topologies.push_back(*spec);
    }
  }
  if (const auto ms = args.get_int("tdelay-ms"))
    config.tdelay = SimDuration{*ms * 1000};
  if (const auto s = args.get_int("duration-s"))
    config.duration = std::chrono::seconds(*s);
  if (args.has("churn-s")) {
    // The link-churn schedule, in seconds; "none" disables churn — the
    // spelling triage's repro command lines use for an empty schedule.
    config.churn_times.clear();
    const std::string churn = args.get("churn-s", "");
    if (churn != "none") {
      for (const auto& s : split_list(churn)) {
        const auto secs = parse_whole<long long>(s);
        if (!secs || *secs < 0 || *secs > kMaxDurationS) {
          err << "--churn-s needs seconds from 0 to " << kMaxDurationS
              << " (comma-separated) or none, got '" << s << "'\n";
          return std::nullopt;
        }
        config.churn_times.push_back(std::chrono::seconds(*secs));
      }
    }
    if (config.churn_times.size() > kMaxChurnTimes) {
      err << "--churn-s takes at most " << kMaxChurnTimes
          << " times: each one originates its own /24 from one octet of "
             "the address plan\n";
      return std::nullopt;
    }
  }
  if (args.has("seeds")) {
    config.seeds.clear();
    std::set<std::uint64_t> seen;
    for (const auto& s : split_list(args.get("seeds", ""))) {
      const auto seed = parse_whole<std::uint64_t>(s);
      if (!seed) {
        err << "bad seed '" << s
            << "': --seeds takes whole numbers separated by commas\n";
        return std::nullopt;
      }
      if (!seen.insert(*seed).second) {
        report_repeat("--seeds", s, err);
        return std::nullopt;
      }
      config.seeds.push_back(*seed);
    }
    if (config.seeds.empty()) {
      err << "--seeds must name at least one seed\n";
      return std::nullopt;
    }
    if (config.seeds.size() > kMaxSeeds) {
      err << "--seeds takes at most " << kMaxSeeds
          << " seeds: every scenario result stays in memory until the "
             "merge\n";
      return std::nullopt;
    }
  }
  return config;
}

/// Writes `text` to `path`; false after reporting that it cannot.
bool write_file(const std::string& path, const std::string& text,
                std::ostream& err) {
  std::ofstream file(path);
  if (!file) {
    err << "cannot open " << path << "\n";
    return false;
  }
  file << text;
  return true;
}

/// Scoped telemetry session for one command: writes its --stats-out,
/// --metrics-out and --trace-out files together. When --metrics-out or
/// --trace-out is given, it resets the wall registry and turns recording
/// on, and restores the previous switch on destruction (run_cli is
/// re-entrant — tests share one process).
class ObsSession {
 public:
  ObsSession(const Args& args, std::ostream& err)
      : stats_path_(args.get("stats-out", "")),
        metrics_path_(args.get("metrics-out", "")),
        trace_path_(args.get("trace-out", "")),
        err_(err),
        was_enabled_(obs::enabled()) {
    if (!active()) return;
    obs::Registry::instance().reset();
    obs::set_enabled(true);
  }
  ~ObsSession() {
    if (active()) obs::set_enabled(was_enabled_);
  }

  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  /// Writes the requested files from `exec`, `record` and the wall
  /// registry. Returns false after reporting any I/O failure.
  bool write(const harness::ExecReport& exec,
             const obs::RunRecord& record) const {
    bool ok = true;
    if (!stats_path_.empty())
      ok = write_file(stats_path_, exec.to_json() + "\n", err_);
    if (!metrics_path_.empty())
      ok = write_file(metrics_path_, obs::metrics_json(record), err_) && ok;
    if (!trace_path_.empty()) {
      std::ostringstream trace;
      obs::Registry::instance().write_trace_json(trace);
      ok = write_file(trace_path_, trace.str(), err_) && ok;
    }
    return ok;
  }

 private:
  bool active() const {
    return !metrics_path_.empty() || !trace_path_.empty();
  }

  std::string stats_path_;
  std::string metrics_path_;
  std::string trace_path_;
  std::ostream& err_;
  bool was_enabled_;
};

int cmd_audit(const Args& args, const harness::ExperimentConfig& base,
              std::ostream& out, std::ostream& err) {
  const std::string protocol = args.get("protocol", "ospf");
  auto config = config_from(args, base, err);
  if (!config) return 2;

  if (protocol == "ospf") {
    const auto impls = ospf_impls_from(args, "audit", err);
    if (!impls) return 2;
    const auto scheme = scheme_by_name(args.get("scheme", "type"));
    if (!scheme) {
      err << "unknown scheme: " << args.get("scheme", "type") << "\n";
      return 2;
    }
    const auto audit = harness::audit_ospf(*impls, *config, *scheme);
    if (args.get("format", "text") == "json") {
      out << detect::to_json(audit.named(), audit.discrepancies) << "\n";
      return 0;
    }
    std::set<std::string> stims, resps;
    for (const auto& [name, set] : audit.by_impl) {
      for (const auto& s : set.stimulus_labels()) stims.insert(s);
      for (const auto& r : set.response_labels()) resps.insert(r);
    }
    out << detect::render_matrix(
               audit.named(),
               std::vector<std::string>(stims.begin(), stims.end()),
               std::vector<std::string>(resps.begin(), resps.end()),
               mining::RelationDirection::kSendToRecv)
        << "\n"
        << detect::render_discrepancies(audit.discrepancies);
    return 0;
  }
  if (protocol == "rip") {
    config->duration = std::max(config->duration, SimDuration{240s});
    const auto audit = harness::audit_rip(
        {rip::rip_classic_profile(), rip::rip_eager_profile()}, *config,
        mining::rip_refined_scheme());
    out << detect::render_discrepancies(audit.discrepancies);
    return 0;
  }
  if (protocol == "bgp") {
    config->duration = std::max(config->duration, SimDuration{300s});
    if (!args.has("topos")) {
      // BGP sessions are point-to-point; the default OSPF topology set is
      // fine but smaller line/ring shapes converge faster.
      config->topologies = {topo::Spec{topo::Kind::kLinear, 3},
                            topo::Spec{topo::Kind::kRing, 4}};
    }
    const auto audit = harness::audit_bgp(
        {bgp::bgp_robust_profile(), bgp::bgp_fragile_profile()}, *config,
        mining::bgp_message_scheme());
    out << detect::render_discrepancies(audit.discrepancies);
    return 0;
  }
  err << "unknown protocol: " << protocol << "\n";
  return 2;
}

int cmd_trace(const Args& args, const harness::ExperimentConfig&,
              std::ostream& out, std::ostream& err) {
  const auto profile = ospf_profile_by_name(args.get("impl", "frr"));
  if (!profile) {
    err << "unknown implementation\n";
    return 2;
  }
  const auto spec = topo_by_name(args.get("topo", "mesh-5"), err);
  if (!spec) return 2;
  harness::Scenario s;
  s.topology = *spec;
  s.ospf_profile = *profile;
  if (const auto seed = args.get_int("seed"))
    s.seed = static_cast<std::uint64_t>(*seed);
  if (const auto ms = args.get_int("tdelay-ms")) s.tdelay = SimDuration{*ms * 1000};
  if (const auto secs = args.get_int("duration-s"))
    s.duration = std::chrono::seconds(*secs);
  const auto result = harness::run_scenario(s);
  if (args.has("pcap")) {
    std::ofstream file(args.get("pcap", ""), std::ios::binary);
    if (!file) {
      err << "cannot open " << args.get("pcap", "") << "\n";
      return 2;
    }
    const auto n = trace::export_pcap(result.log, file);
    out << "wrote " << n << " packets to " << args.get("pcap", "") << "\n";
    return 0;
  }
  if (args.has("out")) {
    std::ofstream file(args.get("out", ""));
    if (!file) {
      err << "cannot open " << args.get("out", "") << "\n";
      return 2;
    }
    result.log.save(file);
    out << "wrote " << result.log.size() << " records to "
        << args.get("out", "") << "\n";
  } else {
    result.log.save(out);
  }
  return 0;
}

int cmd_mine(const Args& args, const harness::ExperimentConfig&,
             std::ostream& out, std::ostream& err) {
  if (!args.has("in")) {
    err << "mine needs --in <trace file>\n";
    return 2;
  }
  std::ifstream file(args.get("in", ""));
  if (!file) {
    err << "cannot open " << args.get("in", "") << "\n";
    return 2;
  }
  auto log = trace::TraceLog::load(file);
  if (!log.ok()) {
    err << "bad trace: " << log.error() << "\n";
    return 2;
  }
  const auto scheme = scheme_by_name(args.get("scheme", "type"));
  if (!scheme) {
    err << "unknown scheme\n";
    return 2;
  }
  mining::MinerConfig mc;
  if (const auto ms = args.get_int("tdelay-ms"))
    mc.tdelay = SimDuration{*ms * 1000};
  mining::CausalMiner miner(mc);
  out << detect::render_relations(miner.mine(log.value(), *scheme));
  return 0;
}

int cmd_sweep(const Args& args, const harness::ExperimentConfig& base,
              std::ostream& out, std::ostream& err) {
  const auto profile = ospf_profile_by_name(args.get("impl", "frr"));
  if (!profile) {
    err << "unknown implementation\n";
    return 2;
  }
  harness::ExperimentConfig config = base;
  config.topologies = {topo::Spec{topo::Kind::kLinear, 2},
                       topo::Spec{topo::Kind::kMesh, 3}};
  config.seeds = {1};
  config.link_jitter = 400ms;
  const long long max_ms = args.get_int("max-ms").value_or(1500);
  const long long step_ms = args.get_int("step-ms").value_or(150);
  std::vector<SimDuration> tds;
  for (long long ms = 0; ms <= max_ms; ms += step_ms)
    tds.push_back(SimDuration{ms * 1000});
  const auto sweep =
      harness::tdelay_sweep(*profile, config, tds, mining::ospf_type_scheme());
  out << "tdelay_ms unobserved spurious precision recall\n";
  for (const auto& p : sweep) {
    std::ostringstream line;
    line << p.tdelay.count() / 1000 << ' ' << p.unobserved_cells << ' '
         << p.spurious_cells << ' ' << p.precision << ' ' << p.recall
         << '\n';
    out << line.str();
  }
  return 0;
}

int cmd_inject(const Args& args, const harness::ExperimentConfig&,
               std::ostream& out, std::ostream& err) {
  const auto profile = ospf_profile_by_name(args.get("target", ""));
  if (!profile) {
    err << "inject needs --target frr|bird|strict\n";
    return 2;
  }
  const std::string stimulus = args.get("stimulus", "LSU-stale");
  if (!harness::injection_supports(stimulus)) {
    err << "unsupported stimulus: " << stimulus << "\n";
    return 2;
  }
  harness::InjectionConfig config;
  config.stimulus = stimulus;
  config.target_profile = *profile;
  const auto outcome = harness::inject_and_observe(config);
  if (!outcome.injected) {
    out << "adjacency never formed; nothing injected\n";
    return 1;
  }
  out << "injected " << stimulus << " into " << profile->name
      << "; responses observed:";
  for (const auto& r : outcome.responses) out << ' ' << r;
  out << "\n";
  return 0;
}

int cmd_triage(const Args& args, const harness::ExperimentConfig& base,
               std::ostream& out, std::ostream& err) {
  auto config = config_from(args, base, err);
  if (!config) return 2;

  harness::TriageConfig tc;
  tc.experiment = *config;
  const auto impls = ospf_impls_from(args, "triage", err);
  if (!impls) return 2;
  // gtsn is the triage default (unlike audit's "type"): its cells carry
  // the +gtSN refinement the injection stimulus table maps directly.
  const auto scheme = scheme_by_name(args.get("scheme", "gtsn"));
  if (!scheme) {
    err << "unknown scheme: " << args.get("scheme", "gtsn") << "\n";
    return 2;
  }
  tc.scheme = *scheme;
  if (const auto n = args.get_int("max-probes"))
    tc.max_probes = static_cast<std::size_t>(*n);
  if (const auto n = args.get_int("max-incidents"))
    tc.max_incidents = static_cast<std::size_t>(*n);

  const auto result = harness::triage_ospf(*impls, tc);
  const std::string report = harness::triage_report_json(result);
  const std::string report_out = args.get("report-out", "");
  if (!report_out.empty() && !write_file(report_out, report, err)) return 2;
  if (args.get("format", "text") == "json") {
    out << report;
    return 0;
  }
  out << "flagged " << result.flagged << " discrepancies, triaged "
      << result.incidents.size() << " (" << result.total_probes
      << " reproduction probes)\n";
  for (const auto& inc : result.incidents) {
    out << "#" << inc.rank << " [" << to_string(inc.confirmation) << "] "
        << detect::to_string(inc.discrepancy.direction) << " "
        << inc.discrepancy.cell.stimulus << " -> "
        << inc.discrepancy.cell.response << " (present in "
        << inc.discrepancy.present_in << ", absent in "
        << inc.discrepancy.absent_in << ")\n";
    if (!inc.reproduced) {
      out << "    " << inc.reason << "\n";
      continue;
    }
    out << "    minimized " << inc.original.topology.name() << "/s"
        << inc.original.seed << " -> " << inc.minimal.topology.name()
        << "/s" << inc.minimal.seed << ", churn "
        << inc.original.churn_times.size() << " -> "
        << inc.minimal.churn_times.size() << " events, tdelay "
        << inc.minimal.tdelay.count() / 1000 << "ms ("
        << inc.shrink.probes << " probes"
        << (inc.shrink.fixpoint ? ", fixpoint" : "")
        << (inc.shrink.budget_exhausted ? ", budget exhausted" : "")
        << ")\n";
    if (!inc.reason.empty()) out << "    " << inc.reason << "\n";
    out << "    repro: "
        << harness::repro_command(inc.minimal, inc.discrepancy.present_in,
                                  inc.discrepancy.absent_in, result.scheme)
        << "\n";
  }
  return 0;
}

int cmd_stability(const Args& args, const harness::ExperimentConfig& base,
                  std::ostream& out, std::ostream& err) {
  const auto profile = ospf_profile_by_name(args.get("impl", "frr"));
  if (!profile) {
    err << "unknown implementation\n";
    return 2;
  }
  auto config = config_from(args, base, err);
  if (!config) return 2;
  const auto scheme = scheme_by_name(args.get("scheme", "type"));
  if (!scheme) {
    err << "unknown scheme\n";
    return 2;
  }
  const auto report =
      harness::ospf_relation_stability(*profile, *config, *scheme);
  out << "seeds stimulus -> response (occurrences)\n";
  for (const auto& cell : report) {
    out << cell.seeds_seen << '/' << cell.seeds_total << ' '
        << cell.cell.stimulus << " -> " << cell.cell.response << " ["
        << detect::to_string(cell.direction) << "] (" << cell.total_count
        << ")\n";
  }
  return 0;
}

int cmd_coverage(const Args& args, const harness::ExperimentConfig& base,
                 std::ostream& out, std::ostream& err) {
  // Runs the audit pipeline and reports what its record saw. The audit's
  // own report is discarded — `nidt audit --metrics-out` keeps both.
  // Everything printed here comes from the canonically merged record, so
  // the report is byte-identical for every --jobs value and cache
  // temperature.
  std::ostringstream sink;
  const int rc = cmd_audit(args, base, sink, err);
  if (rc != 0) return rc;
  const obs::RunRecord* record = base.record;
  if (args.get("format", "text") == "json") {
    out << "{\n\"version\":1,\n" << record->cov_json() << "\n}\n";
    return 0;
  }
  out << "coverage: " << record->seen().size() << "/" << cov::universe_size()
      << " features over " << record->scenarios() << " scenarios\n";
  for (const auto& row : cov::kClasses) {
    out << "  " << row.name << " " << record->class_seen(row.cls) << "/"
        << cov::universe_size(row.cls) << "\n";
  }
  out << "saturation:";
  for (const auto v : record->curve()) out << ' ' << v;
  out << "\nfeatures:\n";
  for (const auto id : record->seen())
    out << "  " << cov::feature_name(id) << "\n";
  return 0;
}

int cmd_cache(const Args& args, const harness::ExperimentConfig&,
              std::ostream& out, std::ostream& err) {
  const std::string dir = resolve_cache_dir(args);
  if (dir.empty()) {
    err << "cache needs a directory: pass --cache-dir or set "
           "NIDKIT_CACHE_DIR\n";
    return 2;
  }
  const std::string action =
      args.subcommand.empty() ? "ls" : args.subcommand;
  if (action == "ls") {
    const auto entries = cache::Store::ls(dir);
    auto kind = [](const cache::Store::FileInfo& e) {
      return e.kind == cache::PayloadKind::kSweepStats ? "sweep" : "mined";
    };
    if (args.has("json")) {
      out << "[";
      for (std::size_t i = 0; i < entries.size(); ++i) {
        const auto& e = entries[i];
        if (i) out << ",";
        out << "{\"key\":\"" << e.key.hex() << "\",\"kind\":\"" << kind(e)
            << "\",\"format\":" << e.format << ",\"bytes\":" << e.bytes
            << ",\"age_s\":" << e.age_seconds
            << ",\"valid\":" << (e.valid ? "true" : "false") << "}";
      }
      out << "]\n";
      return 0;
    }
    out << "key kind bytes age_s valid\n";
    for (const auto& e : entries) {
      out << e.key.hex() << ' ' << kind(e) << ' ' << e.bytes << ' '
          << e.age_seconds << ' ' << (e.valid ? "yes" : "NO") << '\n';
    }
    out << entries.size() << " entries\n";
    return 0;
  }
  if (action == "prune") {
    const auto days = args.get_int("max-age-days").value_or(30);
    const auto removed = cache::Store::prune(dir, days);
    out << "pruned " << removed << " entries older than " << days
        << " days (plus any unreadable ones)\n";
    return 0;
  }
  if (action == "clear") {
    const auto removed = cache::Store::clear(dir);
    out << "cleared " << removed << " entries\n";
    return 0;
  }
  if (action == "compact") {
    const auto result = cache::compact(dir);
    if (!result) {
      err << "compact failed: cannot write a segment in " << dir << "\n";
      return 2;
    }
    out << "packed " << result->kept << " entries (" << result->bytes
        << " bytes) from " << result->segments << " segments";
    if (result->skipped) out << ", skipped " << result->skipped << " invalid";
    if (result->skipped_version)
      out << ", skipped " << result->skipped_version
          << " for format-version skew";
    out << "\n";
    return 0;
  }
  err << "unknown cache action: " << action
      << " (try ls, prune, clear, compact)\n";
  return 2;
}

/// Command bits for the flag table.
enum : unsigned {
  kAudit = 1u << 0,
  kTrace = 1u << 1,
  kMine = 1u << 2,
  kSweep = 1u << 3,
  kInject = 1u << 4,
  kTriage = 1u << 5,
  kStability = 1u << 6,
  kCoverage = 1u << 7,
  kCache = 1u << 8,
};
/// The commands config_from configures.
constexpr unsigned kExperiment = kAudit | kCoverage | kTriage | kStability;
/// The commands that run in an executor context and write telemetry.
constexpr unsigned kTelemetry = kExperiment | kSweep;

/// Every flag, the commands that read it and, for an integer flag, the
/// range it takes (max 0: not an integer). run_cli rejects an unknown
/// flag, a flag its command does not read and an integer out of range
/// before any command runs, so inside a command get_int's nullopt means
/// "absent".
constexpr struct {
  std::string_view name;
  unsigned commands;
  long long min = 0;
  long long max = 0;
} kFlags[] = {
    {"protocol", kAudit | kCoverage},
    {"impls", kAudit | kCoverage | kTriage},
    {"impl", kTrace | kSweep | kStability},
    {"scheme", kAudit | kCoverage | kMine | kTriage | kStability},
    {"format", kAudit | kCoverage | kTriage},
    {"topos", kExperiment},
    {"seeds", kExperiment},
    {"churn-s", kExperiment},
    {"tdelay-ms", kExperiment | kTrace | kMine, 0, kMaxTdelayMs},
    {"duration-s", kExperiment | kTrace, 0, kMaxDurationS},
    {"jobs", kTelemetry, 0, 256},
    {"cache-dir", kTelemetry | kCache},
    {"no-cache", kTelemetry | kCache},
    {"stats-out", kTelemetry},
    {"metrics-out", kTelemetry},
    {"trace-out", kTelemetry},
    {"topo", kTrace},
    {"seed", kTrace, 0, std::numeric_limits<long long>::max()},
    {"out", kTrace},
    {"pcap", kTrace},
    {"in", kMine},
    {"max-ms", kSweep, 0, kMaxTdelayMs},
    {"step-ms", kSweep, kMinStepMs, kMaxTdelayMs},
    {"target", kInject},
    {"stimulus", kInject},
    {"max-probes", kTriage, 1, 1'000'000},
    {"max-incidents", kTriage, 0, 1'000'000},
    {"report-out", kTriage},
    {"json", kCache},
    {"max-age-days", kCache, 0, 36'500},
};

bool flags_valid(const Args& args, unsigned command, std::ostream& err) {
  for (const auto& [name, value] : args.flags) {
    const auto* flag =
        std::find_if(std::begin(kFlags), std::end(kFlags),
                     [&](const auto& f) { return f.name == name; });
    if (flag == std::end(kFlags)) {
      err << "unknown flag --" << name << " (try `nidt help`)\n";
      return false;
    }
    if ((flag->commands & command) == 0) {
      err << "--" << name << " does not apply to " << args.command << "\n";
      return false;
    }
    const auto v = args.get_int(name);
    if (flag->max > 0 && (!v || *v < flag->min || *v > flag->max)) {
      err << "--" << name << " needs an integer from " << flag->min
          << " to " << flag->max << ", got '" << value << "'\n";
      return false;
    }
  }
  return true;
}

}  // namespace

int run_cli(const std::vector<std::string>& tokens, std::ostream& out,
            std::ostream& err) {
  static constexpr struct {
    std::string_view name;
    unsigned bit;
    int (*run)(const Args&, const harness::ExperimentConfig&, std::ostream&,
               std::ostream&);
  } kCommands[] = {
      {"audit", kAudit, cmd_audit},         {"trace", kTrace, cmd_trace},
      {"mine", kMine, cmd_mine},            {"sweep", kSweep, cmd_sweep},
      {"inject", kInject, cmd_inject},      {"triage", kTriage, cmd_triage},
      {"stability", kStability, cmd_stability},
      {"coverage", kCoverage, cmd_coverage}, {"cache", kCache, cmd_cache},
  };
  auto args = parse_args(tokens, err);
  if (!args) return 2;
  if (args->command.empty() || args->command == "help") return usage(out);
  const auto* cmd =
      std::find_if(std::begin(kCommands), std::end(kCommands),
                   [&](const auto& c) { return c.name == args->command; });
  if (cmd == std::end(kCommands)) {
    err << "unknown command: " << args->command << " (try `nidt help`)\n";
    return 2;
  }
  if (!flags_valid(*args, cmd->bit, err)) return 2;
  harness::ExperimentConfig base;
  if ((cmd->bit & kTelemetry) == 0) return cmd->run(*args, base, out, err);

  // One executor context per telemetry command, shared by every fan-out it
  // makes: one store, one report, and one record, attached only when
  // something reads it (--metrics-out, or the coverage report itself).
  const ObsSession session(*args, err);
  std::optional<cache::Store> store;
  if (const std::string dir = resolve_cache_dir(*args); !dir.empty())
    store.emplace(dir);
  harness::ExecReport exec;
  obs::RunRecord record;
  const bool recorded = args->has("metrics-out") || cmd->bit == kCoverage;
  // 0 keeps the default: one worker per CPU this process may run on.
  if (const auto jobs = args->get_int("jobs"))
    base.jobs = static_cast<std::size_t>(*jobs);
  base.store = store ? &*store : nullptr;
  base.record = recorded ? &record : nullptr;
  base.exec = &exec;
  const int rc = cmd->run(*args, base, out, err);
  if (rc != 0) return rc;
  // A file-write failure fails an otherwise successful command.
  return session.write(exec, record) ? 0 : 2;
}

}  // namespace nidkit::cli
