// CLI tests: argument parsing and end-to-end subcommand runs through the
// stream-parameterized entry point.
#include "cli/cli.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "cache/key.hpp"
#include "cache/store.hpp"
#include "harness/scenario.hpp"

namespace nidkit::cli {
namespace {

struct Run {
  int code;
  std::string out;
  std::string err;
};

Run run(std::initializer_list<std::string> tokens) {
  std::ostringstream out, err;
  const int code = run_cli(std::vector<std::string>(tokens), out, err);
  return Run{code, out.str(), err.str()};
}

TEST(ParseArgs, CommandAndFlags) {
  std::ostringstream err;
  const auto args = parse_args({"audit", "--impls", "frr,bird",
                                "--tdelay-ms", "900"},
                               err);
  ASSERT_TRUE(args.has_value());
  EXPECT_EQ(args->command, "audit");
  EXPECT_EQ(args->get("impls", ""), "frr,bird");
  EXPECT_EQ(args->get_int("tdelay-ms"), 900);
  EXPECT_EQ(args->get("missing", "fallback"), "fallback");
  EXPECT_FALSE(args->get_int("impls").has_value());  // not numeric
}

TEST(ParseArgs, FlagWithoutValueRejected) {
  std::ostringstream err;
  EXPECT_FALSE(parse_args({"audit", "--impls"}, err).has_value());
  EXPECT_NE(err.str().find("needs a value"), std::string::npos);
}

TEST(ParseArgs, StrayPositionalRejected) {
  std::ostringstream err;
  EXPECT_FALSE(parse_args({"audit", "oops"}, err).has_value());
}

TEST(ParseArgs, EmptyIsHelp) {
  const auto r = run({});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("usage"), std::string::npos);
}

TEST(SplitList, Splits) {
  EXPECT_EQ(split_list("a,b,c"),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split_list(""), std::vector<std::string>{});
  EXPECT_EQ(split_list("x"), std::vector<std::string>{"x"});
  EXPECT_EQ(split_list("a,,b"), (std::vector<std::string>{"a", "b"}));
}

TEST(Cli, UnknownCommandFails) {
  const auto r = run({"frobnicate"});
  EXPECT_NE(r.code, 0);
  EXPECT_NE(r.err.find("unknown command"), std::string::npos);
}

TEST(Cli, AuditSmallRunPrintsMatrixAndFlags) {
  const auto r = run({"audit", "--impls", "frr,bird", "--topos", "linear-2",
                      "--seeds", "1", "--duration-s", "120"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("Snd("), std::string::npos);
  EXPECT_NE(r.out.find("frr"), std::string::npos);
  EXPECT_NE(r.out.find("bird"), std::string::npos);
}

TEST(Cli, BgpAuditFlagsTheIncident) {
  const auto r = run({"audit", "--protocol", "bgp", "--topos", "linear-2",
                      "--seeds", "1"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("UPDATE+longpath -> NOTIFICATION"),
            std::string::npos);
  EXPECT_NE(r.out.find("bgp-fragile"), std::string::npos);
}

TEST(Cli, RipAuditFlagsPoison) {
  const auto r = run({"audit", "--protocol", "rip", "--topos", "linear-3",
                      "--seeds", "1"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("Response(poison)"), std::string::npos);
}

TEST(Cli, AuditRejectsUnknownImplementation) {
  const auto r = run({"audit", "--impls", "frr,quagga"});
  EXPECT_NE(r.code, 0);
  EXPECT_NE(r.err.find("unknown OSPF implementation"), std::string::npos);
}

TEST(Cli, AuditRejectsSingleImplementation) {
  const auto r = run({"audit", "--impls", "frr"});
  EXPECT_NE(r.code, 0);
}

TEST(Cli, AuditRejectsBadTopology) {
  const auto r = run({"audit", "--impls", "frr,bird", "--topos", "moebius-3"});
  EXPECT_NE(r.code, 0);
  EXPECT_NE(r.err.find("unknown topology"), std::string::npos);
  // Shapes topo::build refuses are usage errors, not aborts.
  for (const auto* topo : {"mesh-0", "ring-2", "lan-1", "mesh-3x"}) {
    const auto bad = run({"audit", "--impls", "frr,bird", "--topos", topo});
    EXPECT_EQ(bad.code, 2) << topo;
    EXPECT_NE(bad.err.find(topo), std::string::npos) << bad.err;
  }
  const auto trace = run({"trace", "--topo", "mesh-1"});
  EXPECT_EQ(trace.code, 2);
  EXPECT_NE(trace.err.find("at least 2 routers"), std::string::npos);
}

TEST(Cli, AuditRejectsMalformedSeeds) {
  // Every token must be a whole seed ("1..8" once ran seed 1 alone), and
  // the message names the bad one.
  const std::pair<const char*, const char*> cases[] = {
      {"x", "'x'"}, {"1..8", "'1..8'"}, {"2,3x", "'3x'"}, {"-1", "'-1'"}};
  for (const auto& [seeds, token] : cases) {
    const auto r = run({"audit", "--impls", "frr,bird", "--seeds", seeds});
    EXPECT_EQ(r.code, 2) << seeds;
    EXPECT_NE(r.err.find(token), std::string::npos) << r.err;
  }
}

TEST(Cli, AuditRejectsNegativeDurations) {
  for (const auto* flag : {"--tdelay-ms", "--duration-s"}) {
    const auto r = run({"audit", "--impls", "frr,bird", flag, "-5"});
    EXPECT_EQ(r.code, 2) << flag;
    EXPECT_NE(r.err.find(flag), std::string::npos) << r.err;
    EXPECT_EQ(r.out, "");
  }
}

TEST(Cli, EveryCommandRejectsBadFlags) {
  // Per command: a flag no command reads, a flag only other commands
  // read, and an integer one past its maximum (inject takes no integer).
  // Each exits 2 before any work, with a message naming the flag.
  struct Case {
    const char* command;
    const char* inapplicable;
    const char* over_max;
    const char* value;
  };
  const Case cases[] = {
      {"audit", "--target", "--tdelay-ms", "60001"},
      {"trace", "--impls", "--duration-s", "3601"},
      {"mine", "--jobs", "--tdelay-ms", "60001"},
      {"sweep", "--seeds", "--max-ms", "60001"},
      {"inject", "--jobs", nullptr, nullptr},
      {"triage", "--impl", "--max-probes", "1000001"},
      {"stability", "--report-out", "--jobs", "257"},
      {"coverage", "--max-probes", "--duration-s", "3601"},
      {"cache", "--seeds", "--max-age-days", "36501"},
  };
  auto expect_usage_error = [](const std::vector<std::string>& tokens,
                               const std::string& flag) {
    std::ostringstream out, err;
    EXPECT_EQ(run_cli(tokens, out, err), 2) << tokens[0] << " " << flag;
    EXPECT_NE(err.str().find(flag), std::string::npos) << err.str();
    EXPECT_EQ(out.str(), "") << tokens[0] << " " << flag;
  };
  for (const auto& c : cases) {
    expect_usage_error({c.command, "--tdelay", "5"}, "--tdelay");
    expect_usage_error({c.command, c.inapplicable, "1"}, c.inapplicable);
    if (c.over_max)
      expect_usage_error({c.command, c.over_max, c.value}, c.over_max);
  }
  // Values that once overflowed the microsecond conversion, never
  // finished, or aborted on thread creation.
  expect_usage_error({"audit", "--tdelay-ms", "9223372036854775807"},
                     "--tdelay-ms");
  expect_usage_error({"audit", "--tdelay-ms", "9223372036854776"},
                     "--tdelay-ms");
  expect_usage_error({"trace", "--duration-s", "9223372036854775807"},
                     "--duration-s");
  expect_usage_error({"audit", "--churn-s", "60,9223372036854775807"},
                     "--churn-s");
  expect_usage_error({"triage", "--churn-s", "-1"}, "--churn-s");
  expect_usage_error(
      {"sweep", "--max-ms", "9223372036854775807", "--step-ms", "1"},
      "--max-ms");
  expect_usage_error({"audit", "--jobs", "32768"}, "--jobs");
  expect_usage_error({"audit", "--json"}, "--json");
  // More routers or churn events than the address plan has octets for
  // (mesh-100000 once exhausted the host).
  expect_usage_error({"audit", "--topos", "mesh-100000"}, "mesh-100000");
  expect_usage_error({"triage", "--topos", "lan-255"}, "lan-255");
  std::string churn = "0";
  for (int i = 1; i < 257; ++i) {
    churn += ',';
    churn += std::to_string(i);
  }
  expect_usage_error({"audit", "--churn-s", churn}, "--churn-s");
  // A repeated list entry would run, and count, its scenarios twice
  // (--seeds 1,1 once doubled every audit count). Spellings of one value
  // are the same entry.
  expect_usage_error({"audit", "--impls", "frr,bird", "--seeds", "1,1"},
                     "'1'");
  expect_usage_error({"stability", "--seeds", "1,2,01"}, "'01'");
  expect_usage_error({"audit", "--topos", "mesh-3,mesh-3"}, "'mesh-3'");
  expect_usage_error({"triage", "--topos", "linear-2,linear-02"},
                     "'linear-02'");
  expect_usage_error({"audit", "--impls", "frr,frr"}, "'frr'");
  expect_usage_error({"coverage", "--impls", "bird,frr,bird"}, "'bird'");
  expect_usage_error({"triage", "--impls", "frr,bird,frr"}, "'frr'");
  // Every seed's results stay in memory until the merge.
  std::string seeds = "1";
  for (int i = 2; i <= 4'097; ++i) {
    seeds += ',';
    seeds += std::to_string(i);
  }
  expect_usage_error({"audit", "--seeds", seeds}, "--seeds");
  // Removed telemetry flags are unknown flags now.
  expect_usage_error({"audit", "--stats", "inline"}, "--stats");
  expect_usage_error({"sweep", "--stats", "s.json"}, "--stats");
  expect_usage_error({"audit", "--coverage-out", "c.json"}, "--coverage-out");
  // Experiment traces always drop the raw bytes; the switch that kept them
  // is gone from every command that took it.
  for (const char* command : {"audit", "coverage", "triage", "stability",
                              "sweep"})
    expect_usage_error({command, "--keep-bytes"}, "--keep-bytes");
}

TEST(Cli, FlagsAtTheirMaximumRun) {
  const auto r = run({"audit", "--impls", "frr,bird", "--topos", "linear-2",
                      "--seeds", "1", "--duration-s", "3600", "--tdelay-ms",
                      "60000", "--churn-s", "3600", "--jobs", "256"});
  EXPECT_EQ(r.code, 0) << r.err;
}

TEST(Cli, TraceThenMineRoundTrips) {
  const std::string path = "cli_test_trace.tmp";
  const auto t = run({"trace", "--impl", "frr", "--topo", "linear-2",
                      "--duration-s", "60", "--out", path});
  EXPECT_EQ(t.code, 0) << t.err;
  EXPECT_NE(t.out.find("wrote"), std::string::npos);

  const auto m = run({"mine", "--in", path});
  EXPECT_EQ(m.code, 0) << m.err;
  EXPECT_NE(m.out.find("send->recv"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Cli, TraceToStdoutIsLoadableFormat) {
  const auto t = run({"trace", "--impl", "bird", "--topo", "linear-2",
                      "--duration-s", "60"});
  EXPECT_EQ(t.code, 0);
  EXPECT_EQ(t.out.rfind("nidkit-trace v1", 0), 0u);
}

TEST(Cli, MineMissingFileFails) {
  const auto r = run({"mine", "--in", "/nonexistent/trace.txt"});
  EXPECT_NE(r.code, 0);
}

TEST(Cli, InjectReportsResponses) {
  const auto r = run({"inject", "--target", "bird", "--stimulus",
                      "LSU-stale"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("LSAck+gtSN"), std::string::npos);
}

TEST(Cli, InjectRejectsUnknownStimulus) {
  const auto r = run({"inject", "--target", "frr", "--stimulus", "Nonsense"});
  EXPECT_NE(r.code, 0);
}

TEST(Cli, ValidateConfirmsFlagsByInjection) {
  // Triage is the one injection verdict: on a small matrix it minimizes
  // the flag and confirms it by probing both implementations.
  const auto r = run({"triage", "--impls", "frr,bird", "--topos",
                      "linear-2,mesh-3", "--seeds", "1", "--duration-s",
                      "120"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("flagged"), std::string::npos);
  EXPECT_NE(r.out.find("[confirmed]"), std::string::npos) << r.out;
}

TEST(Cli, SweepPrintsSeries) {
  const auto r = run({"sweep", "--impl", "frr", "--max-ms", "300",
                      "--step-ms", "150"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("tdelay_ms"), std::string::npos);
  // 0, 150, 300 => header + 3 rows.
  EXPECT_EQ(std::count(r.out.begin(), r.out.end(), '\n'), 4);
}

TEST(Cli, SweepRejectsMalformedJobs) {
  for (const auto* jobs : {"x", "-3"}) {
    const auto r = run({"sweep", "--impl", "frr", "--jobs", jobs});
    EXPECT_EQ(r.code, 2) << jobs;
    EXPECT_NE(r.err.find("--jobs"), std::string::npos) << r.err;
  }
}

TEST(Cli, TraceRejectsMalformedSeed) {
  const auto r = run({"trace", "--topo", "linear-2", "--seed", "7s"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--seed"), std::string::npos) << r.err;
}

TEST(Cli, StabilityPrintsSeedFractions) {
  const auto r = run({"stability", "--impl", "frr", "--topos", "linear-2",
                      "--seeds", "1,2", "--duration-s", "120"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("2/2"), std::string::npos);
}

TEST(ParseArgs, CacheSubcommandAndSwitches) {
  std::ostringstream err;
  const auto args =
      parse_args({"cache", "prune", "--cache-dir", "/tmp/c", "--no-cache"},
                 err);
  ASSERT_TRUE(args.has_value());
  EXPECT_EQ(args->command, "cache");
  EXPECT_EQ(args->subcommand, "prune");
  EXPECT_TRUE(args->has("no-cache"));  // boolean switch, no value consumed
  EXPECT_EQ(args->get("cache-dir", ""), "/tmp/c");
  // Other commands still reject a second positional.
  EXPECT_FALSE(parse_args({"audit", "prune"}, err).has_value());
}

TEST(Cli, CacheNeedsADirectory) {
  const auto r = run({"cache", "ls", "--no-cache"});
  EXPECT_NE(r.code, 0);
  EXPECT_NE(r.err.find("cache-dir"), std::string::npos);
}

TEST(Cli, CachePruneRejectsMalformedAge) {
  // A malformed age once pruned with the 30-day default.
  for (const auto* days : {"x", "-1"}) {
    const auto r = run({"cache", "prune", "--cache-dir", "cli_prune.tmp",
                        "--max-age-days", days});
    EXPECT_EQ(r.code, 2) << days;
    EXPECT_NE(r.err.find("--max-age-days"), std::string::npos) << r.err;
  }
}

TEST(Cli, CacheRejectsUnknownAction) {
  const auto r = run({"cache", "frobnicate", "--cache-dir", "cli_cache.tmp"});
  EXPECT_NE(r.code, 0);
  EXPECT_NE(r.err.find("unknown cache action"), std::string::npos);
}

TEST(Cli, WarmAuditIsByteIdenticalAndMaintainable) {
  const std::string dir = "cli_cache_test.tmp";
  run({"cache", "clear", "--cache-dir", dir});
  const std::initializer_list<std::string> audit = {
      "audit", "--impls", "frr,bird", "--topos", "linear-2", "--seeds", "1",
      "--duration-s", "90", "--format", "json", "--cache-dir", dir};
  const auto cold = run(audit);
  EXPECT_EQ(cold.code, 0) << cold.err;
  const auto warm = run(audit);
  EXPECT_EQ(warm.code, 0) << warm.err;
  EXPECT_EQ(cold.out, warm.out);

  const auto ls = run({"cache", "ls", "--cache-dir", dir});
  EXPECT_EQ(ls.code, 0) << ls.err;
  EXPECT_NE(ls.out.find("2 entries"), std::string::npos);
  EXPECT_EQ(ls.out.rfind("key kind bytes age_s valid\n", 0), 0u);

  const auto cleared = run({"cache", "clear", "--cache-dir", dir});
  EXPECT_EQ(cleared.code, 0);
  EXPECT_NE(cleared.out.find("cleared 2"), std::string::npos);
  const auto empty = run({"cache", "ls", "--cache-dir", dir});
  EXPECT_NE(empty.out.find("0 entries"), std::string::npos);
}

std::string slurp(const std::string& path) {
  std::ifstream file(path);
  std::ostringstream buf;
  buf << file.rdbuf();
  return buf.str();
}

TEST(Cli, StatsOutMetricsOutAndTraceOutWriteFiles) {
  const std::string stats = "cli_stats_out.tmp";
  const std::string metrics = "cli_metrics_out.tmp";
  const std::string trace = "cli_trace_out.tmp";
  const auto r = run({"audit", "--impls", "frr,bird", "--topos", "linear-2",
                      "--seeds", "1", "--duration-s", "90", "--stats-out",
                      stats, "--metrics-out", metrics, "--trace-out", trace});
  EXPECT_EQ(r.code, 0) << r.err;

  const auto stats_json = slurp(stats);
  EXPECT_NE(stats_json.find("\"tasks_run\":"), std::string::npos);
  // No cache configured: the stats JSON must not claim one.
  EXPECT_EQ(stats_json.find("\"cache\""), std::string::npos);

  const auto metrics_json = slurp(metrics);
  EXPECT_EQ(metrics_json.rfind("{\n\"version\":1,\n\"sim\":{", 0), 0u);
  EXPECT_NE(metrics_json.find("\"ospf.fsm_transitions\":"),
            std::string::npos);
  EXPECT_NE(metrics_json.find("\"wall\":{"), std::string::npos);
  std::size_t cov_lines = 0;
  std::istringstream lines(metrics_json);
  for (std::string line; std::getline(lines, line);)
    cov_lines += line.rfind("\"cov\":{", 0) == 0 ? 1 : 0;
  EXPECT_EQ(cov_lines, 1u);

  const auto trace_json = slurp(trace);
  EXPECT_NE(trace_json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(trace_json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(trace_json.find("\"name\":\"scenario\""), std::string::npos);

  std::remove(stats.c_str());
  std::remove(metrics.c_str());
  std::remove(trace.c_str());
}

TEST(Cli, StatsFlagStillWritesItsOwnFile) {
  const std::string stats = "cli_stats_flag.tmp";
  const auto r = run({"sweep", "--impl", "frr", "--max-ms", "0",
                      "--step-ms", "150", "--stats-out", stats});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(slurp(stats).find("\"tasks_run\":"), std::string::npos);
  // Telemetry never leaks into the report streams.
  EXPECT_EQ(r.err, "");
  EXPECT_EQ(r.out.find("tasks_run"), std::string::npos);
  std::remove(stats.c_str());
}

TEST(Cli, CacheLsJsonListsEntries) {
  const std::string dir = "cli_cache_json_test.tmp";
  run({"cache", "clear", "--cache-dir", dir});
  const auto audit = run({"audit", "--impls", "frr,bird", "--topos",
                          "linear-2", "--seeds", "1", "--duration-s", "90",
                          "--cache-dir", dir});
  EXPECT_EQ(audit.code, 0) << audit.err;

  const auto ls = run({"cache", "ls", "--json", "--cache-dir", dir});
  EXPECT_EQ(ls.code, 0) << ls.err;
  EXPECT_EQ(ls.out.rfind("[{", 0), 0u);
  EXPECT_NE(ls.out.find("\"key\":\""), std::string::npos);
  EXPECT_NE(ls.out.find("\"kind\":\"mined\""), std::string::npos);
  EXPECT_NE(ls.out.find("\"bytes\":"), std::string::npos);
  EXPECT_NE(ls.out.find("\"valid\":true"), std::string::npos);

  // A warm re-run reads every entry and writes nothing: the listing is
  // the same two entries.
  const auto warm = run({"audit", "--impls", "frr,bird", "--topos",
                         "linear-2", "--seeds", "1", "--duration-s", "90",
                         "--cache-dir", dir});
  EXPECT_EQ(warm.code, 0) << warm.err;
  const auto warm_ls = run({"cache", "ls", "--json", "--cache-dir", dir});
  EXPECT_EQ(std::count(warm_ls.out.begin(), warm_ls.out.end(), '{'), 2);
  EXPECT_EQ(warm_ls.out.find("\"valid\":false"), std::string::npos);

  run({"cache", "clear", "--cache-dir", dir});
  const auto empty = run({"cache", "ls", "--json", "--cache-dir", dir});
  EXPECT_EQ(empty.out, "[]\n");
}

TEST(Cli, TriageReportIsJobsAndCacheInvariant) {
  const std::string dir = "cli_triage_cache.tmp";
  const std::string rep_a = "cli_triage_a.tmp";
  const std::string rep_b = "cli_triage_b.tmp";
  run({"cache", "clear", "--cache-dir", dir});

  const auto cold = run({"triage", "--impls", "frr,bird", "--topos",
                         "linear-2,mesh-3", "--seeds", "1,2", "--duration-s",
                         "90", "--jobs", "1", "--cache-dir", dir,
                         "--report-out", rep_a});
  EXPECT_EQ(cold.code, 0) << cold.err;
  EXPECT_NE(cold.out.find("flagged"), std::string::npos);

  // Warm cache, different worker count: the report must not move a byte.
  const auto warm = run({"triage", "--impls", "frr,bird", "--topos",
                         "linear-2,mesh-3", "--seeds", "1,2", "--duration-s",
                         "90", "--jobs", "4", "--cache-dir", dir,
                         "--report-out", rep_b});
  EXPECT_EQ(warm.code, 0) << warm.err;

  const auto report_a = slurp(rep_a);
  const auto report_b = slurp(rep_b);
  ASSERT_FALSE(report_a.empty());
  EXPECT_EQ(report_a, report_b);
  EXPECT_NE(report_a.find("\"nidt-triage-v1\""), std::string::npos);
  EXPECT_NE(report_a.find("\"incidents\":["), std::string::npos);

  run({"cache", "clear", "--cache-dir", dir});
  std::remove(rep_a.c_str());
  std::remove(rep_b.c_str());
}

TEST(Cli, TriageJsonFormatPrintsTheReport) {
  const auto r = run({"triage", "--impls", "frr,bird", "--topos",
                      "linear-2,mesh-3", "--seeds", "1,2", "--duration-s",
                      "90", "--format", "json"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_EQ(r.out.rfind("{\"schema\":\"nidt-triage-v1\",\n", 0), 0u);
  EXPECT_NE(r.out.find("\"repro\":\"nidt audit"), std::string::npos);
}

TEST(Cli, TriageRejectsBadBudget) {
  const auto r = run({"triage", "--impls", "frr,bird", "--max-probes", "0"});
  EXPECT_NE(r.code, 0);
  EXPECT_NE(r.err.find("max-probes"), std::string::npos);
}

TEST(Cli, ChurnFlagAcceptsSecondsAndNone) {
  const auto none = run({"audit", "--impls", "frr,bird", "--topos",
                         "linear-2", "--seeds", "1", "--duration-s", "90",
                         "--churn-s", "none"});
  EXPECT_EQ(none.code, 0) << none.err;

  const auto timed = run({"audit", "--impls", "frr,bird", "--topos",
                          "linear-2", "--seeds", "1", "--duration-s", "90",
                          "--churn-s", "40,70"});
  EXPECT_EQ(timed.code, 0) << timed.err;

  const auto bad = run({"audit", "--impls", "frr,bird", "--churn-s", "soon"});
  EXPECT_NE(bad.code, 0);
  EXPECT_NE(bad.err.find("churn-s"), std::string::npos);
}

TEST(Cli, CoverageSmokePrintsSaturationReport) {
  const auto r = run({"coverage", "--impls", "frr,bird", "--topos",
                      "linear-2", "--seeds", "1", "--duration-s", "90"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("coverage: "), std::string::npos);
  EXPECT_NE(r.out.find("/120 features over 2 scenarios"), std::string::npos);
  EXPECT_NE(r.out.find("  fsm "), std::string::npos);
  EXPECT_NE(r.out.find("  pair "), std::string::npos);
  EXPECT_NE(r.out.find("saturation:"), std::string::npos);
  EXPECT_NE(r.out.find("fsm.ospf.Down>Init"), std::string::npos);
  EXPECT_NE(r.out.find("lsa.originate"), std::string::npos);
}

TEST(Cli, CoverageJsonIsJobsInvariant) {
  const std::initializer_list<std::string> base = {
      "coverage", "--impls", "frr,bird", "--topos", "linear-2", "--seeds",
      "1", "--duration-s", "90", "--format", "json"};
  auto serial = std::vector<std::string>(base);
  serial.insert(serial.end(), {"--jobs", "1"});
  auto wide = std::vector<std::string>(base);
  wide.insert(wide.end(), {"--jobs", "4"});

  std::ostringstream out_a, err_a, out_b, err_b;
  EXPECT_EQ(run_cli(serial, out_a, err_a), 0) << err_a.str();
  EXPECT_EQ(run_cli(wide, out_b, err_b), 0) << err_b.str();
  EXPECT_EQ(out_a.str(), out_b.str());
  EXPECT_EQ(out_a.str().rfind("{\n\"version\":1,\n", 0), 0u);
  EXPECT_NE(out_a.str().find("\"cov\":{"), std::string::npos);
}

TEST(Cli, CoverageOutWritesOneLineCovSection) {
  const std::string path = "cli_coverage_out.tmp";
  const auto r = run({"audit", "--impls", "frr,bird", "--topos", "linear-2",
                      "--seeds", "1", "--duration-s", "90", "--metrics-out",
                      path});
  EXPECT_EQ(r.code, 0) << r.err;

  const auto doc = slurp(path);
  EXPECT_EQ(doc.rfind("{\n\"version\":1,\n", 0), 0u);
  // The whole "cov" section occupies exactly one line, so CI can
  // `grep '"cov":' | cmp` across jobs/cache laps (same contract as the
  // "sim" section); only the separating comma follows it.
  std::size_t cov_lines = 0;
  std::istringstream lines(doc);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("\"cov\":{", 0) == 0) {
      ++cov_lines;
      EXPECT_NE(line.find("\"universe\":120"), std::string::npos);
      EXPECT_NE(line.find("\"curve\":["), std::string::npos);
      EXPECT_EQ(line.substr(line.size() - 2), "},");
    }
  }
  EXPECT_EQ(cov_lines, 1u);
  std::remove(path.c_str());
}

TEST(Cli, CacheLsJsonReportsEntryFormat) {
  const std::string dir = "cli_cache_format_test.tmp";
  run({"cache", "clear", "--cache-dir", dir});
  const auto audit = run({"audit", "--impls", "frr,bird", "--topos",
                          "linear-2", "--seeds", "1", "--duration-s", "90",
                          "--cache-dir", dir});
  EXPECT_EQ(audit.code, 0) << audit.err;

  const auto ls = run({"cache", "ls", "--json", "--cache-dir", dir});
  EXPECT_EQ(ls.code, 0) << ls.err;
  EXPECT_NE(ls.out.find("\"format\":" +
                        std::to_string(cache::kCacheFormatVersion)),
            std::string::npos);
  run({"cache", "clear", "--cache-dir", dir});
}

TEST(Cli, CacheCompactReportsVersionSkew) {
  const std::string dir = "cli_cache_skew_test.tmp";
  run({"cache", "clear", "--cache-dir", dir});

  // One current-format entry and one of the previous format.
  harness::Scenario keep_scenario, skew_scenario;
  keep_scenario.seed = 1;
  skew_scenario.seed = 2;
  const auto keep = cache::scenario_key(keep_scenario, {}, "type",
                                        cache::PayloadKind::kMinedRelations);
  const auto skew = cache::scenario_key(skew_scenario, {}, "type",
                                        cache::PayloadKind::kMinedRelations);
  cache::Entry entry;
  entry.coverage.add(cov::fsm_edge(cov::Proto::kOspf, 0, 1));
  entry.coverage.finalize();
  {
    cache::Store store(dir);
    store.put(keep, entry);
  }
  // The skewed entry as a record in a segment of its own.
  auto old = cache::encode_entry(skew, entry);
  old[7] = static_cast<std::uint8_t>(cache::kCacheFormatVersion - 1);
  {
    std::ofstream f(std::filesystem::path(dir) /
                        ("skew" + std::string(cache::kSegmentExtension)),
                    std::ios::binary);
    const auto record = cache::encode_record(old, 0);
    f.write(reinterpret_cast<const char*>(record.data()),
            static_cast<std::streamsize>(record.size()));
  }

  const auto r = run({"cache", "compact", "--cache-dir", dir});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("packed 1 entries"), std::string::npos);
  EXPECT_NE(r.out.find("skipped 1 for format-version skew"),
            std::string::npos);
  run({"cache", "clear", "--cache-dir", dir});
  std::filesystem::remove_all(dir);
}

TEST(Cli, NoCacheOverridesCacheDir) {
  const std::string dir = "cli_nocache_test.tmp";
  run({"cache", "clear", "--cache-dir", dir});
  const auto r = run({"audit", "--impls", "frr,bird", "--topos", "linear-2",
                      "--seeds", "1", "--duration-s", "90", "--cache-dir",
                      dir, "--no-cache"});
  EXPECT_EQ(r.code, 0) << r.err;
  const auto ls = run({"cache", "ls", "--cache-dir", dir});
  EXPECT_NE(ls.out.find("0 entries"), std::string::npos);
}

}  // namespace
}  // namespace nidkit::cli
