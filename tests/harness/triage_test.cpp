// Triage pipeline tests: golden-file incident report JSON, the injection
// confirmation rule table, the repro command line, ranking, and the
// end-to-end determinism contract (jobs- and cache-invariance) on a small
// real audit.
#include "harness/triage.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <sstream>
#include <string>

namespace nidkit::harness {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

Scenario scenario(topo::Kind kind, std::size_t routers, std::uint64_t seed,
                  SimDuration tdelay, std::vector<SimTime> churn) {
  Scenario s;
  s.topology = topo::Spec{kind, routers};
  s.seed = seed;
  s.tdelay = tdelay;
  s.duration = 180s;
  s.churn_times = std::move(churn);
  return s;
}

detect::Discrepancy discrepancy(mining::RelationDirection dir,
                                const std::string& stimulus,
                                const std::string& response,
                                std::uint64_t count, SimTime first_seen) {
  detect::Discrepancy d;
  d.direction = dir;
  d.cell = {stimulus, response};
  d.present_in = "bird";
  d.absent_in = "frr";
  d.evidence.count = count;
  d.evidence.first_seen = first_seen;
  return d;
}

// ---- Golden-file report JSON ----
//
// The report is the machine-readable triage artifact CI byte-compares, so
// its exact shape is pinned: stable field order, the whole incidents
// array on one line (grep '"incidents":' | cmp), and a trailing newline.

TEST(TriageReport, GoldenJson) {
  TriageResult tr;
  tr.impl_names = {"frr", "bird"};
  tr.scheme = "ospf-greater-lssn";
  tr.flagged = 2;
  tr.total_probes = 5;

  IncidentReport a;
  a.rank = 1;
  a.discrepancy = discrepancy(mining::RelationDirection::kSendToRecv, "LSU",
                              "LSAck+gtSN", 4, SimTime{16506816us});
  a.reproduced = true;
  a.find_probes = 3;
  a.original = scenario(topo::Kind::kMesh, 3, 2, 900ms, {60s, 110s});
  a.minimal = scenario(topo::Kind::kLinear, 2, 1, 450ms, {});
  a.smaller = true;
  a.shrink.probes = 2;
  a.shrink.fixpoint = true;
  a.shrink.trace = {
      ShrinkStep{"topology", "topology mesh-3 -> linear-2", true, true},
      ShrinkStep{"churn", "drop all churn (2 events)", true, true}};
  a.stimulus = "LSU-stale";
  a.confirmation = Confirmation::kConfirmed;
  a.outcome_present.injected = true;
  a.outcome_present.responses = {"LSAck", "LSAck+gtSN"};
  a.outcome_absent.injected = true;
  a.outcome_absent.responses = {"LSAck"};
  tr.incidents.push_back(a);

  IncidentReport b;
  b.rank = 2;
  b.discrepancy = discrepancy(mining::RelationDirection::kRecvToSend, "LSAck",
                              "LSAck+gtSN", 1, SimTime{123us});
  b.find_probes = 3;
  b.reason =
      "no single-scenario reproduction in the audit matrix (cell emerges "
      "only from the merged matrix)";
  tr.incidents.push_back(b);

  const std::string expected =
      "{\"schema\":\"nidt-triage-v1\",\n"
      "\"implementations\":[\"frr\",\"bird\"],\n"
      "\"scheme\":\"ospf-greater-lssn\",\n"
      "\"flagged\":2,\n"
      "\"incidents\":["
      "{\"rank\":1,\"direction\":\"send->recv\",\"stimulus\":\"LSU\","
      "\"response\":\"LSAck+gtSN\",\"present_in\":\"bird\","
      "\"absent_in\":\"frr\",\"count\":4,\"first_seen_us\":16506816,"
      "\"reproduced\":true,\"find_probes\":3,"
      "\"original\":{\"topology\":\"mesh-3\",\"seed\":2,\"tdelay_ms\":900,"
      "\"duration_s\":180,\"churn_s\":[60,110]},"
      "\"minimal\":{\"topology\":\"linear-2\",\"seed\":1,\"tdelay_ms\":450,"
      "\"duration_s\":180,\"churn_s\":[]},"
      "\"smaller\":true,"
      "\"shrink\":{\"probes\":2,\"fixpoint\":true,\"budget_exhausted\":false,"
      "\"steps\":[{\"phase\":\"topology\","
      "\"action\":\"topology mesh-3 -> linear-2\",\"reproduced\":true,"
      "\"kept\":true},{\"phase\":\"churn\","
      "\"action\":\"drop all churn (2 events)\",\"reproduced\":true,"
      "\"kept\":true}]},"
      "\"injection\":{\"stimulus\":\"LSU-stale\",\"verdict\":\"confirmed\","
      "\"reason\":\"\",\"present_responses\":[\"LSAck\",\"LSAck+gtSN\"],"
      "\"absent_responses\":[\"LSAck\"]},"
      "\"repro\":\"nidt audit --impls bird,frr --scheme ospf-greater-lssn "
      "--topos linear-2 --seeds 1 --tdelay-ms 450 --duration-s 180 "
      "--churn-s none --format json\"},"
      "{\"rank\":2,\"direction\":\"recv->send\",\"stimulus\":\"LSAck\","
      "\"response\":\"LSAck+gtSN\",\"present_in\":\"bird\","
      "\"absent_in\":\"frr\",\"count\":1,\"first_seen_us\":123,"
      "\"reproduced\":false,\"find_probes\":3,\"verdict\":\"unconfirmed\","
      "\"reason\":\"no single-scenario reproduction in the audit matrix "
      "(cell emerges only from the merged matrix)\"}"
      "],\n"
      "\"summary\":{\"incidents\":2,\"reproduced\":1,\"confirmed\":1,"
      "\"refuted\":0,\"unconfirmed\":1,\"probes\":5}}\n";
  EXPECT_EQ(triage_report_json(tr), expected);
}

TEST(TriageReport, IncidentsArrayOccupiesOneLine) {
  TriageResult tr;
  tr.impl_names = {"frr", "bird"};
  tr.scheme = "ospf-greater-lssn";
  IncidentReport inc;
  inc.rank = 1;
  inc.discrepancy = discrepancy(mining::RelationDirection::kSendToRecv,
                                "LSU", "LSAck+gtSN", 4, SimTime{1us});
  inc.reproduced = true;
  inc.original = scenario(topo::Kind::kMesh, 3, 2, 900ms, {60s, 110s});
  inc.minimal = scenario(topo::Kind::kLinear, 2, 1, 450ms, {});
  inc.shrink.trace = {
      ShrinkStep{"topology", "topology mesh-3 -> linear-2", true, true}};
  tr.incidents.push_back(inc);
  const std::string report = triage_report_json(tr);
  std::size_t lines_with_incidents = 0;
  std::istringstream is(report);
  std::string line;
  while (std::getline(is, line))
    if (line.rfind("\"incidents\":[", 0) == 0) {
      ++lines_with_incidents;
      EXPECT_NE(line.find("\"repro\":"), std::string::npos)
          << "the whole array must sit on the incidents line";
      EXPECT_EQ(line.back(), ',') << "array closes on its own line-member";
    }
  EXPECT_EQ(lines_with_incidents, 1u)
      << "exactly one line starts the incidents array ("
         "the summary object's \"incidents\" count must not be counted)";
}

// ---- Injection confirmation rule table ----

struct ClassifyCase {
  const char* name;
  std::string stimulus;
  bool present_injected;
  std::set<std::string> present_responses;
  bool absent_injected;
  std::set<std::string> absent_responses;
  Confirmation want;
  std::string reason_contains;
};

// Without a printer gtest prints the case as its raw bytes, pointers
// included, and CTest test names include that text; print the name so the
// names are the same on every run.
void PrintTo(const ClassifyCase& c, std::ostream* os) { *os << c.name; }

class TriageClassify : public ::testing::TestWithParam<ClassifyCase> {};

TEST_P(TriageClassify, Table) {
  const auto& c = GetParam();
  const auto d = discrepancy(mining::RelationDirection::kSendToRecv, "LSU",
                             "LSAck+gtSN", 4, SimTime{1us});
  InjectionOutcome present, absent;
  present.injected = c.present_injected;
  present.responses = c.present_responses;
  absent.injected = c.absent_injected;
  absent.responses = c.absent_responses;
  std::string reason = "stale";
  EXPECT_EQ(classify_injection(d, c.stimulus, present, absent, reason),
            c.want);
  if (c.reason_contains.empty())
    EXPECT_TRUE(reason.empty()) << reason;
  else
    EXPECT_NE(reason.find(c.reason_contains), std::string::npos) << reason;
}

INSTANTIATE_TEST_SUITE_P(
    Rules, TriageClassify,
    ::testing::Values(
        // Unsupported stimulus classes degrade to unconfirmed with a
        // reason — never an error.
        ClassifyCase{"unsupported", "", false, {}, false, {},
                     Confirmation::kUnconfirmed,
                     "no injection synthesizer for stimulus class 'LSU'"},
        // Adjacency-never-formed outcomes are reported, not dropped, and
        // name the side that failed.
        ClassifyCase{"present_no_adjacency", "LSU-stale", false, {}, true,
                     std::set<std::string>{"LSAck"},
                     Confirmation::kUnconfirmed,
                     "adjacency never formed probing bird"},
        ClassifyCase{"absent_no_adjacency", "LSU-stale", true,
                     std::set<std::string>{"LSAck"}, false, {},
                     Confirmation::kUnconfirmed,
                     "adjacency never formed probing frr"},
        ClassifyCase{"isolating_confirms", "LSU-stale", true,
                     std::set<std::string>{"LSAck", "LSAck+gtSN"}, true,
                     std::set<std::string>{"LSAck"},
                     Confirmation::kConfirmed, ""},
        ClassifyCase{"identical_refutes", "LSU-stale", true,
                     std::set<std::string>{"LSAck"}, true,
                     std::set<std::string>{"LSAck"}, Confirmation::kRefuted,
                     "respond identically"},
        ClassifyCase{"non_isolating_difference", "LSU-stale", true,
                     std::set<std::string>{"LSU"}, true,
                     std::set<std::string>{"LSAck", "LSAck+gtSN"},
                     Confirmation::kUnconfirmed, "do not isolate"}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(TriageClassify, RefinedResponseMatchesBaseProbeLabel) {
  // A state-refined cell like "LSAck+gtSN@Full" confirms via the probe's
  // unrefined "LSAck+gtSN" observation.
  auto d = discrepancy(mining::RelationDirection::kSendToRecv, "LSU",
                       "LSAck+gtSN@Full", 4, SimTime{1us});
  InjectionOutcome present, absent;
  present.injected = absent.injected = true;
  present.responses = {"LSAck", "LSAck+gtSN"};
  absent.responses = {"LSAck"};
  std::string reason;
  EXPECT_EQ(classify_injection(d, "LSU-stale", present, absent, reason),
            Confirmation::kConfirmed);
}

// ---- Repro command ----

TEST(TriageRepro, CommandRoundTripsScenarioKnobs) {
  const auto s = scenario(topo::Kind::kRing, 4, 7, 750ms, {60s, 110s});
  EXPECT_EQ(repro_command(s, "bird", "frr", "ospf-greater-lssn"),
            "nidt audit --impls bird,frr --scheme ospf-greater-lssn "
            "--topos ring-4 --seeds 7 --tdelay-ms 750 --duration-s 180 "
            "--churn-s 60,110 --format json");
}

TEST(TriageRepro, EmptyChurnSpelledNone) {
  const auto s = scenario(topo::Kind::kLinear, 2, 1, 900ms, {});
  const auto cmd = repro_command(s, "bird", "frr", "gtsn");
  EXPECT_NE(cmd.find("--churn-s none"), std::string::npos) << cmd;
}

// ---- End-to-end determinism and acceptance ----

class TriageEndToEnd : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("nidkit_triage_" + std::string(::testing::UnitTest::GetInstance()
                                                ->current_test_info()
                                                ->name())))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  TriageConfig config(std::size_t jobs, bool cached) const {
    TriageConfig tc;
    tc.experiment.topologies = {topo::Spec{topo::Kind::kLinear, 2},
                                topo::Spec{topo::Kind::kMesh, 3}};
    tc.experiment.seeds = {1, 2};
    tc.experiment.duration = 90s;
    tc.experiment.jobs = jobs;
    if (cached) tc.experiment.cache_dir = dir_;
    return tc;
  }

  std::string dir_;
};

TEST_F(TriageEndToEnd, ReportIsJobsAndCacheInvariant) {
  const std::vector<ospf::BehaviorProfile> impls = {ospf::frr_profile(),
                                                    ospf::bird_profile()};
  const auto serial = triage_report_json(triage_ospf(impls, config(1, false)));
  const auto wide = triage_report_json(triage_ospf(impls, config(4, false)));
  EXPECT_EQ(serial, wide);
  const auto cold = triage_report_json(triage_ospf(impls, config(4, true)));
  const auto warm = triage_report_json(triage_ospf(impls, config(4, true)));
  EXPECT_EQ(serial, cold);
  EXPECT_EQ(cold, warm);
}

TEST_F(TriageEndToEnd, IncidentsRankedAndAccounted) {
  const std::vector<ospf::BehaviorProfile> impls = {ospf::frr_profile(),
                                                    ospf::bird_profile()};
  auto tc = config(4, false);
  const auto result = triage_ospf(impls, tc);
  ASSERT_EQ(result.incidents.size(), result.flagged);
  std::size_t probes = 0;
  int prev_order = -1;
  for (std::size_t i = 0; i < result.incidents.size(); ++i) {
    const auto& inc = result.incidents[i];
    EXPECT_EQ(inc.rank, i + 1);
    EXPECT_LE(inc.find_probes + inc.shrink.probes, tc.max_probes);
    probes += inc.find_probes + inc.shrink.probes;
    // Ranking puts confirmed before unconfirmed before refuted.
    const int order = inc.confirmation == Confirmation::kConfirmed ? 0
                      : inc.confirmation == Confirmation::kUnconfirmed ? 1
                                                                       : 2;
    EXPECT_GE(order, prev_order);
    prev_order = order;
    if (inc.reproduced) {
      // A minimized scenario is never larger than its original, and a
      // finished shrink is a verified fixpoint.
      EXPECT_LE(inc.minimal.topology.routers, inc.original.topology.routers);
      EXPECT_LE(inc.minimal.churn_times.size(),
                inc.original.churn_times.size());
      if (!inc.shrink.budget_exhausted) {
        EXPECT_TRUE(inc.shrink.fixpoint);
      }
    } else {
      EXPECT_EQ(inc.confirmation, Confirmation::kUnconfirmed);
      EXPECT_FALSE(inc.reason.empty());
    }
  }
  EXPECT_EQ(result.total_probes, probes);
}

TEST_F(TriageEndToEnd, MaxIncidentsCapsTriage) {
  const std::vector<ospf::BehaviorProfile> impls = {ospf::frr_profile(),
                                                    ospf::bird_profile()};
  auto tc = config(4, false);
  tc.max_incidents = 1;
  const auto result = triage_ospf(impls, tc);
  if (result.flagged > 0) {
    EXPECT_EQ(result.incidents.size(), 1u);
  }
  EXPECT_GE(result.flagged, result.incidents.size());
}

}  // namespace
}  // namespace nidkit::harness
