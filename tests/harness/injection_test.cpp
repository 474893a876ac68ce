// Packet-injection validation tests (the paper's future-work feature):
// each supported stimulus class is injected into a target implementation
// and the response classes are asserted; the Validation cases run both
// sides of a flag through triage's verdict.
#include "harness/injection.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "harness/triage.hpp"

namespace nidkit::harness {
namespace {

using namespace std::chrono_literals;

InjectionConfig config_for(const std::string& stimulus,
                           ospf::BehaviorProfile profile) {
  InjectionConfig c;
  c.stimulus = stimulus;
  c.target_profile = std::move(profile);
  return c;
}

TEST(Injection, SupportedStimuliAdvertised) {
  for (const auto* s : {"Hello", "DBD", "LSR", "LSU", "LSU+gtSN", "LSU-stale",
                        "LSAck", "LSAck+gtSN"})
    EXPECT_TRUE(injection_supports(s)) << s;
  EXPECT_FALSE(injection_supports("Bogus"));
}

TEST(Injection, CanonicalLabelsMapToThemselves) {
  for (const auto& label : injection_stimulus_labels()) {
    EXPECT_EQ(injection_canonical_stimulus(label), label);
    EXPECT_TRUE(injection_supports(label)) << label;
  }
}

TEST(Injection, AliasesResolveIntoTheCanonicalTable) {
  const auto& labels = injection_stimulus_labels();
  for (const auto& [alias, canonical] : injection_stimulus_aliases()) {
    // An alias never shadows a canonical label, and always lands on one.
    EXPECT_EQ(std::find(labels.begin(), labels.end(), alias), labels.end())
        << alias;
    EXPECT_NE(std::find(labels.begin(), labels.end(), canonical), labels.end())
        << canonical;
    EXPECT_EQ(injection_canonical_stimulus(alias), canonical);
  }
  // The audit's mined label for a fresh flood maps to the plain LSU
  // synthesizer — the alias this table exists for.
  EXPECT_EQ(injection_canonical_stimulus("LSU+gtSN"), "LSU");
  EXPECT_EQ(injection_canonical_stimulus("Bogus"), "");
}

TEST(Injection, AliasInjectsLikeItsCanonicalButEchoesTheRequest) {
  const auto alias =
      inject_and_observe(config_for("LSU+gtSN", ospf::frr_profile()));
  const auto canonical =
      inject_and_observe(config_for("LSU", ospf::frr_profile()));
  ASSERT_TRUE(alias.injected);
  ASSERT_TRUE(canonical.injected);
  EXPECT_EQ(alias.responses, canonical.responses);
  // The outcome echoes what the caller asked for, not the resolved label.
  EXPECT_EQ(alias.stimulus, "LSU+gtSN");
  EXPECT_EQ(canonical.stimulus, "LSU");
}

TEST(Validation, StimulusForCellStaysWithinTheTables) {
  using mining::RelationCell;
  // Every stimulus the cell mapper can emit must be injectable — a
  // mapper output outside the tables would silently degrade triage.
  for (const auto* stim : {"LSU", "LSAck", "LSR", "Hello", "DBD"}) {
    const auto mapped = stimulus_for_cell(RelationCell{stim, "LSAck"});
    if (!mapped.empty()) {
      EXPECT_TRUE(injection_supports(mapped)) << mapped;
    }
  }
  EXPECT_TRUE(injection_supports(
      stimulus_for_cell(RelationCell{"LSU", "LSAck+gtSN"})));
  EXPECT_TRUE(injection_supports(
      stimulus_for_cell(RelationCell{"LSAck", "LSAck+gtSN"})));
}

TEST(Injection, UnsupportedStimulusNotInjected) {
  const auto out = inject_and_observe(config_for("Bogus", ospf::frr_profile()));
  EXPECT_FALSE(out.injected);
}

TEST(Injection, LsrTriggersLsuResponse) {
  for (const auto& profile : {ospf::frr_profile(), ospf::bird_profile()}) {
    const auto out = inject_and_observe(config_for("LSR", profile));
    ASSERT_TRUE(out.injected) << profile.name;
    EXPECT_TRUE(out.saw("LSU")) << profile.name;
  }
}

TEST(Injection, FreshLsuAcknowledged) {
  for (const auto& profile : {ospf::frr_profile(), ospf::bird_profile()}) {
    const auto out = inject_and_observe(config_for("LSU", profile));
    ASSERT_TRUE(out.injected) << profile.name;
    EXPECT_TRUE(out.saw("LSAck")) << profile.name;
  }
}

TEST(Injection, StaleLsuDistinguishesTheImplementations) {
  // The paper's flagged discrepancy, validated by injection: FRR answers a
  // stale LSU with the newer LSA; BIRD acknowledges it from its database
  // (an LSAck carrying a greater LS-SN).
  const auto frr =
      inject_and_observe(config_for("LSU-stale", ospf::frr_profile()));
  ASSERT_TRUE(frr.injected);
  EXPECT_TRUE(frr.saw("LSU+gtSN"));
  EXPECT_FALSE(frr.saw("LSAck+gtSN"));

  const auto bird =
      inject_and_observe(config_for("LSU-stale", ospf::bird_profile()));
  ASSERT_TRUE(bird.injected);
  EXPECT_TRUE(bird.saw("LSAck+gtSN"));
  EXPECT_FALSE(bird.saw("LSU+gtSN"));
}

TEST(Injection, UnsolicitedAckDrawsNoResponse) {
  // Neither implementation reacts to an unsolicited ack of the current
  // instance — the Table 2 row that is Ø for both.
  for (const auto& profile : {ospf::frr_profile(), ospf::bird_profile()}) {
    const auto out = inject_and_observe(config_for("LSAck", profile));
    ASSERT_TRUE(out.injected) << profile.name;
    EXPECT_FALSE(out.saw("LSU+gtSN")) << profile.name;
    EXPECT_FALSE(out.saw("LSAck+gtSN")) << profile.name;
  }
}

TEST(Injection, GreaterSnAckDrawsNoGreaterSnResponse) {
  for (const auto& profile : {ospf::frr_profile(), ospf::bird_profile()}) {
    const auto out = inject_and_observe(config_for("LSAck+gtSN", profile));
    ASSERT_TRUE(out.injected) << profile.name;
    EXPECT_FALSE(out.saw("LSAck+gtSN")) << profile.name;
  }
}

TEST(Injection, OutOfSequenceDbdRestartsExchange) {
  for (const auto& profile : {ospf::frr_profile(), ospf::bird_profile()}) {
    const auto out = inject_and_observe(config_for("DBD", profile));
    ASSERT_TRUE(out.injected) << profile.name;
    EXPECT_TRUE(out.saw("DBD")) << profile.name
                                << ": SeqNumberMismatch must restart the "
                                   "exchange with a fresh DBD";
  }
}

TEST(Injection, HelloKeepsAdjacencyQuiet) {
  const auto out = inject_and_observe(config_for("Hello", ospf::frr_profile()));
  ASSERT_TRUE(out.injected);
  // A routine hello in Full state provokes no database traffic.
  EXPECT_FALSE(out.saw("LSR"));
  EXPECT_FALSE(out.saw("DBD"));
}

TEST(Validation, StimulusForCellMapsRefinements) {
  using mining::RelationCell;
  EXPECT_EQ(stimulus_for_cell(RelationCell{"LSU", "LSAck+gtSN"}),
            "LSU-stale");
  EXPECT_EQ(stimulus_for_cell(RelationCell{"LSAck", "LSAck+gtSN"}),
            "LSAck+gtSN");
  EXPECT_EQ(stimulus_for_cell(RelationCell{"LSR", "LSU"}), "LSR");
  EXPECT_EQ(stimulus_for_cell(RelationCell{"Hello", "Hello"}), "Hello");
  // State-conditioned labels strip to their base type.
  EXPECT_EQ(stimulus_for_cell(RelationCell{"LSR@Loading", "LSU@Full"}),
            "LSR");
  EXPECT_EQ(stimulus_for_cell(RelationCell{"Bogus", "X"}), "");
}

/// Probes both sides of `d` with its cell's stimulus and returns triage's
/// verdict on the two outcomes.
Confirmation probe_and_classify(const detect::Discrepancy& d,
                                const ospf::BehaviorProfile& present,
                                const ospf::BehaviorProfile& absent,
                                std::string& reason) {
  const auto stimulus = stimulus_for_cell(d.cell);
  InjectionOutcome present_out, absent_out;
  if (!stimulus.empty()) {
    present_out = inject_and_observe(config_for(stimulus, present));
    absent_out = inject_and_observe(config_for(stimulus, absent));
  }
  return classify_injection(d, stimulus, present_out, absent_out, reason);
}

TEST(Validation, ConfirmsTheTable2Flag) {
  detect::Discrepancy d;
  d.direction = mining::RelationDirection::kSendToRecv;
  d.cell = {"LSU", "LSAck+gtSN"};
  d.present_in = "bird";
  d.absent_in = "frr";
  EXPECT_EQ(stimulus_for_cell(d.cell), "LSU-stale");
  std::string reason;
  EXPECT_EQ(probe_and_classify(d, ospf::bird_profile(), ospf::frr_profile(),
                               reason),
            Confirmation::kConfirmed);
  EXPECT_EQ(reason, "");
}

TEST(Validation, UnknownImplementationIsUnsupported) {
  // Triage probes profiles, not names, so an unknown implementation cannot
  // arise; the nearest case is a cell no synthesizer can inject.
  detect::Discrepancy d;
  d.cell = {"Bogus", "LSU"};
  d.present_in = "quagga";
  d.absent_in = "frr";
  std::string reason;
  EXPECT_EQ(probe_and_classify(d, ospf::frr_profile(), ospf::frr_profile(),
                               reason),
            Confirmation::kUnconfirmed);
  EXPECT_EQ(reason, "no injection synthesizer for stimulus class 'Bogus'");
}

TEST(Validation, IdenticalBehaviourNotReproduced) {
  // LSR handling is identical across profiles; a (hypothetical) flag on
  // it must come back refuted.
  detect::Discrepancy d;
  d.direction = mining::RelationDirection::kSendToRecv;
  d.cell = {"LSR", "LSU"};
  d.present_in = "frr";
  d.absent_in = "strict";
  std::string reason;
  EXPECT_EQ(probe_and_classify(d, ospf::frr_profile(), ospf::strict_profile(),
                               reason),
            Confirmation::kRefuted);
  EXPECT_EQ(reason, "both implementations respond identically to LSR");
}

TEST(Injection, DeterministicAcrossRuns) {
  const auto a = inject_and_observe(config_for("LSR", ospf::frr_profile()));
  const auto b = inject_and_observe(config_for("LSR", ospf::frr_profile()));
  EXPECT_EQ(a.injected, b.injected);
  EXPECT_EQ(a.responses, b.responses);
}

}  // namespace
}  // namespace nidkit::harness
