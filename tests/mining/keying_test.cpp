#include "mining/keying.hpp"

#include <gtest/gtest.h>

namespace nidkit::mining {
namespace {

/// A hand-built record: owns the digest its view points at. Immovable, so
/// the view's pointers stay valid; the factories below return it as a
/// prvalue, which is constructed in place.
struct Rec {
  std::vector<trace::LsaDigest> lsas;
  trace::OspfView ospf;
  trace::RipDigest rip;
  trace::BgpDigest bgp;
  trace::RecordView view;

  Rec() = default;
  Rec(std::uint8_t pkt_type, std::uint8_t dbd_flags,
      std::vector<trace::LsaDigest> l, int state)
      : lsas(std::move(l)) {
    ospf.pkt_type = pkt_type;
    ospf.dbd_flags = dbd_flags;
    ospf.lsas = lsas;
    view.ospf = &ospf;
    view.observer_state = state;
  }
  explicit Rec(trace::RipDigest r) : rip(r) { view.rip = &rip; }
  explicit Rec(trace::BgpDigest b) : bgp(b) { view.bgp = &bgp; }
  Rec(const Rec&) = delete;
  Rec& operator=(const Rec&) = delete;

  operator const trace::RecordView&() const { return view; }  // NOLINT
};

Rec ospf_record(std::uint8_t pkt_type, std::vector<trace::LsaDigest> lsas = {},
                int state = -1) {
  return Rec(pkt_type, 0, std::move(lsas), state);
}

trace::LsaDigest lsa(std::uint8_t type, std::uint32_t adv, std::int32_t seq) {
  trace::LsaDigest l;
  l.lsa_type = type;
  l.link_state_id = Ipv4Addr{adv};
  l.advertising_router = RouterId{adv};
  l.seq = seq;
  return l;
}

Rec rip_record(std::uint8_t command, bool full,
               std::uint32_t max_metric = 1) {
  trace::RipDigest d;
  d.command = command;
  d.full_table_request = full;
  d.max_metric = max_metric;
  return Rec(d);
}

TEST(TypeScheme, LabelsAllFiveTypes) {
  const auto s = ospf_type_scheme();
  EXPECT_EQ(*s.stimulus(ospf_record(1)), "Hello");
  EXPECT_EQ(*s.stimulus(ospf_record(2)), "DBD");
  EXPECT_EQ(*s.stimulus(ospf_record(3)), "LSR");
  EXPECT_EQ(*s.stimulus(ospf_record(4)), "LSU");
  EXPECT_EQ(*s.stimulus(ospf_record(5)), "LSAck");
}

TEST(TypeScheme, NonOspfExcluded) {
  const auto s = ospf_type_scheme();
  EXPECT_FALSE(s.stimulus(rip_record(2, false)).has_value());
  const Rec junk;
  EXPECT_FALSE(s.stimulus(junk).has_value());
}

TEST(TypeScheme, ResponseIgnoresStimulus) {
  const auto s = ospf_type_scheme();
  EXPECT_EQ(*s.response(ospf_record(1), ospf_record(4)), "LSU");
}

TEST(GreaterLssnScheme, StimulusMustBeLsuOrLsackWithLsas) {
  const auto s = ospf_greater_lssn_scheme();
  EXPECT_FALSE(s.stimulus(ospf_record(1)).has_value());
  EXPECT_FALSE(s.stimulus(ospf_record(4)).has_value());  // no LSAs carried
  EXPECT_TRUE(s.stimulus(ospf_record(4, {lsa(1, 1, 100)})).has_value());
  EXPECT_TRUE(s.stimulus(ospf_record(5, {lsa(1, 1, 100)})).has_value());
}

TEST(GreaterLssnScheme, SameLsaGreaterSeqMatches) {
  const auto s = ospf_greater_lssn_scheme();
  const auto stim = ospf_record(4, {lsa(1, 1, 100)});
  const auto resp = ospf_record(5, {lsa(1, 1, 101)});
  const auto label = s.response(stim, resp);
  ASSERT_TRUE(label.has_value());
  EXPECT_EQ(*label, "LSAck+gtSN");
}

TEST(GreaterLssnScheme, EqualSeqDoesNotMatch) {
  const auto s = ospf_greater_lssn_scheme();
  const auto stim = ospf_record(4, {lsa(1, 1, 100)});
  const auto resp = ospf_record(4, {lsa(1, 1, 100)});
  EXPECT_FALSE(s.response(stim, resp).has_value());
}

TEST(GreaterLssnScheme, DifferentLsaGreaterSeqDoesNotMatch) {
  // The refinement is per-LSA: a higher sequence number on an *unrelated*
  // LSA must not fire.
  const auto s = ospf_greater_lssn_scheme();
  const auto stim = ospf_record(4, {lsa(1, 1, 100)});
  const auto resp = ospf_record(4, {lsa(1, 2, 999)});
  EXPECT_FALSE(s.response(stim, resp).has_value());
}

TEST(GreaterLssnScheme, AnyMatchingLsaInBatchSuffices) {
  const auto s = ospf_greater_lssn_scheme();
  const auto stim = ospf_record(4, {lsa(1, 1, 100), lsa(1, 2, 50)});
  const auto resp = ospf_record(4, {lsa(1, 3, 1), lsa(1, 2, 51)});
  ASSERT_TRUE(s.response(stim, resp).has_value());
  EXPECT_EQ(*s.response(stim, resp), "LSU+gtSN");
}

TEST(GreaterLssnScheme, TypeDifferenceMeansDifferentLsa) {
  const auto s = ospf_greater_lssn_scheme();
  const auto stim = ospf_record(4, {lsa(1, 1, 100)});
  const auto resp = ospf_record(4, {lsa(5, 1, 101)});  // external, same id
  EXPECT_FALSE(s.response(stim, resp).has_value());
}

TEST(StateScheme, AppendsStateLabel) {
  const auto s = ospf_state_scheme();
  EXPECT_EQ(*s.stimulus(ospf_record(4, {}, 4)), "LSU@Exchange");
  EXPECT_EQ(*s.stimulus(ospf_record(1, {}, 6)), "Hello@Full");
  EXPECT_EQ(*s.stimulus(ospf_record(1, {}, -1)), "Hello@NoNbr");
}

TEST(LsaTypeScheme, ListsCarriedTypes) {
  const auto s = ospf_lsa_type_scheme();
  EXPECT_EQ(*s.stimulus(ospf_record(1)), "Hello");
  EXPECT_EQ(*s.stimulus(ospf_record(4, {lsa(1, 1, 1)})), "LSU[router]");
  EXPECT_EQ(*s.stimulus(ospf_record(4, {lsa(1, 1, 1), lsa(5, 2, 1)})),
            "LSU[router,external]");
}

Rec dbd_record(std::uint8_t flags) {
  return Rec(2, flags, {}, -1);
}

TEST(DbdFlagsScheme, LabelsFlagCombinations) {
  const auto s = ospf_dbd_flags_scheme();
  EXPECT_EQ(*s.stimulus(dbd_record(0x07)), "DBD(I,M,MS)");
  EXPECT_EQ(*s.stimulus(dbd_record(0x01)), "DBD(MS)");
  EXPECT_EQ(*s.stimulus(dbd_record(0x03)), "DBD(M,MS)");
  EXPECT_EQ(*s.stimulus(dbd_record(0x00)), "DBD()");
}

TEST(DbdFlagsScheme, NonDbdPacketsKeepTypeLabels) {
  const auto s = ospf_dbd_flags_scheme();
  EXPECT_EQ(*s.stimulus(ospf_record(1)), "Hello");
  EXPECT_EQ(*s.stimulus(ospf_record(4)), "LSU");
  EXPECT_FALSE(s.stimulus(rip_record(2, false)).has_value());
}

Rec bgp_record(std::uint8_t type, std::uint32_t path_len = 0,
               std::uint16_t nlri = 0, std::uint16_t withdrawn = 0) {
  trace::BgpDigest d;
  d.msg_type = type;
  d.as_path_len = path_len;
  d.nlri_count = nlri;
  d.withdrawn_count = withdrawn;
  return Rec(d);
}

TEST(BgpScheme, MessageLabels) {
  const auto s = bgp_message_scheme();
  EXPECT_EQ(*s.stimulus(bgp_record(1)), "OPEN");
  EXPECT_EQ(*s.stimulus(bgp_record(4)), "KEEPALIVE");
  EXPECT_EQ(*s.stimulus(bgp_record(3)), "NOTIFICATION");
  EXPECT_EQ(*s.stimulus(bgp_record(2, 3, 1)), "UPDATE");
  EXPECT_EQ(*s.stimulus(bgp_record(2, 150, 1)), "UPDATE+longpath");
  EXPECT_EQ(*s.stimulus(bgp_record(2, 0, 0, 2)), "UPDATE+withdraw");
  EXPECT_FALSE(s.stimulus(ospf_record(1)).has_value());
}

TEST(BgpScheme, ThresholdIsConfigurable) {
  const auto strict = bgp_message_scheme(10);
  EXPECT_EQ(*strict.stimulus(bgp_record(2, 11, 1)), "UPDATE+longpath");
  const auto lax = bgp_message_scheme(1000);
  EXPECT_EQ(*lax.stimulus(bgp_record(2, 11, 1)), "UPDATE");
}

TEST(RipScheme, CommandLabels) {
  const auto s = rip_command_scheme();
  EXPECT_EQ(*s.stimulus(rip_record(1, true)), "Request(full)");
  EXPECT_EQ(*s.stimulus(rip_record(1, false)), "Request");
  EXPECT_EQ(*s.stimulus(rip_record(2, false)), "Response");
  EXPECT_FALSE(s.stimulus(ospf_record(1)).has_value());
}

TEST(RipRefinedScheme, PoisonDistinguished) {
  const auto s = rip_refined_scheme();
  EXPECT_EQ(*s.stimulus(rip_record(2, false, 3)), "Response");
  EXPECT_EQ(*s.stimulus(rip_record(2, false, 16)), "Response(poison)");
  // Requests are never "poison" even with metric 16 (the full-table form).
  EXPECT_EQ(*s.stimulus(rip_record(1, true, 16)), "Request(full)");
}

TEST(Labels, OspfTypeLabelFallback) {
  EXPECT_EQ(ospf_type_label(9), "OSPF?9");
}

}  // namespace
}  // namespace nidkit::mining
