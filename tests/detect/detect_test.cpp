#include "detect/detect.hpp"

#include <gtest/gtest.h>

#include "detect/json.hpp"
#include "detect/report.hpp"

namespace nidkit::detect {
namespace {

using namespace std::chrono_literals;
using mining::RelationDirection;
using mining::RelationSet;

constexpr auto kSR = RelationDirection::kSendToRecv;
constexpr auto kRS = RelationDirection::kRecvToSend;

RelationSet set_with(std::initializer_list<std::pair<const char*, const char*>>
                         sr_cells) {
  RelationSet set;
  for (const auto& [s, r] : sr_cells)
    set.add(kSR, {s, r}, SimTime{1s}, 1, 2);
  return set;
}

TEST(Compare, IdenticalSetsProduceNoDiscrepancies) {
  const auto a = set_with({{"Hello", "Hello"}, {"LSU", "LSAck"}});
  const auto b = set_with({{"Hello", "Hello"}, {"LSU", "LSAck"}});
  EXPECT_TRUE(compare_all({{"a", &a}, {"b", &b}}).empty());
}

TEST(Compare, OneSidedCellFlaggedWithHaverAndLacker) {
  const auto a = set_with({{"Hello", "Hello"}, {"LSU", "LSAck"}});
  const auto b = set_with({{"Hello", "Hello"}});
  const auto found = compare_all({{"frr", &a}, {"bird", &b}});
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].cell, (mining::RelationCell{"LSU", "LSAck"}));
  EXPECT_EQ(found[0].present_in, "frr");
  EXPECT_EQ(found[0].absent_in, "bird");
  EXPECT_EQ(found[0].evidence.count, 1u);
}

TEST(Compare, BothSidesCanBeFlagged) {
  const auto a = set_with({{"X", "Y"}});
  const auto b = set_with({{"P", "Q"}});
  const auto found = compare_all({{"a", &a}, {"b", &b}});
  EXPECT_EQ(found.size(), 2u);
}

TEST(Compare, DirectionsComparedSeparately) {
  RelationSet a, b;
  a.add(kSR, {"X", "Y"}, SimTime{0s}, 0, 0);
  b.add(kRS, {"X", "Y"}, SimTime{0s}, 0, 0);
  const auto found = compare_all({{"a", &a}, {"b", &b}});
  ASSERT_EQ(found.size(), 2u);
  EXPECT_NE(found[0].direction, found[1].direction);
}

TEST(CompareAll, ThreeWayFlagsPerLacker) {
  const auto a = set_with({{"X", "Y"}});
  const auto b = set_with({{"X", "Y"}});
  const auto c = set_with({});
  const auto found = compare_all({{"a", &a}, {"b", &b}, {"c", &c}});
  // Cell X->Y is missing only from c; flagged once per haver (a and b).
  ASSERT_EQ(found.size(), 2u);
  for (const auto& d : found) EXPECT_EQ(d.absent_in, "c");
}

TEST(Render, MatrixPlacesChecksAndZeros) {
  const auto a = set_with({{"Hello", "Hello"}});
  const auto b = set_with({});
  const auto text = render_matrix({{"frr", &a}, {"bird", &b}}, {"Hello"},
                                  {"Hello"}, kSR);
  // One ✓ (frr block) and one Ø (bird block).
  EXPECT_NE(text.find("✓"), std::string::npos);
  EXPECT_NE(text.find("Ø"), std::string::npos);
  EXPECT_NE(text.find("frr"), std::string::npos);
  EXPECT_NE(text.find("Snd(Hello)"), std::string::npos);
  EXPECT_NE(text.find("Rcv(Hello)"), std::string::npos);
}

TEST(Render, MatrixRespectsRequestedOrder) {
  const auto a = set_with({{"A", "B"}});
  const auto text =
      render_matrix({{"impl", &a}}, {"Z", "A"}, {"B"}, kSR);
  EXPECT_LT(text.find("Snd(Z)"), text.find("Snd(A)"));
}

TEST(Render, DiscrepanciesListIsReadable) {
  const auto a = set_with({{"LSU", "LSAck"}});
  const auto b = set_with({});
  const auto found = compare_all({{"frr", &a}, {"bird", &b}});
  const auto text = render_discrepancies(found);
  EXPECT_NE(text.find("LSU -> LSAck"), std::string::npos);
  EXPECT_NE(text.find("present in frr"), std::string::npos);
  EXPECT_NE(text.find("never in bird"), std::string::npos);
}

TEST(Render, NoDiscrepanciesMessage) {
  const auto text = render_discrepancies({});
  EXPECT_NE(text.find("no discrepancies"), std::string::npos);
}

TEST(Render, RelationListingShowsCounts) {
  RelationSet set;
  set.add(kSR, {"A", "B"}, SimTime{0s}, 0, 0);
  set.add(kSR, {"A", "B"}, SimTime{1s}, 0, 0);
  const auto text = render_relations(set);
  EXPECT_NE(text.find("A -> B (2x)"), std::string::npos);
}

TEST(Render, ResponseProfileIsReadable) {
  RelationSet set;
  for (int i = 0; i < 3; ++i)
    set.add(kSR, {"LSU", "LSAck"}, SimTime{0s}, 0, 0);
  set.add(kSR, {"LSU", "Hello"}, SimTime{0s}, 0, 0);
  const auto text =
      render_response_profile(mining::response_profile(set, kSR));
  EXPECT_NE(text.find("after Snd(LSU):"), std::string::npos);
  EXPECT_NE(text.find("Rcv(LSAck) 75% (3x)"), std::string::npos);
  EXPECT_NE(text.find("Rcv(Hello) 25% (1x)"), std::string::npos);
}

TEST(Json, EscapesSpecialCharacters) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb"), "a\\nb");
  EXPECT_EQ(json_escape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(Json, AuditShapeIsWellFormed) {
  const auto a = set_with({{"LSU", "LSAck"}});
  const auto b = set_with({});
  const std::vector<NamedRelations> named = {{"frr", &a}, {"bird", &b}};
  const auto flags = compare_all(named);
  const auto json = to_json(named, flags);
  // Structural smoke checks (we emit, we do not parse).
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"implementations\":[\"frr\",\"bird\"]"),
            std::string::npos);
  EXPECT_NE(json.find("\"stimulus\":\"LSU\""), std::string::npos);
  EXPECT_NE(json.find("\"present_in\":\"frr\""), std::string::npos);
  EXPECT_NE(json.find("\"absent_in\":\"bird\""), std::string::npos);
  // Balanced braces/brackets.
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '"' && (i == 0 || json[i - 1] != '\\')) in_string = !in_string;
    if (in_string) continue;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(Json, EmptyAuditSerializes) {
  const auto json = to_json({}, {});
  EXPECT_EQ(json,
            "{\"implementations\":[],\"relations\":{},\"discrepancies\":[]}");
}

TEST(DirectionLabel, Names) {
  EXPECT_EQ(to_string(kSR), "send->recv");
  EXPECT_EQ(to_string(kRS), "recv->send");
}

}  // namespace
}  // namespace nidkit::detect
