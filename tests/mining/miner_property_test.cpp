// Algebraic properties the parallel executor leans on.
//
// The executor merges per-scenario relation sets in canonical order, and
// the serial loop nest merges them in the same order — but the *miner*
// must also be insensitive to how the trace log interleaves events that
// carry the same timestamp, and RelationSet::merge must be associative
// and commutative so any grouping of per-scenario sets yields the same
// union. These tests pin both properties, directly and via seeded-random
// instances.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "mining/miner.hpp"
#include "util/rng.hpp"

namespace nidkit::mining {
namespace {

using namespace std::chrono_literals;
using netsim::Direction;

constexpr auto kSR = RelationDirection::kSendToRecv;
constexpr auto kRS = RelationDirection::kRecvToSend;

struct TraceBuilder {
  trace::TraceLog log;
  std::uint64_t next_id = 1;

  std::uint64_t add(netsim::NodeId node, Direction dir, SimTime t,
                    std::uint8_t pkt_type) {
    const std::uint64_t id = next_id++;
    trace::OspfView d;
    d.pkt_type = pkt_type;
    trace::RecordView r;
    r.node = node;
    r.direction = dir;
    r.time = t;
    r.frame_id = id;
    r.ospf = &d;
    log.append(r);
    return id;
  }
};

MinerConfig config_900ms() {
  MinerConfig cfg;
  cfg.tdelay = 900ms;
  cfg.window_factor = 2.0;
  cfg.horizon = 5s;
  return cfg;
}

/// Cells, counts and first_seen must match (example trace indices are
/// positions in the log, so they legitimately move when records swap).
void expect_same_observations(const RelationSet& a, const RelationSet& b) {
  for (const auto dir : {kSR, kRS}) {
    const auto& ca = a.cells(dir);
    const auto& cb = b.cells(dir);
    ASSERT_EQ(ca.size(), cb.size());
    for (const auto& [cell, stats] : ca) {
      const auto* other = b.find(dir, cell);
      ASSERT_NE(other, nullptr)
          << cell.stimulus << "->" << cell.response;
      EXPECT_EQ(stats.count, other->count)
          << cell.stimulus << "->" << cell.response;
      EXPECT_EQ(stats.first_seen, other->first_seen);
    }
  }
}

/// Full equality including the surviving example evidence.
void expect_identical(const RelationSet& a, const RelationSet& b) {
  for (const auto dir : {kSR, kRS}) {
    const auto& ca = a.cells(dir);
    const auto& cb = b.cells(dir);
    ASSERT_EQ(ca.size(), cb.size());
    for (const auto& [cell, stats] : ca) {
      const auto* other = b.find(dir, cell);
      ASSERT_NE(other, nullptr);
      EXPECT_EQ(stats.count, other->count);
      EXPECT_EQ(stats.first_seen, other->first_seen);
      EXPECT_EQ(stats.example_stimulus, other->example_stimulus);
      EXPECT_EQ(stats.example_response, other->example_response);
    }
  }
}

// ------------------------------------------- tie-reordering invariance --

TEST(MinerProperty, CoArrivalsAreAllAttributed) {
  TraceBuilder tb;
  tb.add(0, Direction::kSend, SimTime{0s}, 1);   // Hello
  tb.add(0, Direction::kRecv, SimTime{2s}, 4);   // LSU  } same
  tb.add(0, Direction::kRecv, SimTime{2s}, 5);   // LSAck} timestamp
  const auto set = CausalMiner(config_900ms()).mine(tb.log, ospf_type_scheme());
  EXPECT_TRUE(set.has(kSR, "Hello", "LSU"));
  EXPECT_TRUE(set.has(kSR, "Hello", "LSAck"));
}

TEST(MinerProperty, TieReorderingDoesNotChangeTheRelationSet) {
  const auto build = [](bool swapped) {
    TraceBuilder tb;
    tb.add(0, Direction::kSend, SimTime{0s}, 1);
    if (swapped) {
      tb.add(0, Direction::kRecv, SimTime{2s}, 5);
      tb.add(0, Direction::kRecv, SimTime{2s}, 4);
    } else {
      tb.add(0, Direction::kRecv, SimTime{2s}, 4);
      tb.add(0, Direction::kRecv, SimTime{2s}, 5);
    }
    tb.add(0, Direction::kRecv, SimTime{3s}, 2);  // later: never attributed
    return std::move(tb.log);
  };
  CausalMiner miner(config_900ms());
  const auto a = miner.mine(build(false), ospf_type_scheme());
  const auto b = miner.mine(build(true), ospf_type_scheme());
  expect_same_observations(a, b);
  EXPECT_FALSE(a.has(kSR, "Hello", "DBD"));
}

TEST(MinerProperty, TiedSameKeyResponsesBothCount) {
  TraceBuilder tb;
  tb.add(0, Direction::kSend, SimTime{0s}, 1);
  tb.add(0, Direction::kRecv, SimTime{2s}, 4);
  tb.add(0, Direction::kRecv, SimTime{2s}, 4);
  const auto set = CausalMiner(config_900ms()).mine(tb.log, ospf_type_scheme());
  const auto* stats = set.find(kSR, RelationCell{"Hello", "LSU"});
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->count, 2u);
}

TEST(MinerProperty, RandomTieShufflesAreInvariant) {
  Rng rng(0x71e0bde5);
  for (int round = 0; round < 20; ++round) {
    // A burst of sends followed by a co-arrival clump: every permutation
    // of the clump must mine identically.
    std::vector<std::uint8_t> clump;
    const std::size_t n = 2 + rng.uniform(3);
    for (std::size_t i = 0; i < n; ++i)
      clump.push_back(static_cast<std::uint8_t>(1 + rng.uniform(5)));

    const auto build = [&clump](const std::vector<std::size_t>& order) {
      TraceBuilder tb;
      tb.add(0, Direction::kSend, SimTime{0s}, 1);
      tb.add(0, Direction::kSend, SimTime{200ms}, 3);
      for (const auto idx : order)
        tb.add(0, Direction::kRecv, SimTime{2500ms}, clump[idx]);
      return std::move(tb.log);
    };

    std::vector<std::size_t> order(clump.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    CausalMiner miner(config_900ms());
    const auto reference = miner.mine(build(order), ospf_type_scheme());
    for (int shuffle = 0; shuffle < 4; ++shuffle) {
      for (std::size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[rng.uniform(i)]);
      expect_same_observations(reference,
                               miner.mine(build(order), ospf_type_scheme()));
    }
  }
}

// --------------------------------------------------- union as algebra --

RelationSet random_set(Rng& rng) {
  static const char* kLabels[] = {"Hello", "DBD", "LSR", "LSU", "LSAck"};
  RelationSet set;
  const std::size_t n = 1 + rng.uniform(10);
  for (std::size_t i = 0; i < n; ++i) {
    const auto dir = rng.chance(0.5) ? kSR : kRS;
    RelationCell cell{kLabels[rng.uniform(5)], kLabels[rng.uniform(5)]};
    set.add(dir, cell,
            SimTime{static_cast<std::int64_t>(rng.uniform(10'000'000))},
            rng.uniform(500), rng.uniform(500));
  }
  return set;
}

TEST(MinerProperty, MergeIsCommutative) {
  Rng rng(0xc0330712);
  for (int round = 0; round < 50; ++round) {
    const auto a = random_set(rng);
    const auto b = random_set(rng);
    auto ab = a;
    ab.merge(b);
    auto ba = b;
    ba.merge(a);
    expect_identical(ab, ba);
  }
}

TEST(MinerProperty, MergeIsAssociative) {
  Rng rng(0xa5500c17);
  for (int round = 0; round < 50; ++round) {
    const auto a = random_set(rng);
    const auto b = random_set(rng);
    const auto c = random_set(rng);
    auto left = a;   // (a ∪ b) ∪ c
    left.merge(b);
    left.merge(c);
    auto bc = b;     // a ∪ (b ∪ c)
    bc.merge(c);
    auto right = a;
    right.merge(bc);
    expect_identical(left, right);
  }
}

TEST(MinerProperty, MergeKeepsCanonicallyEarliestEvidence) {
  RelationSet a;
  a.add(kSR, {"Hello", "LSU"}, SimTime{5s}, 40, 41);
  RelationSet b;
  b.add(kSR, {"Hello", "LSU"}, SimTime{2s}, 90, 91);
  RelationSet ab = a;
  ab.merge(b);
  const auto* stats = ab.find(kSR, {"Hello", "LSU"});
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->count, 2u);
  EXPECT_EQ(stats->first_seen, SimTime{2s});  // earlier time wins...
  EXPECT_EQ(stats->example_stimulus, 90u);    // ...with its own indices
  EXPECT_EQ(stats->example_response, 91u);
}

TEST(MinerProperty, MergeBreaksTimeTiesByIndices) {
  RelationSet a;
  a.add(kRS, {"LSR", "LSU"}, SimTime{3s}, 70, 71);
  RelationSet b;
  b.add(kRS, {"LSR", "LSU"}, SimTime{3s}, 20, 21);
  auto ab = a;
  ab.merge(b);
  auto ba = b;
  ba.merge(a);
  const auto* sab = ab.find(kRS, {"LSR", "LSU"});
  const auto* sba = ba.find(kRS, {"LSR", "LSU"});
  ASSERT_NE(sab, nullptr);
  ASSERT_NE(sba, nullptr);
  // Same winner regardless of merge direction: the lower index pair.
  EXPECT_EQ(sab->example_stimulus, 20u);
  EXPECT_EQ(sba->example_stimulus, 20u);
}

}  // namespace
}  // namespace nidkit::mining
