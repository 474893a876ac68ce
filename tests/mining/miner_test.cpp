// Causal-miner unit tests over hand-built traces with exact timings —
// the paper's attribution rule, pinned cell by cell.
#include "mining/miner.hpp"

#include <gtest/gtest.h>

namespace nidkit::mining {
namespace {

using namespace std::chrono_literals;
using netsim::Direction;

constexpr auto kSR = RelationDirection::kSendToRecv;
constexpr auto kRS = RelationDirection::kRecvToSend;

/// Builder for synthetic traces: add(node, dir, time, ospf type, ...).
struct TraceBuilder {
  trace::TraceLog log;
  std::uint64_t next_id = 1;

  std::uint64_t add(netsim::NodeId node, Direction dir, SimTime t,
                    std::uint8_t pkt_type, std::uint64_t caused_by = 0) {
    const std::uint64_t id = next_id++;
    trace::OspfView d;
    d.pkt_type = pkt_type;
    trace::RecordView r;
    r.node = node;
    r.direction = dir;
    r.time = t;
    r.frame_id = id;
    r.caused_by = caused_by;
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

TEST(Miner, FirstRecvPastThresholdAttributed) {
  TraceBuilder tb;
  tb.add(0, Direction::kSend, SimTime{0s}, 1);    // Snd Hello @ 0
  tb.add(0, Direction::kRecv, SimTime{1s}, 2);    // too early (< 1.8 s)
  tb.add(0, Direction::kRecv, SimTime{2s}, 4);    // first past threshold
  tb.add(0, Direction::kRecv, SimTime{3s}, 5);    // later: ignored
  CausalMiner miner(config_900ms());
  const auto set = miner.mine(tb.log, ospf_type_scheme());
  EXPECT_TRUE(set.has(kSR, "Hello", "LSU"));
  EXPECT_FALSE(set.has(kSR, "Hello", "DBD"));
  EXPECT_FALSE(set.has(kSR, "Hello", "LSAck"));
}

TEST(Miner, ThresholdIsInclusive) {
  TraceBuilder tb;
  tb.add(0, Direction::kSend, SimTime{0s}, 1);
  tb.add(0, Direction::kRecv, SimTime{1800ms}, 4);  // exactly 2*TDelay
  CausalMiner miner(config_900ms());
  const auto set = miner.mine(tb.log, ospf_type_scheme());
  EXPECT_TRUE(set.has(kSR, "Hello", "LSU"));
}

TEST(Miner, HorizonExcludesLateResponses) {
  TraceBuilder tb;
  tb.add(0, Direction::kSend, SimTime{0s}, 1);
  tb.add(0, Direction::kRecv, SimTime{10s}, 4);  // past 1.8 s + 5 s horizon
  CausalMiner miner(config_900ms());
  const auto set = miner.mine(tb.log, ospf_type_scheme());
  EXPECT_EQ(set.size(), 0u);
}

TEST(Miner, ZeroHorizonDisablesTheCap) {
  TraceBuilder tb;
  tb.add(0, Direction::kSend, SimTime{0s}, 1);
  tb.add(0, Direction::kRecv, SimTime{100s}, 4);
  auto cfg = config_900ms();
  cfg.horizon = SimDuration{0};
  CausalMiner miner(cfg);
  EXPECT_TRUE(miner.mine(tb.log, ospf_type_scheme()).has(kSR, "Hello", "LSU"));
}

TEST(Miner, BothDirectionsMined) {
  TraceBuilder tb;
  tb.add(0, Direction::kRecv, SimTime{0s}, 3);   // Rcv LSR
  tb.add(0, Direction::kSend, SimTime{2s}, 4);   // Snd LSU
  tb.add(0, Direction::kRecv, SimTime{4s}, 5);   // Rcv LSAck
  CausalMiner miner(config_900ms());
  const auto set = miner.mine(tb.log, ospf_type_scheme());
  EXPECT_TRUE(set.has(kRS, "LSR", "LSU"));
  EXPECT_TRUE(set.has(kSR, "LSU", "LSAck"));
}

TEST(Miner, NodesAreIndependent) {
  TraceBuilder tb;
  tb.add(0, Direction::kSend, SimTime{0s}, 1);
  tb.add(1, Direction::kRecv, SimTime{2s}, 4);  // different router!
  CausalMiner miner(config_900ms());
  EXPECT_EQ(miner.mine(tb.log, ospf_type_scheme()).size(), 0u);
}

TEST(Miner, OneResponseCanServeManyStimuli) {
  TraceBuilder tb;
  tb.add(0, Direction::kSend, SimTime{0s}, 1);
  tb.add(0, Direction::kSend, SimTime{100ms}, 2);
  tb.add(0, Direction::kRecv, SimTime{3s}, 4);
  CausalMiner miner(config_900ms());
  const auto set = miner.mine(tb.log, ospf_type_scheme());
  EXPECT_TRUE(set.has(kSR, "Hello", "LSU"));
  EXPECT_TRUE(set.has(kSR, "DBD", "LSU"));
}

TEST(Miner, WindowFactorScalesThreshold) {
  TraceBuilder tb;
  tb.add(0, Direction::kSend, SimTime{0s}, 1);
  tb.add(0, Direction::kRecv, SimTime{1s}, 4);  // 1 s after send
  auto cfg = config_900ms();
  cfg.window_factor = 1.0;  // threshold 0.9 s: the 1 s response matches
  EXPECT_TRUE(CausalMiner(cfg).mine(tb.log, ospf_type_scheme())
                  .has(kSR, "Hello", "LSU"));
  cfg.window_factor = 2.0;  // threshold 1.8 s: it does not
  EXPECT_FALSE(CausalMiner(cfg).mine(tb.log, ospf_type_scheme())
                   .has(kSR, "Hello", "LSU"));
}

TEST(Miner, EmptyTraceYieldsEmptySet) {
  trace::TraceLog log;
  CausalMiner miner(config_900ms());
  EXPECT_EQ(miner.mine(log, ospf_type_scheme()).size(), 0u);
  EXPECT_TRUE(miner.mine_pairs(log).send_to_recv.empty());
}

TEST(Miner, CountsAccumulateAcrossInstances) {
  TraceBuilder tb;
  for (int i = 0; i < 4; ++i) {
    const SimTime base{i * 20s};
    tb.add(0, Direction::kSend, base, 1);
    tb.add(0, Direction::kRecv, base + 2s, 1);
  }
  CausalMiner miner(config_900ms());
  const auto set = miner.mine(tb.log, ospf_type_scheme());
  const auto* stats = set.find(kSR, {"Hello", "Hello"});
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->count, 4u);
  EXPECT_EQ(stats->first_seen, SimTime{0s});
}

TEST(Miner, MinePairsRecordsIndices) {
  TraceBuilder tb;
  tb.add(0, Direction::kSend, SimTime{0s}, 1);
  tb.add(0, Direction::kRecv, SimTime{2s}, 4);
  CausalMiner miner(config_900ms());
  const auto pairs = miner.mine_pairs(tb.log);
  ASSERT_EQ(pairs.send_to_recv.size(), 1u);
  EXPECT_EQ(pairs.send_to_recv[0].stimulus_index, 0u);
  EXPECT_EQ(pairs.send_to_recv[0].response_index, 1u);
}

// ---- Ground truth extraction ----

TEST(TruePairs, RecvToSendFromProvenance) {
  TraceBuilder tb;
  const auto rx = tb.add(0, Direction::kRecv, SimTime{0s}, 3);
  tb.add(0, Direction::kSend, SimTime{50ms}, 4, rx);  // caused by the LSR
  const auto truth = true_pairs(tb.log);
  ASSERT_EQ(truth.recv_to_send.size(), 1u);
  EXPECT_EQ(truth.recv_to_send[0].stimulus_index, 0u);
  EXPECT_EQ(truth.recv_to_send[0].response_index, 1u);
  EXPECT_TRUE(truth.send_to_recv.empty());
}

TEST(TruePairs, SendToRecvWhenPeerResponds) {
  TraceBuilder tb;
  // Node 0 sends frame F; node 1 receives it; node 1 responds with a frame
  // caused by F; node 0 receives the response.
  const auto f = tb.add(0, Direction::kSend, SimTime{0s}, 3);
  tb.add(1, Direction::kRecv, SimTime{900ms}, 3);  // same frame id? no: new
  // The response frame (new id, caused_by=f) observed at both ends:
  tb.add(1, Direction::kSend, SimTime{950ms}, 4, f);
  tb.add(0, Direction::kRecv, SimTime{1850ms}, 4, f);
  const auto truth = true_pairs(tb.log);
  ASSERT_EQ(truth.send_to_recv.size(), 1u);
  EXPECT_EQ(truth.send_to_recv[0].stimulus_index, 0u);
  EXPECT_EQ(truth.send_to_recv[0].response_index, 3u);
}

TEST(TruePairs, SpontaneousTrafficHasNoPairs) {
  TraceBuilder tb;
  tb.add(0, Direction::kSend, SimTime{0s}, 1);
  tb.add(0, Direction::kRecv, SimTime{2s}, 1);
  const auto truth = true_pairs(tb.log);
  EXPECT_TRUE(truth.send_to_recv.empty());
  EXPECT_TRUE(truth.recv_to_send.empty());
}

TEST(ScorePairs, PerfectAttributionScoresOne) {
  TraceBuilder tb;
  const auto rx = tb.add(0, Direction::kRecv, SimTime{0s}, 3);
  tb.add(0, Direction::kSend, SimTime{2s}, 4, rx);
  CausalMiner miner(config_900ms());
  const auto acc = score_pairs(tb.log, miner.mine_pairs(tb.log));
  EXPECT_EQ(acc.mined, 1u);
  EXPECT_EQ(acc.truth, 1u);
  EXPECT_EQ(acc.correct, 1u);
  EXPECT_DOUBLE_EQ(acc.precision(), 1.0);
  EXPECT_DOUBLE_EQ(acc.recall(), 1.0);
}

TEST(ScorePairs, MisattributionLowersPrecision) {
  TraceBuilder tb;
  const auto rx = tb.add(0, Direction::kRecv, SimTime{0s}, 3);
  // The true response arrives *before* the threshold (1 s < 1.8 s)...
  tb.add(0, Direction::kSend, SimTime{1s}, 4, rx);
  // ...and an unrelated timer-driven send lands inside the window.
  tb.add(0, Direction::kSend, SimTime{2s}, 1, 0);
  CausalMiner miner(config_900ms());
  const auto acc = score_pairs(tb.log, miner.mine_pairs(tb.log));
  EXPECT_EQ(acc.correct, 0u);
  EXPECT_GT(acc.mined, 0u);
  EXPECT_LT(acc.precision(), 1.0);
  EXPECT_LT(acc.recall(), 1.0);
}

TEST(ScoreCells, UnobservedAndSpuriousCounted) {
  TraceBuilder tb;
  const auto rx = tb.add(0, Direction::kRecv, SimTime{0s}, 3);
  tb.add(0, Direction::kSend, SimTime{1s}, 4, rx);   // true: LSR->LSU (missed)
  tb.add(0, Direction::kSend, SimTime{2s}, 1, 0);    // mined: LSR->Hello (spurious)
  CausalMiner miner(config_900ms());
  const auto scheme = ospf_type_scheme();
  const auto mined = miner.mine(tb.log, scheme);
  const auto acc = score_cells(tb.log, mined, scheme);
  EXPECT_EQ(acc.true_cells, 1u);
  EXPECT_EQ(acc.unobserved, 1u);
  EXPECT_EQ(acc.spurious, 1u);
}

TEST(ScoreCells, PerfectWhenAttributionMatches) {
  TraceBuilder tb;
  const auto rx = tb.add(0, Direction::kRecv, SimTime{0s}, 3);
  tb.add(0, Direction::kSend, SimTime{2s}, 4, rx);
  CausalMiner miner(config_900ms());
  const auto scheme = ospf_type_scheme();
  const auto acc = score_cells(tb.log, miner.mine(tb.log, scheme), scheme);
  EXPECT_EQ(acc.unobserved, 0u);
  EXPECT_EQ(acc.spurious, 0u);
  EXPECT_EQ(acc.mined_cells, acc.true_cells);
}

TEST(Miner, ClassifyReusesPairs) {
  TraceBuilder tb;
  tb.add(0, Direction::kSend, SimTime{0s}, 4);
  tb.add(0, Direction::kRecv, SimTime{2s}, 5);
  CausalMiner miner(config_900ms());
  const auto pairs = miner.mine_pairs(tb.log);
  const auto by_type = miner.classify(tb.log, pairs, ospf_type_scheme());
  EXPECT_TRUE(by_type.has(kSR, "LSU", "LSAck"));
  // The same pairs under the refined scheme yield nothing (no LSAs).
  const auto refined =
      miner.classify(tb.log, pairs, ospf_greater_lssn_scheme());
  EXPECT_EQ(refined.size(), 0u);
}

}  // namespace
}  // namespace nidkit::mining
