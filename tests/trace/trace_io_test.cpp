// Trace serialization round-trip tests.
#include <gtest/gtest.h>

#include <sstream>

#include "harness/scenario.hpp"
#include "mining/miner.hpp"
#include "trace/trace.hpp"

namespace nidkit::trace {
namespace {

using namespace std::chrono_literals;

TraceLog real_trace() {
  harness::Scenario s;
  s.topology = {topo::Kind::kMesh, 3};
  s.duration = 60s;
  return harness::run_scenario(s).log;
}

TEST(TraceIo, RoundTripPreservesEveryField) {
  const TraceLog original = real_trace();
  ASSERT_GT(original.size(), 0u);
  std::stringstream buf;
  original.save(buf);
  auto loaded = TraceLog::load(buf);
  ASSERT_TRUE(loaded.ok()) << loaded.error();
  const auto& out = loaded.value();
  ASSERT_EQ(out.size(), original.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    const auto& a = original.records()[i];
    const auto& b = out.records()[i];
    EXPECT_EQ(a.time, b.time);
    EXPECT_EQ(a.node, b.node);
    EXPECT_EQ(a.iface, b.iface);
    EXPECT_EQ(a.direction, b.direction);
    EXPECT_EQ(a.src, b.src);
    EXPECT_EQ(a.dst, b.dst);
    EXPECT_EQ(a.protocol, b.protocol);
    EXPECT_EQ(a.frame_id, b.frame_id);
    EXPECT_EQ(a.caused_by, b.caused_by);
    EXPECT_EQ(a.observer_state, b.observer_state);
    EXPECT_EQ(a.bytes, b.bytes);
  }
}

TEST(TraceIo, DigestsRecomputedOnLoad) {
  const TraceLog original = real_trace();
  std::stringstream buf;
  original.save(buf);
  const auto out = TraceLog::load(buf);
  ASSERT_TRUE(out.ok());
  for (std::size_t i = 0; i < out.value().size(); ++i) {
    const auto* a = original.records()[i].ospf;
    const auto* b = out.value().records()[i].ospf;
    ASSERT_EQ(a == nullptr, b == nullptr) << "record " << i;
    if (a != nullptr) {
      EXPECT_EQ(a->pkt_type, b->pkt_type);
      EXPECT_EQ(a->lsas.size(), b->lsas.size());
    }
  }
}

TEST(TraceIo, MiningAReloadedTraceGivesIdenticalRelations) {
  const TraceLog original = real_trace();
  std::stringstream buf;
  original.save(buf);
  const auto loaded = TraceLog::load(buf);
  ASSERT_TRUE(loaded.ok());
  mining::CausalMiner miner(mining::MinerConfig{});
  const auto scheme = mining::ospf_type_scheme();
  const auto a = miner.mine(original, scheme);
  const auto b = miner.mine(loaded.value(), scheme);
  ASSERT_EQ(a.size(), b.size());
  for (const auto dir : {mining::RelationDirection::kSendToRecv,
                         mining::RelationDirection::kRecvToSend})
    for (const auto& [cell, stats] : a.cells(dir)) {
      const auto* other = b.find(dir, cell);
      ASSERT_NE(other, nullptr);
      EXPECT_EQ(other->count, stats.count);
    }
}

TEST(TraceIo, SaveLoadSaveTextIsIdentical) {
  // The serialized text itself must be a fixed point: save -> load -> save
  // reproduces the stream byte for byte. This pins the format against
  // representation changes (the payload buffer moving from std::vector to
  // a shared cell must be invisible on the wire).
  const TraceLog original = real_trace();
  std::stringstream first;
  original.save(first);
  const auto loaded = TraceLog::load(first);
  ASSERT_TRUE(loaded.ok()) << loaded.error();
  std::stringstream second;
  loaded.value().save(second);
  EXPECT_EQ(first.str(), second.str());
}

TEST(TraceIo, NodeIndexRebuiltOnLoad) {
  // The per-node record index is maintained on append, including the
  // append path load() uses — a reloaded trace must mine per-node exactly
  // like the live one.
  const TraceLog original = real_trace();
  std::stringstream buf;
  original.save(buf);
  const auto loaded = TraceLog::load(buf);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.value().node_index_extent(),
            original.node_index_extent());
  for (netsim::NodeId n = 0; n < original.node_index_extent(); ++n) {
    const auto got = loaded.value().node_records(n);
    const auto want = original.node_records(n);
    EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
        << "node " << n;
  }
  EXPECT_EQ(loaded.value().observed_nodes(), original.observed_nodes());
}

TEST(TraceIo, RejectsWrongMagic) {
  std::stringstream buf("pcapng 1.0 4\n");
  EXPECT_FALSE(TraceLog::load(buf).ok());
}

TEST(TraceIo, RejectsTruncatedStream) {
  const TraceLog original = real_trace();
  std::stringstream buf;
  original.save(buf);
  std::string text = buf.str();
  text.resize(text.size() / 2);
  std::stringstream half(text);
  EXPECT_FALSE(TraceLog::load(half).ok());
}

TEST(TraceIo, RejectsCorruptHex) {
  std::stringstream buf(
      "nidkit-trace v1 1\n0 0 0 S 1 2 89 1 0 -1 zz\n");
  EXPECT_FALSE(TraceLog::load(buf).ok());
}

TEST(TraceIo, EmptyTraceRoundTrips) {
  TraceLog empty;
  std::stringstream buf;
  empty.save(buf);
  const auto out = TraceLog::load(buf);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().size(), 0u);
}

TEST(TraceIo, ByteLessRecordsRoundTripAsUndecodable) {
  TraceLog log;
  RecordView r;
  r.time = SimTime{1s};
  r.protocol = 89;
  log.append(r);  // no bytes
  std::stringstream buf;
  log.save(buf);
  const auto out = TraceLog::load(buf);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.value().size(), 1u);
  EXPECT_TRUE(out.value().records()[0].bytes.empty());
  EXPECT_EQ(out.value().records()[0].ospf, nullptr);
}

}  // namespace
}  // namespace nidkit::trace
