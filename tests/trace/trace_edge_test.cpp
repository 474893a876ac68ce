// Edge cases of the columnar TraceLog: index reads past the extent,
// byte-less serialization, arena reuse after clear(), and the tap's
// header-only digest parsers checked against the full wire decoders — on
// simulator traces, on hand-built LSUs that pin where the two disagree, and
// on seeded mutants of real frames.
#include <gtest/gtest.h>

#include <random>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "harness/scenario.hpp"
#include "packet/bgp_packet.hpp"
#include "packet/ospf_packet.hpp"
#include "packet/rip_packet.hpp"
#include "trace/trace.hpp"
#include "util/checksum.hpp"

namespace nidkit::trace {
namespace {

using namespace std::chrono_literals;

harness::ScenarioResult run(harness::Protocol proto, bool keep_bytes = true) {
  harness::Scenario s;
  s.protocol = proto;
  s.topology = {topo::Kind::kMesh, 3};
  s.duration = 60s;
  s.keep_bytes = keep_bytes;
  return harness::run_scenario(s);
}

TEST(TraceEdge, NodeRecordsBeyondIndexExtentIsEmpty) {
  const TraceLog log = run(harness::Protocol::kOspf).log;
  ASSERT_GT(log.node_index_extent(), 0u);
  // Reads past the per-node index's extent are well-defined empties, not
  // out-of-bounds: the miner iterates [0, extent) but ad-hoc consumers may
  // probe arbitrary node ids.
  EXPECT_TRUE(log.node_records(log.node_index_extent()).empty());
  EXPECT_TRUE(log.node_records(log.node_index_extent() + 17).empty());
  EXPECT_TRUE(log.node_records(~netsim::NodeId{0}).empty());
  const TraceLog empty;
  EXPECT_EQ(empty.node_index_extent(), 0u);
  EXPECT_TRUE(empty.node_records(0).empty());
}

TEST(TraceEdge, SaveLoadSaveTextIdenticalWithKeepBytesOff) {
  // With keep_bytes off every record serializes its byte column as "-";
  // the reloaded trace must reproduce the stream byte for byte, and its
  // records stay undecodable (no digest can be recomputed without bytes).
  const TraceLog original = run(harness::Protocol::kOspf, false).log;
  ASSERT_GT(original.size(), 0u);
  std::stringstream first;
  original.save(first);
  const auto loaded = TraceLog::load(first);
  ASSERT_TRUE(loaded.ok()) << loaded.error();
  ASSERT_EQ(loaded.value().size(), original.size());
  std::stringstream second;
  loaded.value().save(second);
  EXPECT_EQ(first.str(), second.str());
  for (std::size_t i = 0; i < loaded.value().size(); ++i) {
    const RecordView rec = loaded.value().view(i);
    EXPECT_TRUE(rec.bytes.empty());
    EXPECT_EQ(rec.ospf, nullptr);
  }
}

TEST(TraceEdge, ClearThenReuseRefillsTheSamePages) {
  TraceLog log;
  auto fill = [&log] {
    for (int i = 0; i < 2000; ++i) {
      RecordView r;
      r.time = SimTime{std::chrono::seconds{i}};
      r.node = static_cast<netsim::NodeId>(i % 5);
      r.frame_id = static_cast<std::uint64_t>(i + 1);
      r.protocol = 89;
      log.append(r);
    }
  };
  fill();
  ASSERT_EQ(log.size(), 2000u);
  const std::size_t first_fill_bytes = log.arena_bytes();
  ASSERT_GT(first_fill_bytes, 0u);

  log.clear();
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.node_index_extent(), 0u);
  EXPECT_EQ(log.observed_nodes(), 0u);
  EXPECT_EQ(log.arena_bytes(), 0u);

  // Refill with the identical workload: the arena hands back the same
  // pages, so the bump totals match the first fill exactly and the data
  // reads back correctly.
  fill();
  ASSERT_EQ(log.size(), 2000u);
  EXPECT_EQ(log.arena_bytes(), first_fill_bytes);
  EXPECT_EQ(log.node_index_extent(), 5u);
  for (netsim::NodeId n = 0; n < 5; ++n)
    EXPECT_EQ(log.node_records(n).size(), 400u) << "node " << n;
  EXPECT_EQ(log.view(0).frame_id, 1u);
  EXPECT_EQ(log.view(1999).frame_id, 2000u);
  EXPECT_EQ(log.view(1999).time, SimTime{1999s});
}

// ---- The oracle: the full wire decoders' digest of a frame.

struct FullOspf {
  std::uint8_t pkt_type = 0;
  std::uint8_t dbd_flags = 0;
  std::vector<LsaDigest> lsas;
};

/// monostate = the protocol is not one the trace digests.
using FullDigest = std::variant<std::monostate, FullOspf, RipDigest, BgpDigest>;

/// Digest of a `protocol` frame by ospf::decode, rip::decode or
/// bgp::decode, or the decoder's error.
Result<FullDigest> full_digest(std::uint8_t protocol,
                               std::span<const std::uint8_t> wire) {
  if (protocol == ospf::kIpProtoOspf) {
    auto decoded = ospf::decode(wire);
    if (!decoded.ok()) return fail(decoded.error());
    const auto& pkt = decoded.value();
    FullOspf d;
    d.pkt_type = static_cast<std::uint8_t>(pkt.header.type);
    auto add_header = [&d](const ospf::LsaHeader& h) {
      d.lsas.push_back(LsaDigest{static_cast<std::uint8_t>(h.type), h.seq,
                                 h.age, h.link_state_id,
                                 h.advertising_router});
    };
    if (const auto* lsu = std::get_if<ospf::LsUpdateBody>(&pkt.body)) {
      for (const auto& lsa : lsu->lsas) add_header(lsa.header);
    } else if (const auto* ack = std::get_if<ospf::LsAckBody>(&pkt.body)) {
      for (const auto& h : ack->lsa_headers) add_header(h);
    } else if (const auto* dbd = std::get_if<ospf::DbdBody>(&pkt.body)) {
      d.dbd_flags = dbd->flags;
      for (const auto& h : dbd->lsa_headers) add_header(h);
    }
    return FullDigest{std::move(d)};
  }
  if (protocol == 17) {
    auto decoded = rip::decode(wire);
    if (!decoded.ok()) return fail(decoded.error());
    const auto& pkt = decoded.value();
    RipDigest d;
    d.command = static_cast<std::uint8_t>(pkt.command);
    d.entry_count = static_cast<std::uint16_t>(pkt.entries.size());
    d.full_table_request = pkt.is_full_table_request();
    for (const auto& e : pkt.entries)
      d.max_metric = std::max(d.max_metric, e.metric);
    return FullDigest{d};
  }
  if (protocol == 6) {
    auto decoded = bgp::decode(wire);
    if (!decoded.ok()) return fail(decoded.error());
    const auto& msg = decoded.value();
    BgpDigest d;
    d.msg_type = static_cast<std::uint8_t>(msg.type());
    if (const auto* update = std::get_if<bgp::UpdateMessage>(&msg.body)) {
      d.as_path_len = static_cast<std::uint32_t>(update->as_path.size());
      d.nlri_count = static_cast<std::uint16_t>(update->nlri.size());
      d.withdrawn_count = static_cast<std::uint16_t>(update->withdrawn.size());
    } else if (const auto* notif =
                   std::get_if<bgp::NotificationMessage>(&msg.body)) {
      d.error_code = notif->error_code;
    }
    return FullDigest{d};
  }
  return FullDigest{};
}

/// Whether `rec` carries exactly the digest `full` describes, field by field.
::testing::AssertionResult digests_agree(const RecordView& rec,
                                         const FullDigest& full) {
  const auto* o = std::get_if<FullOspf>(&full);
  const auto* r = std::get_if<RipDigest>(&full);
  const auto* b = std::get_if<BgpDigest>(&full);
  if ((o != nullptr) != (rec.ospf != nullptr) ||
      (r != nullptr) != (rec.rip != nullptr) ||
      (b != nullptr) != (rec.bgp != nullptr))
    return ::testing::AssertionFailure() << "digest kinds differ";
  if (o != nullptr) {
    const OspfView& got = *rec.ospf;
    if (got.pkt_type != o->pkt_type || got.dbd_flags != o->dbd_flags ||
        got.lsas.size() != o->lsas.size())
      return ::testing::AssertionFailure() << "OSPF type, flags or count";
    for (std::size_t k = 0; k < got.lsas.size(); ++k) {
      const LsaDigest& x = got.lsas[k];
      const LsaDigest& y = o->lsas[k];
      if (x.lsa_type != y.lsa_type || x.seq != y.seq || x.age != y.age ||
          x.link_state_id != y.link_state_id ||
          x.advertising_router != y.advertising_router)
        return ::testing::AssertionFailure() << "LSA header " << k;
    }
  }
  if (r != nullptr &&
      (rec.rip->command != r->command ||
       rec.rip->entry_count != r->entry_count ||
       rec.rip->max_metric != r->max_metric ||
       rec.rip->full_table_request != r->full_table_request))
    return ::testing::AssertionFailure() << "RIP fields";
  if (b != nullptr &&
      (rec.bgp->msg_type != b->msg_type ||
       rec.bgp->as_path_len != b->as_path_len ||
       rec.bgp->nlri_count != b->nlri_count ||
       rec.bgp->withdrawn_count != b->withdrawn_count ||
       rec.bgp->error_code != b->error_code))
    return ::testing::AssertionFailure() << "BGP fields";
  return ::testing::AssertionSuccess();
}

void expect_digest_parity(const TraceLog& log) {
  ASSERT_GT(log.size(), 0u);
  for (std::size_t i = 0; i < log.size(); ++i) {
    const RecordView rec = log.view(i);
    ASSERT_FALSE(rec.bytes.empty()) << "record " << i;
    // Every simulator frame decodes, and the tap's digest of it is the
    // full decoders'.
    const auto full = full_digest(rec.protocol, rec.bytes);
    ASSERT_TRUE(full.ok()) << "record " << i << ": " << full.error();
    EXPECT_TRUE(digests_agree(rec, full.value())) << "record " << i;
  }
}

TEST(TraceEdge, FastOspfDigestMatchesFullDecode) {
  expect_digest_parity(run(harness::Protocol::kOspf).log);
}

TEST(TraceEdge, FastRipDigestMatchesFullDecode) {
  expect_digest_parity(run(harness::Protocol::kRip).log);
}

TEST(TraceEdge, FastBgpDigestMatchesFullDecode) {
  expect_digest_parity(run(harness::Protocol::kBgp).log);
}

// ---- Where the tap and the full decoders may disagree.

/// A live tap: a two-node network whose one link is down, so each send is
/// captured (and digested) and nothing is delivered.
struct Tap {
  netsim::Simulator sim;
  netsim::Network net{sim, 1};
  netsim::NodeId a = net.add_node("a");
  TraceLog log;

  Tap() {
    const netsim::NodeId b = net.add_node("b");
    net.fault(net.add_p2p(a, b)).down = true;
    log.attach(net);
  }

  RecordView send(std::uint8_t protocol, const std::vector<std::uint8_t>& w) {
    netsim::Frame f;
    f.dst = kAllSpfRouters;
    f.protocol = protocol;
    f.payload = util::SharedBytes(w);
    net.send(a, 0, std::move(f));
    return log.view(log.size() - 1);
  }
};

std::uint16_t get16(const std::vector<std::uint8_t>& w, std::size_t at) {
  return static_cast<std::uint16_t>((w[at] << 8) | w[at + 1]);
}
void put16(std::vector<std::uint8_t>& w, std::size_t at, std::uint16_t v) {
  w[at] = static_cast<std::uint8_t>(v >> 8);
  w[at + 1] = static_cast<std::uint8_t>(v);
}

/// Rewrites the Fletcher sum of every LSA an LSU's count and length fields
/// still delimit.
void fix_lsa_sums(std::vector<std::uint8_t>& w) {
  if (w.size() < 28 || w[1] != 4) return;
  const std::uint32_t n = (std::uint32_t{get16(w, 24)} << 16) | get16(w, 26);
  std::size_t off = 28;
  for (std::uint32_t i = 0; i < n && off + 20 <= w.size(); ++i) {
    const std::size_t len = get16(w, off + 18);
    if (len < 20 || len > w.size() - off) return;
    put16(w, off + 16, fletcher_checksum({w.data() + off + 2, len - 2}, 14));
    off += len;
  }
}

/// Rewrites the OSPF header checksum (RFC 1071, auth bytes 16-23 excluded).
void fix_header_sum(std::vector<std::uint8_t>& w) {
  if (w.size() < 24) return;
  put16(w, 12, 0);
  const std::span<const std::uint8_t> s(w);
  put16(w, 12, internet_checksum2(s.first(16), s.subspan(24)));
}

/// The errors of the two classes the tap lets through (see
/// fast_ospf_digest): interior LSA body malformations, and non-canonical
/// bodies whose re-encoding no longer matches their Fletcher sum.
bool lsa_body_error(const std::string& error) {
  return error == "bad LSA Fletcher checksum" ||
         error.rfind("bad router link type ", 0) == 0 ||
         (error.size() > 9 && error.ends_with("-LSA body"));
}

/// An LSU carrying one router-LSA with one point-to-point link. Byte
/// offsets: LSA header at 28, router flags 48, reserved 49, link count
/// 50-51, the link at 52: id, data, type 60, #TOS 61, metric 62-63.
std::vector<std::uint8_t> one_link_lsu() {
  ospf::Lsa lsa;
  lsa.header.type = ospf::LsaType::kRouter;
  lsa.header.link_state_id = Ipv4Addr{1, 1, 1, 1};
  lsa.header.advertising_router = RouterId{1, 1, 1, 1};
  lsa.header.seq = ospf::kInitialSequenceNumber + 4;
  ospf::RouterLsaBody body;
  body.links.push_back(ospf::RouterLink{Ipv4Addr{2, 2, 2, 2},
                                        Ipv4Addr{10, 0, 0, 1},
                                        ospf::RouterLinkType::kPointToPoint,
                                        10});
  lsa.body = std::move(body);
  lsa.finalize();
  ospf::LsUpdateBody lsu;
  lsu.lsas.push_back(std::move(lsa));
  return encode(
      make_packet(RouterId{1, 1, 1, 1}, kBackboneArea, std::move(lsu)));
}

TEST(TraceEdge, TapDigestsMalformedLsaBodiesFullDecodeRejects) {
  const std::vector<std::uint8_t> valid = one_link_lsu();
  ASSERT_EQ(valid.size(), 64u);
  ASSERT_TRUE(ospf::decode(valid).ok());
  struct Case {
    const char* name;
    std::size_t at;
    std::uint8_t value;
    const char* error;
  };
  const Case cases[] = {
      {"reserved byte set", 49, 0x01, "bad LSA Fletcher checksum"},
      {"#TOS byte set", 61, 0x01, "bad LSA Fletcher checksum"},
      {"link type 9", 60, 9, "bad router link type 9"},
      {"count 2, one link", 51, 2, "truncated router-LSA body"},
      // The one link becomes 12 trailing bytes, still inside the lengths.
      {"count 0, 12 trailing bytes", 51, 0, "bad LSA Fletcher checksum"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::vector<std::uint8_t> w = valid;
    w[c.at] = c.value;
    fix_lsa_sums(w);
    fix_header_sum(w);

    Tap tap;
    const RecordView tapped = tap.send(ospf::kIpProtoOspf, w);
    ASSERT_NE(tapped.ospf, nullptr);
    EXPECT_EQ(tapped.ospf->pkt_type, 4);
    ASSERT_EQ(tapped.ospf->lsas.size(), 1u);
    EXPECT_EQ(tapped.ospf->lsas[0].seq, ospf::kInitialSequenceNumber + 4);

    const auto decoded = ospf::decode(w);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.error(), c.error);
    EXPECT_TRUE(lsa_body_error(decoded.error()));

    std::stringstream text;
    tap.log.save(text);
    const auto loaded = TraceLog::load(text);
    ASSERT_TRUE(loaded.ok()) << loaded.error();
    ASSERT_EQ(loaded.value().size(), 1u);
    EXPECT_EQ(loaded.value().view(0).bytes, tapped.bytes);
    EXPECT_EQ(loaded.value().view(0).ospf, nullptr);
  }
}

/// One mutation of a real frame: flip 1-4 bytes, truncate, or extend by
/// 1-24 random bytes; then, each with probability 7/8, fix the length
/// field, the LSA Fletcher sums and the OSPF header checksum, so that most
/// mutants get past the integrity checks to the body decoders.
std::vector<std::uint8_t> mutate(std::vector<std::uint8_t> w,
                                 std::uint8_t protocol, std::mt19937_64& rng) {
  switch (rng() % 3) {
    case 0:
      for (auto k = 1 + rng() % 4; k > 0 && !w.empty(); --k)
        w[rng() % w.size()] ^= static_cast<std::uint8_t>(1 + rng() % 255);
      break;
    case 1:
      w.resize(rng() % (w.size() + 1));
      break;
    default:
      for (auto k = 1 + rng() % 24; k > 0; --k)
        w.push_back(static_cast<std::uint8_t>(rng()));
      break;
  }
  auto likely = [&rng] { return rng() % 8 != 0; };
  if (protocol == ospf::kIpProtoOspf) {
    if (w.size() >= 24 && w.size() <= 0xffff && likely())
      put16(w, 2, static_cast<std::uint16_t>(w.size()));
    if (likely()) fix_lsa_sums(w);
    if (likely()) fix_header_sum(w);
  } else if (protocol == 6) {
    if (w.size() >= 19 && w.size() <= 0xffff && likely())
      put16(w, 16, static_cast<std::uint16_t>(w.size()));
  }
  return w;
}

TEST(TraceEdge, MutatedFramesDigestLikeFullDecode) {
  // Seeds: every frame sent in the OSPF, RIP and BGP mesh-3 traces, by
  // protocol; the mutants take turns among the three.
  struct Seed {
    std::uint8_t protocol;
    std::vector<std::uint8_t> bytes;
  };
  std::vector<Seed> seeds[3];
  for (const auto proto : {harness::Protocol::kOspf, harness::Protocol::kRip,
                           harness::Protocol::kBgp}) {
    const TraceLog log = run(proto).log;
    for (const RecordView rec : log.records())
      if (rec.is_send())
        seeds[static_cast<int>(proto)].push_back(
            {rec.protocol, {rec.bytes.begin(), rec.bytes.end()}});
  }
  for (const auto& s : seeds) ASSERT_GT(s.size(), 20u);

  constexpr std::size_t kMutants = 20'000;
  std::mt19937_64 rng(2024);
  std::vector<Seed> mutants;
  mutants.reserve(kMutants);
  Tap tap;
  for (std::size_t i = 0; i < kMutants; ++i) {
    const auto& pool = seeds[i % 3];
    const Seed& seed = pool[rng() % pool.size()];
    mutants.push_back({seed.protocol, mutate(seed.bytes, seed.protocol, rng)});
    tap.send(mutants.back().protocol, mutants.back().bytes);
  }
  std::stringstream text;
  tap.log.save(text);
  const auto loaded = TraceLog::load(text);
  ASSERT_TRUE(loaded.ok()) << loaded.error();
  ASSERT_EQ(loaded.value().size(), kMutants);

  // Per protocol (OSPF, RIP, BGP): mutants both sides accept, both reject.
  std::size_t accepted[3] = {}, rejected[3] = {}, diverged = 0;
  for (std::size_t i = 0; i < kMutants; ++i) {
    const Seed& m = mutants[i];
    const std::size_t p = i % 3;
    const RecordView tapped = tap.log.view(i);
    const auto full = full_digest(m.protocol, m.bytes);
    // load() adds the full decoders' verdict to the tap's digest path, so
    // it agrees with the oracle on every mutant.
    ASSERT_TRUE(digests_agree(loaded.value().view(i),
                              full.ok() ? full.value() : FullDigest{}))
        << "mutant " << i << " reloaded";
    if (full.ok()) {
      ASSERT_TRUE(digests_agree(tapped, full.value())) << "mutant " << i;
      ++accepted[p];
    } else if (tapped.ospf == nullptr && tapped.rip == nullptr &&
               tapped.bgp == nullptr) {
      ++rejected[p];
    } else {
      // The one allowed disagreement: the tap digests an LSU whose LSA
      // bodies the full decoder rejects.
      ASSERT_EQ(m.protocol, ospf::kIpProtoOspf) << "mutant " << i;
      ASSERT_TRUE(lsa_body_error(full.error()))
          << "mutant " << i << ": " << full.error();
      ++diverged;
    }
  }
  for (std::size_t p = 0; p < 3; ++p) {
    EXPECT_GT(accepted[p], 100u) << "protocol " << p;
    EXPECT_GT(rejected[p], 100u) << "protocol " << p;
  }
  EXPECT_GT(diverged, 0u);
}

}  // namespace
}  // namespace nidkit::trace
