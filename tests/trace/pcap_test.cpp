#include "trace/pcap.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "harness/scenario.hpp"
#include "util/checksum.hpp"

namespace nidkit::trace {
namespace {

using namespace std::chrono_literals;

TraceLog small_trace() {
  harness::Scenario s;
  s.duration = 60s;
  return harness::run_scenario(s).log;
}

std::uint32_t rd32le(const std::string& buf, std::size_t off) {
  return static_cast<std::uint8_t>(buf[off]) |
         (static_cast<std::uint8_t>(buf[off + 1]) << 8) |
         (static_cast<std::uint8_t>(buf[off + 2]) << 16) |
         (static_cast<std::uint32_t>(static_cast<std::uint8_t>(buf[off + 3]))
          << 24);
}

TEST(Pcap, GlobalHeaderWellFormed) {
  std::ostringstream os;
  export_pcap(small_trace(), os);
  const auto buf = os.str();
  ASSERT_GE(buf.size(), 24u);
  EXPECT_EQ(rd32le(buf, 0), 0xa1b2c3d4u);  // magic, little-endian, usec
  EXPECT_EQ(rd32le(buf, 20), 101u);        // LINKTYPE_RAW
}

TEST(Pcap, EveryRecordWithBytesBecomesOnePacket) {
  const auto log = small_trace();
  std::ostringstream os;
  const auto written = export_pcap(log, os);
  EXPECT_EQ(written, log.size());  // default scenario keeps bytes
}

TEST(Pcap, PacketFramingConsistentWithLengths) {
  const auto log = small_trace();
  std::ostringstream os;
  const auto written = export_pcap(log, os);
  const auto buf = os.str();
  std::size_t off = 24;
  std::size_t count = 0;
  while (off + 16 <= buf.size()) {
    const auto incl = rd32le(buf, off + 8);
    const auto orig = rd32le(buf, off + 12);
    EXPECT_EQ(incl, orig);
    off += 16 + incl;
    ++count;
  }
  EXPECT_EQ(off, buf.size());
  EXPECT_EQ(count, written);
}

TEST(Pcap, SynthesizedIpHeaderIsValid) {
  const auto log = small_trace();
  const auto& rec = log.records().front();
  const auto packet = synthesize_ip_packet(rec);
  ASSERT_GE(packet.size(), 20u);
  EXPECT_EQ(packet[0], 0x45);  // IPv4, 20-byte header
  EXPECT_EQ(packet[9], rec.protocol);
  const auto total =
      static_cast<std::size_t>(packet[2]) << 8 | packet[3];
  EXPECT_EQ(total, packet.size());
  // Header checksum verifies.
  EXPECT_TRUE(internet_checksum_ok({packet.data(), 20}));
  // Addresses round-trip.
  const std::uint32_t src = (std::uint32_t{packet[12]} << 24) |
                            (packet[13] << 16) | (packet[14] << 8) |
                            packet[15];
  EXPECT_EQ(src, rec.src.value());
  // Payload is the raw protocol bytes.
  EXPECT_TRUE(std::equal(packet.begin() + 20, packet.end(),
                         rec.bytes.begin(), rec.bytes.end()));
}

TEST(Pcap, NodeFilterRestrictsPackets) {
  const auto log = small_trace();
  std::ostringstream all_os, one_os;
  const auto all = export_pcap(log, all_os);
  PcapOptions opt;
  opt.node = 0;
  const auto one = export_pcap(log, one_os, opt);
  EXPECT_LT(one, all);
  EXPECT_EQ(one, log.node_records(0).size());
}

TEST(Pcap, DirectionFilterHalvesPointToPointTrace) {
  const auto log = small_trace();
  std::ostringstream os;
  PcapOptions opt;
  opt.direction = netsim::Direction::kSend;
  const auto sends = export_pcap(log, os, opt);
  // Every p2p send has exactly one matching receive.
  EXPECT_EQ(sends * 2, log.size());
}

TEST(Pcap, ByteLessRecordsSkipped) {
  TraceLog log;
  RecordView rec;
  rec.time = SimTime{1s};
  log.append(rec);
  std::ostringstream os;
  EXPECT_EQ(export_pcap(log, os), 0u);
  EXPECT_EQ(os.str().size(), 24u);  // header only
}

}  // namespace
}  // namespace nidkit::trace
