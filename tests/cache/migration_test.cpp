// Format-version migration: segment records carry entries of
// kCacheFormatVersion 5. Entries from an older format decode as a miss
// (the migration path is "re-simulate and re-store"), compact reports
// them as version skew instead of corruption, and current-format entries
// round-trip their coverage bit-for-bit.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>

#include "cache/key.hpp"
#include "cache/store.hpp"
#include "harness/scenario.hpp"

namespace nidkit::cache {
namespace {

namespace fs = std::filesystem;

class MigrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("nidkit_migration_test_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  static ScenarioKey key_for_seed(std::uint64_t seed) {
    harness::Scenario s;
    s.seed = seed;
    return scenario_key(s, {}, "type", PayloadKind::kMinedRelations);
  }

  static Entry covered_entry() {
    Entry entry;
    entry.kind = PayloadKind::kMinedRelations;
    entry.metrics.set("sim.events_executed", 7);
    entry.coverage.add(cov::fsm_edge(cov::Proto::kOspf, 0, 1));
    entry.coverage.add(cov::packet_pair(cov::Proto::kOspf, 1, 1));
    entry.coverage.add(cov::chaos(cov::ChaosClass::kDelay));
    entry.coverage.finalize();
    return entry;
  }

  /// Re-frames `bytes` as an older format version. The version field is
  /// the second big-endian u32 (after the magic).
  static std::vector<std::uint8_t> with_version(std::vector<std::uint8_t> b,
                                                std::uint32_t version) {
    b[4] = static_cast<std::uint8_t>(version >> 24);
    b[5] = static_cast<std::uint8_t>(version >> 16);
    b[6] = static_cast<std::uint8_t>(version >> 8);
    b[7] = static_cast<std::uint8_t>(version);
    return b;
  }

  /// Writes `entries` (encoded entry bytes) as the records of one new
  /// segment.
  void write_segment(const std::vector<std::vector<std::uint8_t>>& entries) {
    fs::create_directories(dir_);
    std::ofstream f(
        fs::path(dir_) / ("crafted" + std::string(kSegmentExtension)),
        std::ios::binary);
    const auto now = std::chrono::duration_cast<std::chrono::seconds>(
        std::chrono::system_clock::now().time_since_epoch());
    for (const auto& entry : entries) {
      const auto record = encode_record(entry, now.count());
      f.write(reinterpret_cast<const char*>(record.data()),
              static_cast<std::streamsize>(record.size()));
    }
  }

  std::string dir_;
};

TEST_F(MigrationTest, FormatVersionIsFive) {
  // Version 5 dropped the per-entry run summary, which nothing read.
  // Bump this (and add a skew case below) the next time the entry layout
  // changes.
  EXPECT_EQ(kCacheFormatVersion, 5u);
}

TEST_F(MigrationTest, CoverageRoundTripsThroughCodec) {
  const auto key = key_for_seed(1);
  const auto entry = covered_entry();
  const auto bytes = encode_entry(key, entry);
  const auto back = decode_entry(key, bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->coverage, entry.coverage);
  EXPECT_EQ(back->coverage.size(), 3u);
  EXPECT_EQ(peek_entry_format(bytes), kCacheFormatVersion);
}

TEST_F(MigrationTest, CoverageRoundTripsThroughTheStore) {
  const auto key = key_for_seed(2);
  {
    Store store(dir_);
    store.put(key, covered_entry());
  }
  Store fresh(dir_);  // read from the segment, not from what it put
  const auto back = fresh.get(key);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->coverage, covered_entry().coverage);
}

TEST_F(MigrationTest, OlderFormatEntryDecodesAsAMiss) {
  const auto key = key_for_seed(3);
  const auto bytes = encode_entry(key, covered_entry());
  for (const std::uint32_t version : {3u, 4u}) {
    const auto skewed = with_version(bytes, version);
    EXPECT_EQ(peek_entry_format(skewed), version);
    EXPECT_FALSE(decode_entry(key, skewed).has_value());
  }
  const auto old = with_version(bytes, 3);

  // Through the store: a version-3 record in a segment is a miss, not an
  // error.
  write_segment({old});
  Store fresh(dir_);
  EXPECT_FALSE(fresh.get(key).has_value());
  EXPECT_EQ(fresh.counters().bad_entries, 1u);
}

TEST_F(MigrationTest, LsReportsEachEntrysFormat) {
  const auto key = key_for_seed(4);
  {
    Store store(dir_);
    store.put(key, covered_entry());
  }
  const auto entries = Store::ls(dir_);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].format, kCacheFormatVersion);

  // The same key as a version-3 record only: ls still lists it, with the
  // skewed format.
  Store::clear(dir_);
  write_segment({with_version(encode_entry(key, covered_entry()), 3)});
  const auto after = Store::ls(dir_);
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0].key, key);
  EXPECT_EQ(after[0].format, 3u);
  EXPECT_FALSE(after[0].valid);
}

TEST_F(MigrationTest, CompactCountsVersionSkewSeparately) {
  const auto keep = key_for_seed(5);
  const auto skewed = key_for_seed(6);
  const auto junk = key_for_seed(7);
  {
    Store store(dir_);
    store.put(keep, covered_entry());
  }
  auto corrupt = encode_entry(junk, covered_entry());
  corrupt[0] ^= 0xFF;  // the magic: corrupt framing, not version skew
  write_segment(
      {with_version(encode_entry(skewed, covered_entry()), 3), corrupt});

  const auto result = compact(dir_);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->kept, 1u);
  EXPECT_EQ(result->skipped, 1u);          // corrupt framing
  EXPECT_EQ(result->skipped_version, 1u);  // intact framing, old format

  // The compacted current-format entry still replays its coverage.
  Store fresh(dir_);
  const auto back = fresh.get(keep);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->coverage, covered_entry().coverage);
}

}  // namespace
}  // namespace nidkit::cache
