#include "cache/store.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "cache/key.hpp"
#include "harness/scenario.hpp"

namespace nidkit::cache {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

constexpr auto kSR = mining::RelationDirection::kSendToRecv;

class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("nidkit_store_test_" +
             std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
             "_" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name()))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  static ScenarioKey key_for_seed(std::uint64_t seed) {
    harness::Scenario s;
    s.seed = seed;
    return scenario_key(s, {}, "type", PayloadKind::kMinedRelations);
  }

  static Entry sample_entry() {
    Entry entry;
    entry.kind = PayloadKind::kMinedRelations;
    entry.relations.add(kSR, {"LSU", "LSAck"}, SimTime{1s}, 5, 6);
    entry.metrics.set("sim.events_executed", 321);
    entry.metrics.set("ospf.tx_hello", 12);
    return entry;
  }

  /// Flips the last byte of the directory's only segment: the payload of
  /// its last record.
  void flip_last_byte() {
    std::vector<fs::path> segments;
    for (const auto& e : fs::directory_iterator(dir_))
      segments.push_back(e.path());
    ASSERT_EQ(segments.size(), 1u);
    std::fstream f(segments[0],
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(-1, std::ios::end);
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(-1, std::ios::end);
    byte = static_cast<char>(byte ^ 0x5A);
    f.write(&byte, 1);
  }

  std::string dir_;
};

TEST_F(StoreTest, MissThenPutThenMemoryHit) {
  Store store(dir_);
  const auto key = key_for_seed(1);
  EXPECT_FALSE(store.get(key).has_value());
  EXPECT_EQ(store.counters().misses, 1u);

  store.put(key, sample_entry());
  const auto back = store.get(key);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->metrics, sample_entry().metrics);
  EXPECT_TRUE(back->relations.has(kSR, "LSU", "LSAck"));
  // Served from the bytes this store put, not from its (older) index.
  EXPECT_EQ(store.counters().hits, 1u);
  EXPECT_EQ(store.counters().pack_hits, 0u);
  EXPECT_EQ(store.counters().stores, 1u);
}

TEST_F(StoreTest, PersistsAcrossStoreInstances) {
  const auto key = key_for_seed(2);
  {
    Store store(dir_);
    store.put(key, sample_entry());
  }
  Store fresh(dir_);
  const auto back = fresh.get(key);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(fresh.counters().pack_hits, 1u);
  // The scenario's obs delta rides along so cache hits can replay it.
  EXPECT_EQ(back->metrics, sample_entry().metrics);
  EXPECT_EQ(back->metrics.get("sim.events_executed"), 321u);
  const auto* stats = back->relations.find(kSR, {"LSU", "LSAck"});
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->first_seen, SimTime{1s});
  EXPECT_EQ(stats->example_stimulus, 5u);

  // Every lookup decodes from the segment again; nothing is promoted.
  EXPECT_TRUE(fresh.get(key).has_value());
  EXPECT_EQ(fresh.counters().pack_hits, 2u);
  // One segment, no temp droppings left behind.
  std::size_t files = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir_)) {
    EXPECT_EQ(e.path().extension(), kSegmentExtension) << e.path();
    ++files;
  }
  EXPECT_EQ(files, 1u);
}

TEST_F(StoreTest, SweepStatsRoundTrip) {
  Entry entry;
  entry.kind = PayloadKind::kSweepStats;
  entry.sweep = {10, 11, 9, 20, 2, 1};
  harness::Scenario s;
  const auto key = scenario_key(s, {}, "type", PayloadKind::kSweepStats);
  {
    Store store(dir_);
    store.put(key, entry);
  }
  Store fresh(dir_);
  const auto back = fresh.get(key);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->kind, PayloadKind::kSweepStats);
  EXPECT_EQ(back->sweep, entry.sweep);
}

TEST_F(StoreTest, CorruptFileIsAMissNotAnError) {
  const auto key = key_for_seed(4);
  {
    Store store(dir_);
    store.put(key, sample_entry());
  }
  flip_last_byte();

  Store fresh(dir_);
  EXPECT_FALSE(fresh.get(key).has_value());
  EXPECT_EQ(fresh.counters().bad_entries, 1u);
  EXPECT_EQ(fresh.counters().misses, 1u);
}

TEST_F(StoreTest, EncodeDecodeEntryRejectsTampering) {
  const auto key = key_for_seed(7);
  auto bytes = encode_entry(key, sample_entry());
  ASSERT_TRUE(decode_entry(key, bytes).has_value());

  auto truncated = bytes;
  truncated.pop_back();
  EXPECT_FALSE(decode_entry(key, truncated).has_value());

  auto trailing = bytes;
  trailing.push_back(0);
  EXPECT_FALSE(decode_entry(key, trailing).has_value());

  auto flipped = bytes;
  flipped[0] ^= 0xFF;  // magic
  EXPECT_FALSE(decode_entry(key, flipped).has_value());

  // A valid entry never satisfies another key: the key echo catches it.
  EXPECT_FALSE(decode_entry(key_for_seed(6), bytes).has_value());
}

TEST_F(StoreTest, LsListsEntriesSortedByKey) {
  Store store(dir_);
  const auto key_a = key_for_seed(8);
  const auto key_b = key_for_seed(9);
  store.put(key_a, sample_entry());
  store.put(key_b, sample_entry());

  const auto entries = Store::ls(dir_);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_LT(entries[0].key.hex(), entries[1].key.hex());
  for (const auto& e : entries) {
    EXPECT_TRUE(e.valid);
    EXPECT_EQ(e.kind, PayloadKind::kMinedRelations);
    EXPECT_GT(e.bytes, 0u);
    EXPECT_GE(e.age_seconds, 0.0);
  }
}

TEST_F(StoreTest, PruneRemovesOldAndInvalidEntries) {
  {
    Store store(dir_);
    store.put(key_for_seed(10), sample_entry());
    store.put(key_for_seed(11), sample_entry());
  }
  // Corrupt the last record (seed 11): prune removes it regardless of age.
  flip_last_byte();

  EXPECT_EQ(Store::prune(dir_, 365.0), 1u);  // only the invalid one
  EXPECT_EQ(Store::ls(dir_).size(), 1u);
  EXPECT_EQ(Store::prune(dir_, 0.0), 1u);  // everything is "old" now
  EXPECT_TRUE(Store::ls(dir_).empty());
}

TEST_F(StoreTest, ClearRemovesEverything) {
  {
    Store store(dir_);
    store.put(key_for_seed(12), sample_entry());
    store.put(key_for_seed(13), sample_entry());
  }
  ASSERT_TRUE(compact(dir_).has_value());
  {
    Store store(dir_);
    store.put(key_for_seed(14), sample_entry());
  }
  EXPECT_EQ(Store::clear(dir_), 3u);
  EXPECT_TRUE(Store::ls(dir_).empty());
  // No stray files: every segment is gone.
  EXPECT_TRUE(!fs::exists(dir_) || fs::is_empty(dir_));
}

TEST_F(StoreTest, MaintenanceOnMissingDirIsHarmless) {
  EXPECT_TRUE(Store::ls(dir_ + "/nope").empty());
  EXPECT_EQ(Store::prune(dir_ + "/nope", 0.0), 0u);
  EXPECT_EQ(Store::clear(dir_ + "/nope"), 0u);
}

}  // namespace
}  // namespace nidkit::cache
