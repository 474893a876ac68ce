// Segment storage: compaction lifecycle, corruption, batched lookups and
// cross-process coherence.
//
// The invariant every test here leans on: whatever is wrong with a
// segment — truncated, bit-flipped, a length field that lies, a key
// stored twice — a lookup returns either the correct entry or a miss.
// Never wrong data.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cache/key.hpp"
#include "cache/store.hpp"
#include "harness/scenario.hpp"

namespace nidkit::cache {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;
using Bytes = std::vector<std::uint8_t>;

constexpr auto kSR = mining::RelationDirection::kSendToRecv;
constexpr std::size_t kHeaderBytes = 20;  // length, checksum, written_at_s

class PackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("nidkit_pack_test_" +
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

  static Entry entry_for_seed(std::uint64_t seed) {
    Entry entry;
    entry.kind = PayloadKind::kMinedRelations;
    entry.relations.add(kSR, {"LSU", "LSAck"}, SimTime{1s}, seed, seed + 1);
    entry.metrics.set("sim.events_executed", 100 + seed);
    return entry;
  }

  /// The seed entry_for_seed tagged `entry` with.
  static std::uint64_t seed_of(const Entry& entry) {
    return entry.metrics.get("sim.events_executed") - 100;
  }

  /// Stores entries for seeds [first, first + n) through one store, so
  /// they land in one segment.
  std::vector<ScenarioKey> seed_entries(std::size_t n, std::size_t first = 0) {
    Store store(dir_);
    std::vector<ScenarioKey> keys;
    for (std::size_t i = first; i < first + n; ++i) {
      keys.push_back(key_for_seed(i));
      store.put(keys.back(), entry_for_seed(i));
    }
    return keys;
  }

  /// The segment files of the cache directory, sorted.
  std::vector<fs::path> segments() const {
    std::vector<fs::path> out;
    for (const auto& e : fs::directory_iterator(dir_))
      if (e.path().extension() == kSegmentExtension) out.push_back(e.path());
    std::sort(out.begin(), out.end());
    return out;
  }

  static Bytes read_bytes(const fs::path& path) {
    std::ifstream f(path, std::ios::binary);
    return Bytes((std::istreambuf_iterator<char>(f)),
                 std::istreambuf_iterator<char>());
  }
  static void write_bytes(const fs::path& path, const Bytes& bytes) {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  }

  /// (offset, size) of every whole record in a segment's bytes.
  static std::vector<std::pair<std::size_t, std::size_t>> records_in(
      const Bytes& seg) {
    std::vector<std::pair<std::size_t, std::size_t>> out;
    for (std::size_t at = 0; at + kHeaderBytes <= seg.size();) {
      const std::size_t length = (std::size_t{seg[at]} << 24) |
                                 (std::size_t{seg[at + 1]} << 16) |
                                 (std::size_t{seg[at + 2]} << 8) |
                                 std::size_t{seg[at + 3]};
      if (kHeaderBytes + length > seg.size() - at) break;
      out.emplace_back(at, kHeaderBytes + length);
      at += kHeaderBytes + length;
    }
    return out;
  }

  std::string dir_;
};

// ---- compaction lifecycle ----

TEST_F(PackTest, CompactRoundtripsEveryEntry) {
  const auto keys = seed_entries(8);
  const auto result = compact(dir_);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->segments, 1u);
  EXPECT_EQ(result->kept, 8u);
  EXPECT_EQ(result->expired, 0u);
  EXPECT_EQ(result->skipped, 0u);

  // The segment compact read is gone; every entry is served from the
  // fresh one.
  EXPECT_EQ(segments().size(), 1u);
  Store store(dir_);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const auto entry = store.get(keys[i]);
    ASSERT_TRUE(entry.has_value()) << i;
    EXPECT_EQ(seed_of(*entry), i);
  }
  EXPECT_EQ(store.counters().pack_hits, keys.size());
}

TEST_F(PackTest, PostCompactWritesStayLooseUntilNextCompact) {
  seed_entries(3);
  ASSERT_TRUE(compact(dir_).has_value());

  Store writer(dir_);
  const auto fresh = key_for_seed(99);
  writer.put(fresh, entry_for_seed(99));

  // The new entry lands in the writer's own segment, beside the compacted
  // one; a store built afterwards reads it from there.
  EXPECT_EQ(segments().size(), 2u);
  Store reader(dir_);
  ASSERT_TRUE(reader.get(fresh).has_value());
  EXPECT_EQ(reader.counters().pack_hits, 1u);

  // The next compact folds both segments into one.
  const auto second = compact(dir_);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->segments, 2u);
  EXPECT_EQ(second->kept, 4u);
  EXPECT_EQ(segments().size(), 1u);
}

// ---- corruption: correct entry or miss, never wrong ----

TEST_F(PackTest, TruncatedPackDecodesAsMiss) {
  const auto keys = seed_entries(4);
  ASSERT_TRUE(compact(dir_).has_value());
  const auto seg = segments().at(0);
  // Mid-record: the cut record's length field now points past EOF.
  fs::resize_file(seg, fs::file_size(seg) * 5 / 8);

  Store store(dir_);
  std::size_t served = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const auto entry = store.get(keys[i]);
    if (entry) {
      ++served;  // records before the cut still decode
      EXPECT_EQ(seed_of(*entry), i);
    }
  }
  EXPECT_GT(served, 0u);
  EXPECT_LT(served, keys.size());
  EXPECT_GT(store.counters().misses, 0u);
  EXPECT_GT(store.counters().bad_entries, 0u);
}

TEST_F(PackTest, BitFlippedEntryDecodesAsMissOrCorrect) {
  const auto keys = seed_entries(4);
  ASSERT_TRUE(compact(dir_).has_value());
  const auto seg = segments().at(0);
  auto bytes = read_bytes(seg);
  bytes[bytes.size() / 3] ^= 0x40;
  write_bytes(seg, bytes);

  Store store(dir_);
  std::size_t misses = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const auto entry = store.get(keys[i]);
    if (!entry) {
      ++misses;
      continue;
    }
    // If it decoded, it must be the right entry for its key.
    EXPECT_EQ(seed_of(*entry), i) << i;
  }
  EXPECT_GE(misses, 1u);
}

// A seeded mutation pass over the segments of a small cache, with a fixed
// budget. After each mutation, every entry get_batch serves — before and
// after compact, and after prune — is the right one or a miss, every
// entry ls calls valid is one that was stored, and nothing crashes.
TEST_F(PackTest, RandomCorruptionNeverServesWrongData) {
  constexpr std::uint64_t kSeed = 20211;
  constexpr int kRandomTrials = 120;  // per random mutation kind

  // The pristine cache: seeds 0-5 compacted into one segment, seeds 6-7
  // in a writer's own segment.
  auto keys = seed_entries(6);
  ASSERT_TRUE(compact(dir_).has_value());
  for (const auto& key : seed_entries(2, 6)) keys.push_back(key);
  std::vector<std::pair<std::string, Bytes>> pristine;
  for (const auto& path : segments())
    pristine.emplace_back(path.filename().string(), read_bytes(path));
  ASSERT_EQ(pristine.size(), 2u);
  std::vector<Bytes> expected;
  for (std::size_t i = 0; i < keys.size(); ++i)
    expected.push_back(encode_entry(keys[i], entry_for_seed(i)));

  const std::string work = dir_ + "_mutant";
  std::size_t trials = 0;
  std::size_t failures = 0;
  std::string first_failure;
  auto fail = [&](const std::string& what) {
    if (failures++ == 0) first_failure = what;
  };
  // Serves every key through a fresh store; returns how many were served.
  auto serve = [&](const std::string& what) {
    Store store(work);
    const auto batch = store.get_batch(keys);
    std::size_t served = 0;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (!batch.entries[i]) continue;
      ++served;
      if (encode_entry(keys[i], *batch.entries[i]) != expected[i])
        fail(what + ": wrong entry for seed " + std::to_string(i));
    }
    return served;
  };
  const std::set<ScenarioKey> stored(keys.begin(), keys.end());
  // Lays out `files`, then checks get_batch, ls, compact and prune.
  auto check = [&](const std::string& what,
                   const std::vector<std::pair<std::string, Bytes>>& files) {
    ++trials;
    fs::remove_all(work);
    fs::create_directories(work);
    for (const auto& [name, bytes] : files)
      write_bytes(fs::path(work) / name, bytes);
    const std::size_t served = serve(what);
    for (const auto& info : Store::ls(work))
      if (info.valid && !stored.count(info.key))
        fail(what + ": ls calls a foreign key valid");
    if (!compact(work)) fail(what + ": compact failed");
    if (serve(what + " after compact") != served)
      fail(what + ": compact changed what a lookup serves");
    Store::prune(work, 365.0);
    if (serve(what + " after prune") != served)
      fail(what + ": prune changed what a lookup serves");
    return served;
  };

  ASSERT_EQ(check("pristine", pristine), keys.size());

  std::mt19937_64 rng(kSeed);
  for (int t = 0; t < 2 * kRandomTrials; ++t) {
    // Single-byte flips, then multi-byte flips of 2-16 bytes.
    auto files = pristine;
    auto& bytes = files[rng() % files.size()].second;
    const std::size_t flips = t < kRandomTrials ? 1 : 2 + rng() % 15;
    for (std::size_t f = 0; f < flips; ++f)
      bytes[rng() % bytes.size()] ^=
          static_cast<std::uint8_t>(1 + rng() % 255);
    check("flip trial " + std::to_string(t), files);
  }

  for (std::size_t s = 0; s < pristine.size(); ++s) {
    const auto records = records_in(pristine[s].second);
    // Truncation at every offset inside the first and the last record.
    // The scan stops at the cut record; the records before it still serve.
    for (const std::size_t r : {std::size_t{0}, records.size() - 1}) {
      const auto [at, size] = records[r];
      for (std::size_t cut = at; cut < at + size; ++cut) {
        auto files = pristine;
        files[s].second.resize(cut);
        const std::string what =
            "truncate segment " + std::to_string(s) + " at " +
            std::to_string(cut);
        if (check(what, files) != keys.size() - (records.size() - r))
          fail(what + ": lost a record before the cut");
      }
    }
    // Length fields set to 0, to the file size and to 2^32-1.
    for (const auto& [at, size] : records) {
      for (const std::uint64_t length :
           {std::uint64_t{0}, std::uint64_t{pristine[s].second.size()},
            std::uint64_t{0xFFFFFFFF}}) {
        auto files = pristine;
        auto& bytes = files[s].second;
        for (int b = 0; b < 4; ++b)
          bytes[at + b] = static_cast<std::uint8_t>(length >> (24 - 8 * b));
        check("length " + std::to_string(length) + " at " + std::to_string(at),
              files);
      }
    }
    // A record copied into a second segment while its first copy is
    // corrupted: the intact copy serves, and compact keeps it.
    for (const auto& [at, size] : records) {
      auto files = pristine;
      files.emplace_back(
          "copy" + std::string(kSegmentExtension),
          Bytes(pristine[s].second.begin() + at,
                pristine[s].second.begin() + at + size));
      files[s].second[at + size - 1] ^= 0x01;
      if (check("copied record at " + std::to_string(at), files) !=
          keys.size())
        fail("a key with one intact copy was not served");
    }
  }
  fs::remove_all(work);

  EXPECT_EQ(failures, 0u) << first_failure;
  EXPECT_GT(trials, 2u * kRandomTrials);
}

// ---- maintenance ----

TEST_F(PackTest, PruneDropsPackedEntriesAndRepacks) {
  seed_entries(4);
  ASSERT_TRUE(compact(dir_).has_value());
  // A far cutoff drops nothing and rewrites the survivors.
  EXPECT_EQ(Store::prune(dir_, 365.0), 0u);
  EXPECT_EQ(Store::ls(dir_).size(), 4u);
  EXPECT_EQ(segments().size(), 1u);
  // Age 0: everything is "too old" and no segment remains.
  EXPECT_EQ(Store::prune(dir_, 0.0), 4u);
  EXPECT_TRUE(segments().empty());
  EXPECT_TRUE(Store::ls(dir_).empty());
}

TEST_F(PackTest, ClearRemovesPacksAndLooseAlike) {
  seed_entries(3);
  ASSERT_TRUE(compact(dir_).has_value());
  seed_entries(1, 50);  // one more, in its own segment
  EXPECT_EQ(Store::clear(dir_), 4u);
  EXPECT_TRUE(segments().empty());
  EXPECT_TRUE(Store::ls(dir_).empty());
}

TEST_F(PackTest, LsMergesPackedAndLooseWithoutDuplicates) {
  const auto keys = seed_entries(3);
  ASSERT_TRUE(compact(dir_).has_value());
  {
    Store store(dir_);
    store.put(key_for_seed(40), entry_for_seed(40));
    // The same key stored again in a second segment.
    store.put(keys[0], entry_for_seed(0));
  }
  const auto infos = Store::ls(dir_);
  EXPECT_EQ(infos.size(), 4u);  // keys[0] listed once
  for (const auto& info : infos) EXPECT_TRUE(info.valid);
  // Compact keeps one copy of it.
  const auto result = compact(dir_);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->kept, 4u);
}

// ---- batched lookups ----

TEST_F(PackTest, GetBatchPartitionsAndPreservesOrder) {
  const auto keys = seed_entries(5);
  ASSERT_TRUE(compact(dir_).has_value());
  Store store(dir_);
  store.put(key_for_seed(80), entry_for_seed(80));  // served from memory

  std::vector<ScenarioKey> batch_keys = {keys[3], key_for_seed(80),
                                         key_for_seed(81), keys[1]};
  const auto batch = store.get_batch(batch_keys);
  ASSERT_EQ(batch.entries.size(), 4u);
  ASSERT_TRUE(batch.entries[0].has_value());
  EXPECT_EQ(seed_of(*batch.entries[0]), 3u);  // keys[3]
  ASSERT_TRUE(batch.entries[1].has_value());
  EXPECT_EQ(seed_of(*batch.entries[1]), 80u);
  EXPECT_FALSE(batch.entries[2].has_value());  // never stored
  ASSERT_TRUE(batch.entries[3].has_value());
  EXPECT_EQ(seed_of(*batch.entries[3]), 1u);  // keys[1]

  EXPECT_EQ(batch.pack_hits, 2u);
  EXPECT_EQ(batch.misses, 1u);
  EXPECT_EQ(store.counters().hits, 3u);
}

TEST_F(PackTest, GetBatchAgreesWithSingleGets) {
  const auto keys = seed_entries(6);
  ASSERT_TRUE(compact(dir_).has_value());

  Store batch_store(dir_);
  std::vector<ScenarioKey> shuffled = keys;
  std::reverse(shuffled.begin(), shuffled.end());
  const auto batch = batch_store.get_batch(shuffled);

  Store single_store(dir_);
  for (std::size_t i = 0; i < shuffled.size(); ++i) {
    const auto single = single_store.get(shuffled[i]);
    ASSERT_TRUE(single.has_value());
    ASSERT_TRUE(batch.entries[i].has_value());
    EXPECT_EQ(encode_entry(shuffled[i], *single),
              encode_entry(shuffled[i], *batch.entries[i]));
  }
  EXPECT_EQ(batch.pack_hits, keys.size());
  EXPECT_EQ(batch.misses, 0u);
}

// ---- cross-process coherence ----

TEST_F(PackTest, ReaderSurvivesConcurrentCompact) {
  const auto keys = seed_entries(4);
  Store reader(dir_);
  ASSERT_TRUE(reader.get(keys[0]).has_value());

  // Another "process" compacts the directory out from under the reader
  // and unlinks the segment the reader mapped.
  ASSERT_TRUE(compact(dir_).has_value());

  // The reader's mapping stays valid: it still serves every entry.
  for (const auto& key : keys) EXPECT_TRUE(reader.get(key).has_value());
  EXPECT_EQ(reader.counters().misses, 0u);
  EXPECT_EQ(reader.counters().pack_hits, keys.size() + 1);
}

TEST_F(PackTest, TwoProcessReaderWriterSmoke) {
  const auto keys = seed_entries(4);
  ASSERT_TRUE(compact(dir_).has_value());

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: fresh stores read while the parent writes and compacts.
    std::size_t wrong = 0;
    for (int lap = 0; lap < 50; ++lap) {
      Store store(dir_);
      for (std::size_t i = 0; i < keys.size(); ++i) {
        const auto entry = store.get(keys[i]);
        if (entry && seed_of(*entry) != i) ++wrong;
      }
    }
    _exit(wrong == 0 ? 0 : 1);
  }

  // Parent: interleave appends and compactions.
  for (int lap = 0; lap < 10; ++lap) {
    Store store(dir_);
    store.put(key_for_seed(100 + lap), entry_for_seed(100 + lap));
    ASSERT_TRUE(compact(dir_).has_value());
  }

  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0) << "child observed wrong data";

  // Everything the parent wrote is compacted and servable.
  Store store(dir_);
  for (int lap = 0; lap < 10; ++lap)
    EXPECT_TRUE(store.get(key_for_seed(100 + lap)).has_value()) << lap;
  EXPECT_EQ(segments().size(), 1u);
}

}  // namespace
}  // namespace nidkit::cache
