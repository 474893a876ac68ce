#include "cache/store.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <numeric>
#include <system_error>

#include "mining/relation_codec.hpp"
#include "util/bytes.hpp"

namespace nidkit::cache {

namespace fs = std::filesystem;

namespace {

constexpr std::uint32_t kMagic = 0x4E494443;  // "NIDC"
/// length + checksum + written_at_s.
constexpr std::size_t kHeaderBytes = 4 + 8 + 8;
/// Magic + version + key echo: the least an entry holds and still names
/// its key.
constexpr std::size_t kMinEntryBytes = 4 + 4 + 16;

void encode_sweep(const SweepStats& s, ByteWriter& out) {
  out.u64(s.mined_pairs);
  out.u64(s.truth_pairs);
  out.u64(s.correct_pairs);
  out.u64(s.mined_cells);
  out.u64(s.unobserved_cells);
  out.u64(s.spurious_cells);
}

SweepStats decode_sweep(ByteReader& in) {
  SweepStats s;
  s.mined_pairs = in.u64();
  s.truth_pairs = in.u64();
  s.correct_pairs = in.u64();
  s.mined_cells = in.u64();
  s.unobserved_cells = in.u64();
  s.spurious_cells = in.u64();
  return s;
}

void encode_metrics(const obs::ScenarioMetrics& m, ByteWriter& out) {
  const auto& entries = m.entries();
  out.u32(static_cast<std::uint32_t>(entries.size()));
  for (const auto& [name, value] : entries) {
    out.u16(static_cast<std::uint16_t>(name.size()));
    out.bytes(std::span(reinterpret_cast<const std::uint8_t*>(name.data()),
                        name.size()));
    out.u64(value);
  }
}

std::optional<obs::ScenarioMetrics> decode_metrics(ByteReader& in) {
  obs::ScenarioMetrics m;
  const std::uint32_t count = in.u32();
  if (!in.ok()) return std::nullopt;
  // Entries were written in sorted order, so decoding is a reserve plus
  // straight appends; the count is sanity-checked against the remaining
  // bytes so a corrupted field can't trigger a huge allocation.
  if (count <= in.remaining() / 10) m.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint16_t len = in.u16();
    const auto name_bytes = in.bytes(len);
    if (!in.ok()) return std::nullopt;
    std::string name(reinterpret_cast<const char*>(name_bytes.data()),
                     name_bytes.size());
    const std::uint64_t value = in.u64();
    if (!in.ok()) return std::nullopt;
    m.append_sorted(std::move(name), value);
  }
  return m;
}

void encode_coverage(const cov::CoverageVector& cv, ByteWriter& out) {
  out.u32(static_cast<std::uint32_t>(cv.ids().size()));
  for (const cov::FeatureId id : cv.ids()) out.u32(id);
}

std::optional<cov::CoverageVector> decode_coverage(ByteReader& in) {
  cov::CoverageVector cv;
  const std::uint32_t count = in.u32();
  if (!in.ok()) return std::nullopt;
  // Count sanity-checked against remaining bytes before reserving.
  if (count > in.remaining() / 4) return std::nullopt;
  cv.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) cv.add(in.u32());
  if (!in.ok()) return std::nullopt;
  cv.finalize();  // canonical form regardless of what was on disk
  return cv;
}

/// Header = magic + version + key echo + payload kind. Returns the kind,
/// or nullopt if the framing is malformed or names a different key.
std::optional<PayloadKind> decode_header(ByteReader& in,
                                         const ScenarioKey& expected) {
  if (in.u32() != kMagic) return std::nullopt;
  if (in.u32() != kCacheFormatVersion) return std::nullopt;
  const auto echoed = in.bytes(expected.digest.bytes.size());
  if (!in.ok() ||
      !std::equal(echoed.begin(), echoed.end(),
                  expected.digest.bytes.begin()))
    return std::nullopt;
  const std::uint8_t kind = in.u8();
  if (!in.ok()) return std::nullopt;
  if (kind != static_cast<std::uint8_t>(PayloadKind::kMinedRelations) &&
      kind != static_cast<std::uint8_t>(PayloadKind::kSweepStats))
    return std::nullopt;
  return static_cast<PayloadKind>(kind);
}

std::int64_t now_epoch_seconds() {
  return std::chrono::duration_cast<std::chrono::seconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

/// A segment or temp file name no other writer can pick: this process's
/// id, the clock and a per-process serial.
std::string unique_stem() {
  static std::atomic<std::uint64_t> serial{0};
  const auto ns = std::chrono::system_clock::now().time_since_epoch().count();
  return std::to_string(::getpid()) + "-" + std::to_string(ns) + "-" +
         std::to_string(serial.fetch_add(1));
}

}  // namespace

std::vector<std::uint8_t> encode_entry(const ScenarioKey& key,
                                       const Entry& entry) {
  ByteWriter out(256);
  out.u32(kMagic);
  out.u32(kCacheFormatVersion);
  out.bytes(key.digest.bytes);
  out.u8(static_cast<std::uint8_t>(entry.kind));
  encode_metrics(entry.metrics, out);
  encode_coverage(entry.coverage, out);
  if (entry.kind == PayloadKind::kMinedRelations)
    mining::encode_relations(entry.relations, out);
  else
    encode_sweep(entry.sweep, out);
  return out.take();
}

std::optional<Entry> decode_entry(const ScenarioKey& expected,
                                  std::span<const std::uint8_t> bytes) {
  ByteReader in(bytes);
  const auto kind = decode_header(in, expected);
  if (!kind) return std::nullopt;
  Entry entry;
  entry.kind = *kind;
  auto metrics = decode_metrics(in);
  if (!metrics) return std::nullopt;
  entry.metrics = std::move(*metrics);
  auto coverage = decode_coverage(in);
  if (!coverage) return std::nullopt;
  entry.coverage = std::move(*coverage);
  if (entry.kind == PayloadKind::kMinedRelations) {
    auto relations = mining::decode_relations(in);
    if (!relations) return std::nullopt;
    entry.relations = std::move(*relations);
  } else {
    entry.sweep = decode_sweep(in);
  }
  if (!in.ok() || in.remaining() != 0) return std::nullopt;
  return entry;
}

std::uint32_t peek_entry_format(std::span<const std::uint8_t> bytes) {
  ByteReader in(bytes);
  if (in.u32() != kMagic) return 0;
  const std::uint32_t version = in.u32();
  return in.ok() ? version : 0;
}

std::uint64_t pack_checksum(std::span<const std::uint8_t> bytes) {
  // Four independent accumulators keep the multiply latency off the
  // critical path; the lane position picks the accumulator, so reordering
  // words changes the digest too.
  constexpr std::uint64_t kPrime = 0x100000001b3ull;  // FNV-1a 64-bit prime
  std::uint64_t h0 = 0xcbf29ce484222325ull ^ (bytes.size() * kPrime);
  std::uint64_t h1 = 0x9e3779b97f4a7c15ull;
  std::uint64_t h2 = 0xc2b2ae3d27d4eb4full;
  std::uint64_t h3 = 0x165667b19e3779f9ull;
  std::size_t i = 0;
  for (; i + 32 <= bytes.size(); i += 32) {
    std::uint64_t k0, k1, k2, k3;
    std::memcpy(&k0, bytes.data() + i, 8);
    std::memcpy(&k1, bytes.data() + i + 8, 8);
    std::memcpy(&k2, bytes.data() + i + 16, 8);
    std::memcpy(&k3, bytes.data() + i + 24, 8);
    h0 = (h0 ^ k0) * kPrime;
    h1 = (h1 ^ k1) * kPrime;
    h2 = (h2 ^ k2) * kPrime;
    h3 = (h3 ^ k3) * kPrime;
  }
  for (; i + 8 <= bytes.size(); i += 8) {
    std::uint64_t k;
    std::memcpy(&k, bytes.data() + i, 8);
    h0 = (h0 ^ k) * kPrime;
  }
  if (i < bytes.size()) {
    std::uint64_t tail = 0;
    for (std::size_t j = 0; i + j < bytes.size(); ++j)
      tail |= static_cast<std::uint64_t>(bytes[i + j]) << (8 * j);
    h0 = (h0 ^ tail) * kPrime;
  }
  std::uint64_t h = (h0 ^ h1) * kPrime;
  h = (h ^ h2) * kPrime;
  h = (h ^ h3) * kPrime;
  h ^= h >> 32;
  return h;
}

std::vector<std::uint8_t> encode_record(std::span<const std::uint8_t> entry,
                                        std::int64_t written_at_s) {
  ByteWriter out(kHeaderBytes + entry.size());
  out.u32(static_cast<std::uint32_t>(entry.size()));
  out.u64(0);  // checksum, filled in below
  out.u64(static_cast<std::uint64_t>(written_at_s));
  out.bytes(entry);
  auto record = out.take();
  const auto sum = pack_checksum(std::span(record).subspan(12));
  for (int i = 0; i < 8; ++i)
    record[4 + i] = static_cast<std::uint8_t>(sum >> (56 - 8 * i));
  return record;
}

Store::Store(std::string dir) : dir_(std::move(dir)) {
  std::vector<std::string> paths;
  std::error_code ec;
  for (fs::directory_iterator it(dir_, ec), end; !ec && it != end;
       it.increment(ec))
    if (it->path().extension() == kSegmentExtension)
      paths.push_back(it->path().string());
  std::sort(paths.begin(), paths.end());
  for (auto& path : paths) {
    Mapping m{std::move(path), {}};
    const int fd = ::open(m.path.c_str(), O_RDONLY | O_CLOEXEC);
    struct stat st{};
    if (fd >= 0 && ::fstat(fd, &st) == 0 && st.st_size > 0) {
      const auto size = static_cast<std::size_t>(st.st_size);
      void* addr = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
      if (addr != MAP_FAILED)
        m.bytes = {static_cast<const std::uint8_t*>(addr), size};
    }
    if (fd >= 0) ::close(fd);
    // Scan the record headers; stop at the first record that cannot be
    // whole (a torn tail, or a length field no longer telling the truth).
    const auto segment = static_cast<std::uint32_t>(segments_.size());
    for (std::size_t at = 0; at < m.bytes.size();) {
      ByteReader in(m.bytes.subspan(at));
      const std::uint32_t length = in.u32();
      in.skip(16);  // checksum, written_at_s
      if (!in.ok() || length < kMinEntryBytes || length > in.remaining()) {
        ++counters_.bad_entries;
        break;
      }
      Record rec{{}, segment, length, at};
      const auto echo = m.bytes.subspan(at + kHeaderBytes + 8, 16);
      std::copy(echo.begin(), echo.end(), rec.key.digest.bytes.begin());
      index_.push_back(rec);
      at += kHeaderBytes + length;
    }
    segments_.push_back(std::move(m));
  }
  std::sort(index_.begin(), index_.end(), [](const Record& a, const Record& b) {
    if (a.key != b.key) return a.key < b.key;
    return a.segment != b.segment ? a.segment < b.segment : a.offset < b.offset;
  });
}

Store::~Store() {
  for (const auto& m : segments_)
    if (!m.bytes.empty())
      ::munmap(const_cast<std::uint8_t*>(m.bytes.data()), m.bytes.size());
  if (fd_ >= 0) ::close(fd_);
}

std::span<const std::uint8_t> Store::record_bytes(const Record& rec) const {
  return segments_[rec.segment].bytes.subspan(rec.offset,
                                              kHeaderBytes + rec.length);
}

double Store::age_seconds(const Record& rec, std::int64_t now_s) const {
  ByteReader in(record_bytes(rec).subspan(12, 8));
  const auto written_at = static_cast<std::int64_t>(in.u64());
  // In doubles: a written_at_s far from now must not overflow.
  return std::max(0.0, static_cast<double>(now_s) -
                           static_cast<double>(written_at));
}

std::optional<Entry> Store::decode(const Record& rec) {
  const auto record = record_bytes(rec);
  ByteReader in(record.subspan(4, 8));
  auto entry = pack_checksum(record.subspan(12)) == in.u64()
                   ? decode_entry(rec.key, record.subspan(kHeaderBytes))
                   : std::nullopt;
  if (!entry) ++counters_.bad_entries;
  return entry;
}

std::optional<Entry> Store::lookup_locked(const ScenarioKey& key,
                                          IndexIt& lo) {
  lo = std::lower_bound(
      lo, index_.cend(), key,
      [](const Record& rec, const ScenarioKey& k) { return rec.key < k; });
  std::optional<Entry> entry;
  // A key stored twice is served from its first intact copy.
  for (auto it = lo; !entry && it != index_.cend() && it->key == key; ++it)
    entry = decode(*it);
  if (entry)
    ++counters_.pack_hits;
  else if (const auto own = own_.find(key); own != own_.end())
    entry = decode_entry(key, own->second);
  ++(entry ? counters_.hits : counters_.misses);
  return entry;
}

std::optional<Entry> Store::get(const ScenarioKey& key) {
  std::lock_guard lock(mutex_);
  auto lo = index_.cbegin();
  return lookup_locked(key, lo);
}

Store::BatchResult Store::get_batch(std::span<const ScenarioKey> keys) {
  BatchResult out;
  out.entries.resize(keys.size());
  // Key-sorted visit order walks the key-sorted index monotonically: one
  // forward pass, each binary search bounded below by the previous one.
  std::vector<std::uint32_t> order(keys.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t a, std::uint32_t b) { return keys[a] < keys[b]; });

  std::lock_guard lock(mutex_);
  const StoreCounters before = counters_;
  auto lo = index_.cbegin();
  for (const auto i : order) out.entries[i] = lookup_locked(keys[i], lo);
  out.pack_hits = counters_.pack_hits - before.pack_hits;
  out.misses = counters_.misses - before.misses;
  return out;
}

void Store::put(const ScenarioKey& key, const Entry& entry) {
  auto bytes = encode_entry(key, entry);
  const auto record = encode_record(bytes, now_epoch_seconds());
  std::lock_guard lock(mutex_);
  ++counters_.stores;
  own_.insert_or_assign(key, std::move(bytes));
  if (fd_ == -1) {
    std::error_code ec;
    fs::create_directories(dir_, ec);
    const auto path = fs::path(dir_) / (unique_stem() + kSegmentExtension);
    fd_ = ::open(path.c_str(),
                 O_WRONLY | O_CREAT | O_EXCL | O_APPEND | O_CLOEXEC, 0644);
    if (fd_ < 0) fd_ = -2;
  }
  if (fd_ < 0) return;
  // One write() per record: appends never interleave. A short write leaves
  // a torn tail, so this segment takes no further records.
  const auto n = ::write(fd_, record.data(), record.size());
  if (n != static_cast<ssize_t>(record.size())) {
    ::close(fd_);
    fd_ = -2;
  }
}

StoreCounters Store::counters() const {
  std::lock_guard lock(mutex_);
  return counters_;
}

std::vector<Store::Copies> Store::by_key() {
  std::vector<Copies> out;
  for (auto it = index_.begin(); it != index_.end();) {
    Copies copies{&*it, nullptr};
    for (; it != index_.end() && it->key == copies.first->key; ++it)
      if (copies.intact == nullptr && decode(*it)) copies.intact = &*it;
    out.push_back(copies);
  }
  return out;
}

std::vector<Store::FileInfo> Store::ls(const std::string& dir) {
  Store store(dir);
  const auto now_s = now_epoch_seconds();
  std::vector<FileInfo> out;
  for (const auto& [first, intact] : store.by_key()) {
    const Record& rec = intact ? *intact : *first;
    const auto entry = store.record_bytes(rec).subspan(kHeaderBytes);
    FileInfo info{rec.key};
    info.valid = intact != nullptr;
    // An intact entry's kind byte follows its key echo.
    if (info.valid) info.kind = static_cast<PayloadKind>(entry[kMinEntryBytes]);
    info.format = peek_entry_format(entry);
    info.bytes = rec.length;
    info.age_seconds = store.age_seconds(rec, now_s);
    out.push_back(info);
  }
  return out;
}

std::optional<CompactResult> compact(const std::string& dir, double max_age_s) {
  CompactResult result;
  Store source(dir);
  result.segments = source.segments_.size();
  result.skipped = source.counters_.bad_entries;  // torn tails
  const auto now_s = now_epoch_seconds();

  // One intact copy per key, in key order, so a warm batch walks the
  // fresh segment front to back.
  std::vector<std::span<const std::uint8_t>> keep;
  for (const auto& [first, intact] : source.by_key()) {
    if (intact == nullptr) {
      const auto format = peek_entry_format(
          source.record_bytes(*first).subspan(kHeaderBytes));
      ++(format != 0 && format != kCacheFormatVersion ? result.skipped_version
                                                      : result.skipped);
    } else if (source.age_seconds(*intact, now_s) >= max_age_s) {
      // Seconds floor the true age, so >= drops everything under a 0 cutoff.
      ++result.expired;
    } else {
      keep.push_back(source.record_bytes(*intact));
      result.bytes += keep.back().size();
    }
  }
  result.kept = keep.size();

  if (!keep.empty()) {
    const auto stem = (fs::path(dir) / unique_stem()).string();
    const auto temp = stem + ".tmp";
    const int fd = ::open(temp.c_str(),
                          O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
    if (fd < 0) return std::nullopt;
    // A short write fails the pass; the segments it read stay in place.
    bool ok = true;
    for (const auto bytes : keep)
      ok = ok && ::write(fd, bytes.data(), bytes.size()) ==
                     static_cast<ssize_t>(bytes.size());
    ok = ok && ::fsync(fd) == 0;
    ::close(fd);
    const auto target = stem + kSegmentExtension;
    if (!ok || ::rename(temp.c_str(), target.c_str()) != 0) {
      ::unlink(temp.c_str());
      return std::nullopt;
    }
  }
  // The survivors are durably in place: retire what they were copied from.
  for (const auto& m : source.segments_) ::unlink(m.path.c_str());
  return result;
}

std::size_t Store::prune(const std::string& dir, double max_age_days) {
  const auto result = compact(dir, max_age_days * 24.0 * 3600.0);
  if (!result) return 0;
  return result->expired + result->skipped + result->skipped_version;
}

std::size_t Store::clear(const std::string& dir) {
  const std::size_t removed = Store(dir).by_key().size();
  // Segments and any temp file a crashed compact left behind.
  std::vector<fs::path> doomed;
  std::error_code ec;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    const auto ext = it->path().extension();
    if (ext == kSegmentExtension || ext == ".tmp") doomed.push_back(it->path());
  }
  for (const auto& path : doomed) fs::remove(path, ec);
  return removed;
}

}  // namespace nidkit::cache
