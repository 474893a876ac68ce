// Persistent, content-addressed scenario result store.
//
// A cache directory holds append-only segments (`*.nids`), each a run of
// big-endian records [u32 length][u64 checksum][i64 written_at_s][entry],
// where the entry is encode_entry's output (magic, format version, key
// echo, kind, payload) and the checksum is pack_checksum over written_at_s
// and the entry. No file name carries a key.
//
// Each Store appends to a segment of its own, created on its first put()
// with O_CREAT|O_EXCL|O_APPEND, one write() per record, so a torn record
// can only be the tail of its writer's segment. The constructor maps every
// segment and scans the headers into one key-sorted index, stopping a
// segment's scan at the first record that cannot be whole; a lookup checks
// the checksum, then decodes from the mapping. Records appended after the
// store was built are not seen (a miss and a recompute, never a wrong
// answer), but a store serves the entries it put itself.
//
// No segment is truncated or rewritten in place, so a reader's mapping
// stays valid: compact() and prune copy survivors into a fresh segment
// (temp file, fsync, rename), then unlink the segments they read.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cache/key.hpp"
#include "cov/cov.hpp"
#include "mining/relation.hpp"
#include "obs/obs.hpp"

namespace nidkit::cache {

inline constexpr const char* kSegmentExtension = ".nids";

/// Per-scenario accuracy counters cached for tdelay_sweep points. Integer
/// partials only — precision/recall ratios are derived after the canonical
/// accumulation, so cached and fresh sweeps agree bit-for-bit.
struct SweepStats {
  std::uint64_t mined_pairs = 0;
  std::uint64_t truth_pairs = 0;
  std::uint64_t correct_pairs = 0;
  std::uint64_t mined_cells = 0;
  std::uint64_t unobserved_cells = 0;
  std::uint64_t spurious_cells = 0;

  friend bool operator==(const SweepStats&, const SweepStats&) = default;
};

/// One cached scenario result. `relations` is meaningful for
/// kMinedRelations, `sweep` for kSweepStats; metrics and coverage are
/// always kept.
struct Entry {
  PayloadKind kind = PayloadKind::kMinedRelations;
  mining::RelationSet relations;
  SweepStats sweep;
  /// Deterministic per-scenario metric deltas, preserved so a warm cache
  /// run replays exactly the metrics the original run produced.
  obs::ScenarioMetrics metrics;
  /// Canonical behavioral-coverage feature set (sorted unique ids),
  /// replayed on hits the same way the metrics are.
  cov::CoverageVector coverage;
};

/// Serializes an entry with its framing (magic, version, key echo).
std::vector<std::uint8_t> encode_entry(const ScenarioKey& key,
                                       const Entry& entry);

/// Decodes an entry, verifying framing and that it holds `expected`.
/// Returns nullopt on any mismatch, truncation or trailing garbage.
std::optional<Entry> decode_entry(const ScenarioKey& expected,
                                  std::span<const std::uint8_t> bytes);

/// Reads just the format-version field out of an encoded entry's framing.
/// Returns the version when the magic matches, 0 otherwise (foreign or
/// corrupt bytes). Lets maintenance commands distinguish version skew
/// from corruption without a full decode.
std::uint32_t peek_entry_format(std::span<const std::uint8_t> bytes);

/// Fast content checksum: 8-byte lanes folded with multiply-xor. Every
/// step is bijective in its input word, so any single-bit flip changes
/// the digest; this is a corruption detector, not a cryptographic hash.
std::uint64_t pack_checksum(std::span<const std::uint8_t> bytes);

/// Frames encoded entry bytes as one segment record.
std::vector<std::uint8_t> encode_record(std::span<const std::uint8_t> entry,
                                        std::int64_t written_at_s);

struct StoreCounters {
  std::uint64_t hits = 0;
  /// The hits read from a segment (the rest are entries this store put).
  std::uint64_t pack_hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t stores = 0;
  /// Records that failed their checksum or decode, or could not be whole.
  std::uint64_t bad_entries = 0;
};

/// What one compact (or prune) pass did.
struct CompactResult {
  std::size_t segments = 0;         ///< segments read, then unlinked
  std::size_t kept = 0;             ///< entries copied to the fresh segment
  std::uint64_t bytes = 0;          ///< record bytes written
  std::size_t expired = 0;          ///< valid entries at or past the cutoff
  std::size_t skipped = 0;          ///< corrupt or torn, no intact copy
  std::size_t skipped_version = 0;  ///< intact framing, other version
};

class Store {
 public:
  /// Maps and indexes every segment under `dir`; `dir` need not exist
  /// yet (it is created on the first put()).
  explicit Store(std::string dir);
  ~Store();
  Store(const Store&) = delete;
  Store& operator=(const Store&) = delete;

  /// One-key get_batch.
  std::optional<Entry> get(const ScenarioKey& key);

  /// Resolves every key in one key-sorted pass over the index, then
  /// against the entries this store put. Entries come back in input order
  /// (nullopt = miss).
  struct BatchResult {
    std::vector<std::optional<Entry>> entries;  ///< input order
    std::uint64_t pack_hits = 0;  ///< the hits read from a segment
    std::uint64_t misses = 0;
  };
  BatchResult get_batch(std::span<const ScenarioKey> keys);

  /// Keeps the encoded entry for later lookups and appends it to this
  /// store's segment. Disk I/O failures are swallowed: the cache degrades
  /// to memory-only rather than failing the experiment.
  void put(const ScenarioKey& key, const Entry& entry);

  StoreCounters counters() const;

  // ---- Maintenance (nidt cache ls/prune/clear/compact) ----

  struct FileInfo {
    ScenarioKey key;
    PayloadKind kind = PayloadKind::kMinedRelations;
    bool valid = false;  ///< checksum holds and the entry decodes
    /// Entry format version (0 when the magic is unreadable).
    std::uint32_t format = 0;
    std::uint64_t bytes = 0;
    double age_seconds = 0;  ///< since the record was written
  };

  /// Every entry under `dir`, sorted by key; a key stored more than once
  /// is listed once (its first intact copy, if any).
  static std::vector<FileInfo> ls(const std::string& dir);

  /// compact() with a cutoff: drops entries older than `max_age_days` and
  /// every invalid one. Returns entries removed.
  static std::size_t prune(const std::string& dir, double max_age_days);

  /// Unlinks every segment. Returns entries removed.
  static std::size_t clear(const std::string& dir);

 private:
  /// One indexed record: where its header starts in which segment.
  struct Record {
    ScenarioKey key;
    std::uint32_t segment = 0;
    std::uint32_t length = 0;  ///< entry bytes
    std::uint64_t offset = 0;
  };
  struct Mapping {
    std::string path;
    std::span<const std::uint8_t> bytes;
  };

  /// One key's copies: its first, and its first intact one (or null).
  struct Copies {
    const Record* first;
    const Record* intact;
  };

  /// The whole record, header included.
  std::span<const std::uint8_t> record_bytes(const Record& rec) const;
  /// Every key of the index, in key order.
  std::vector<Copies> by_key();
  using IndexIt = std::vector<Record>::const_iterator;
  /// Resolves `key` from `lo` on (advancing `lo`), then against own_.
  std::optional<Entry> lookup_locked(const ScenarioKey& key, IndexIt& lo);
  /// Checksum, then decode; a failure counts as a bad entry.
  std::optional<Entry> decode(const Record& rec);
  /// Seconds since the record was written, never negative.
  double age_seconds(const Record& rec, std::int64_t now_s) const;

  friend std::optional<CompactResult> compact(const std::string& dir,
                                              double max_age_s);

  std::string dir_;
  mutable std::mutex mutex_;
  std::vector<Mapping> segments_;
  std::vector<Record> index_;  ///< sorted by (key, segment, offset)
  /// Encoded entries this store put, served after the index.
  std::map<ScenarioKey, std::vector<std::uint8_t>> own_;
  int fd_ = -1;  ///< this store's segment; -2 once creating it failed
  StoreCounters counters_;
};

/// Copies every valid record younger than `max_age_s` (one copy per key)
/// into a fresh segment — temp file, fsync, rename — then unlinks the
/// segments it read. Without a cutoff this is `nidt cache compact`.
/// Returns nullopt only when the fresh segment cannot be written.
std::optional<CompactResult> compact(
    const std::string& dir,
    double max_age_s = std::numeric_limits<double>::infinity());

}  // namespace nidkit::cache
