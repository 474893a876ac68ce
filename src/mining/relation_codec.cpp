#include "mining/relation_codec.hpp"

#include <string>

namespace nidkit::mining {

namespace {

void encode_label(const std::string& s, ByteWriter& out) {
  out.u32(static_cast<std::uint32_t>(s.size()));
  out.bytes(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
}

bool decode_label(ByteReader& in, std::string& out) {
  const std::uint32_t len = in.u32();
  // bytes() bounds-checks before touching the data, so a corrupted length
  // field sets the sticky error flag instead of triggering a huge
  // allocation; the string is only assigned from a validated span.
  const auto bytes = in.bytes(len);
  if (!in.ok()) return false;
  out.assign(reinterpret_cast<const char*>(bytes.data()), bytes.size());
  return true;
}

void encode_direction(const RelationSet& set, RelationDirection dir,
                      ByteWriter& out) {
  const auto& cells = set.cells(dir);
  out.u32(static_cast<std::uint32_t>(cells.size()));
  for (const auto& [cell, stats] : cells) {
    encode_label(cell.stimulus, out);
    encode_label(cell.response, out);
    out.u64(stats.count);
    out.u64(static_cast<std::uint64_t>(stats.first_seen.count()));
    out.u64(stats.example_stimulus);
    out.u64(stats.example_response);
  }
}

bool decode_direction(ByteReader& in, RelationDirection dir,
                      RelationSet& set) {
  const std::uint32_t count = in.u32();
  // Cells were encoded in canonical (sorted) order, so decoding is a
  // reserve + straight appends — no per-cell search or reallocation. The
  // count is bounds-sanity-checked against the remaining bytes before
  // reserving so a corrupted length can't trigger a huge allocation.
  if (in.ok() && count <= in.remaining() / 8) set.reserve(dir, count);
  for (std::uint32_t i = 0; in.ok() && i < count; ++i) {
    RelationCell cell;
    if (!decode_label(in, cell.stimulus)) return false;
    if (!decode_label(in, cell.response)) return false;
    RelationStats stats;
    stats.count = in.u64();
    stats.first_seen = SimTime{static_cast<std::int64_t>(in.u64())};
    stats.example_stimulus = static_cast<std::size_t>(in.u64());
    stats.example_response = static_cast<std::size_t>(in.u64());
    if (!in.ok()) return false;
    set.append_sorted(dir, std::move(cell), stats);
  }
  return in.ok();
}

}  // namespace

void encode_relations(const RelationSet& set, ByteWriter& out) {
  encode_direction(set, RelationDirection::kSendToRecv, out);
  encode_direction(set, RelationDirection::kRecvToSend, out);
}

std::optional<RelationSet> decode_relations(ByteReader& in) {
  RelationSet set;
  if (!decode_direction(in, RelationDirection::kSendToRecv, set))
    return std::nullopt;
  if (!decode_direction(in, RelationDirection::kRecvToSend, set))
    return std::nullopt;
  return set;
}

std::vector<std::uint8_t> encode_relations(const RelationSet& set) {
  ByteWriter out;
  encode_relations(set, out);
  return out.take();
}

std::optional<RelationSet> decode_relations(
    std::span<const std::uint8_t> bytes) {
  ByteReader in(bytes);
  auto set = decode_relations(in);
  if (!set || in.remaining() != 0) return std::nullopt;
  return set;
}

}  // namespace nidkit::mining
