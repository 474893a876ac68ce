// Network byte-order (big-endian) serialization primitives.
//
// All wire formats in this repository go through ByteWriter / ByteReader so
// that every packet that crosses a simulated link is a real byte string, as
// it would be on the paper's Docker testbed. ByteReader never throws: every
// read reports success via the return value and a sticky error flag, so
// decoders can validate truncated or corrupted packets cheaply.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

namespace nidkit {

/// Appends big-endian integers and raw bytes to a growable buffer.
class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(std::size_t reserve) { buf_.reserve(reserve); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
    buf_.push_back(static_cast<std::uint8_t>(v));
  }
  void u24(std::uint32_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v >> 16));
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
    buf_.push_back(static_cast<std::uint8_t>(v));
  }
  void u32(std::uint32_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v >> 24));
    buf_.push_back(static_cast<std::uint8_t>(v >> 16));
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
    buf_.push_back(static_cast<std::uint8_t>(v));
  }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v >> 32));
    u32(static_cast<std::uint32_t>(v));
  }
  void bytes(std::span<const std::uint8_t> data) {
    buf_.insert(buf_.end(), data.begin(), data.end());
  }
  void zeros(std::size_t n) { buf_.insert(buf_.end(), n, 0); }

  /// Overwrites a previously written big-endian u16 at `offset`.
  /// Used to patch length and checksum fields after the body is known.
  void patch_u16(std::size_t offset, std::uint16_t v) {
    buf_.at(offset) = static_cast<std::uint8_t>(v >> 8);
    buf_.at(offset + 1) = static_cast<std::uint8_t>(v);
  }

  std::size_t size() const { return buf_.size(); }
  std::span<const std::uint8_t> view() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }
  std::vector<std::uint8_t>& data() { return buf_; }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Reads big-endian integers from a byte span with sticky error tracking.
///
/// A read past the end sets the error flag and returns zero; callers
/// typically decode a whole structure and then check `ok()` once.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() {
    if (!require(1)) return 0;
    return data_[pos_++];
  }
  std::uint16_t u16() {
    if (!require(2)) return 0;
    const std::uint16_t v = (std::uint16_t{data_[pos_]} << 8) |
                            std::uint16_t{data_[pos_ + 1]};
    pos_ += 2;
    return v;
  }
  std::uint32_t u24() {
    if (!require(3)) return 0;
    const std::uint32_t v = (std::uint32_t{data_[pos_]} << 16) |
                            (std::uint32_t{data_[pos_ + 1]} << 8) |
                            std::uint32_t{data_[pos_ + 2]};
    pos_ += 3;
    return v;
  }
  std::uint32_t u32() {
    if (!require(4)) return 0;
    const std::uint32_t v = (std::uint32_t{data_[pos_]} << 24) |
                            (std::uint32_t{data_[pos_ + 1]} << 16) |
                            (std::uint32_t{data_[pos_ + 2]} << 8) |
                            std::uint32_t{data_[pos_ + 3]};
    pos_ += 4;
    return v;
  }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::uint64_t u64() {
    const std::uint64_t hi = u32();
    return (hi << 32) | u32();
  }

  /// Reads `n` raw bytes; returns an empty span (and sets the error flag)
  /// if fewer than `n` remain.
  std::span<const std::uint8_t> bytes(std::size_t n) {
    if (!require(n)) return {};
    auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  void skip(std::size_t n) {
    if (require(n)) pos_ += n;
  }

  std::size_t remaining() const { return ok_ ? data_.size() - pos_ : 0; }
  std::size_t position() const { return pos_; }
  bool ok() const { return ok_; }

 private:
  bool require(std::size_t n) {
    if (!ok_ || data_.size() - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// Renders bytes as lowercase hex, space-separated every 4 bytes.
/// Debug aid for traces and test failure messages.
std::string hex_dump(std::span<const std::uint8_t> data);

}  // namespace nidkit
