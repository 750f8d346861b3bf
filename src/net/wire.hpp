// Endian-safe binary wire primitives for the gppm RPC layer.
//
// Everything that crosses a socket goes through these two helpers: a
// WireWriter that appends fixed-width little-endian fields to a byte
// buffer, and a bounds-checked WireReader that refuses to read past the
// payload it was given.  Doubles travel as their IEEE-754 bit patterns
// (little-endian u64), so values round-trip bit-exactly between any two
// hosts regardless of locale or native byte order — the property the
// "wire predictions are bit-identical to in-process predictions"
// acceptance test pins down.
//
// Malformed input is a *typed* error, never a crash: every decode failure
// throws ProtocolError (permanent — resending the same bytes cannot
// succeed), as opposed to ConnectionError (transient, see socket.hpp)
// which the client retry path absorbs.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"

namespace gppm::net {

/// Base of the networking error taxonomy.  Subsystems catch NetError when
/// they do not care whether the failure was the bytes or the transport.
class NetError : public Error {
 public:
  explicit NetError(const std::string& what) : Error(what) {}
};

/// The bytes themselves are wrong (bad magic, bad CRC, truncated payload,
/// out-of-range enum, oversized frame).  Permanent: retrying the same
/// bytes cannot help, so the connection is dropped instead.
class ProtocolError : public NetError {
 public:
  explicit ProtocolError(const std::string& what)
      : NetError("protocol error: " + what) {}
};

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) over a byte range.  Used as
/// the per-frame payload checksum.  Computed slice-by-8 (eight table
/// lookups per 8 input bytes) — integer-only, so the result is identical
/// on every host and unaffected by GPPM_SIMD.
std::uint32_t crc32(const std::uint8_t* data, std::size_t size);
inline std::uint32_t crc32(std::span<const std::uint8_t> data) {
  return crc32(data.data(), data.size());
}

/// Byte-at-a-time reference CRC-32.  Kept solely so the `simd`-labeled
/// parity suite can pin the slice-by-8 fast path against the textbook
/// loop; production code always uses crc32().
std::uint32_t crc32_reference(const std::uint8_t* data, std::size_t size);

/// Longest string the wire format can carry (u16 length prefix).
inline constexpr std::size_t kMaxWireString = 0xffff;

/// Little-endian u64 store/load over raw bytes: one unaligned move on a
/// little-endian host (GCC does not fuse the byte loop on its own), byte
/// composition elsewhere.
inline void store_le64(std::uint8_t* p, std::uint64_t v) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &v, sizeof v);
  } else {
    for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}
inline std::uint64_t load_le64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, sizeof v);
  } else {
    for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  }
  return v;
}

/// Append-only little-endian field writer.  Multi-byte fields are staged
/// in a stack buffer and appended with one bulk insert (a single unaligned
/// store after optimization), not byte-by-byte push_backs.
class WireWriter {
 public:
  WireWriter() = default;
  /// Adopt `reuse`'s storage (cleared, capacity kept) — the arena path:
  /// a per-connection buffer cycles through encode/take without ever
  /// reallocating at steady state.
  explicit WireWriter(std::vector<std::uint8_t>&& reuse)
      : buffer_(std::move(reuse)) {
    buffer_.clear();
  }

  void u8(std::uint8_t v) { buffer_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  /// IEEE-754 bit pattern as LE u64; NaNs round-trip bit-exactly too.
  void f64(double v);
  /// u16 length prefix + raw bytes.  Throws gppm::Error on oversized input
  /// (an encode-side bug, not a protocol error).
  void str(std::string_view s);
  void bytes(const std::uint8_t* data, std::size_t size);
  /// Append `n` bytes and return where they start, for a caller that fills
  /// a bulk run itself (valid until the next append).
  std::uint8_t* extend(std::size_t n);

  const std::vector<std::uint8_t>& data() const { return buffer_; }
  std::vector<std::uint8_t> take() { return std::move(buffer_); }
  std::size_t size() const { return buffer_.size(); }
  std::size_t capacity() const { return buffer_.capacity(); }
  /// Drop content, keep capacity (arena reuse between requests).
  void clear() { buffer_.clear(); }
  void reserve(std::size_t n) { buffer_.reserve(n); }

 private:
  std::vector<std::uint8_t> buffer_;
};

/// Bounds-checked little-endian field reader over a borrowed byte range.
/// Every overrun throws ProtocolError; `done()` distinguishes an exactly
/// consumed payload from one with trailing garbage.
class WireReader {
 public:
  WireReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  /// Borrow any contiguous byte range — a decoded frame's payload view
  /// (zero-copy path) or a std::vector (both convert to the span).
  explicit WireReader(std::span<const std::uint8_t> payload)
      : WireReader(payload.data(), payload.size()) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  double f64();
  std::string str();
  /// Borrow the next `n` bytes as one bulk run (bounds-checked once).
  const std::uint8_t* bytes(std::size_t n, const char* what) {
    return need(n, what);
  }

  std::size_t remaining() const { return size_ - pos_; }
  bool done() const { return pos_ == size_; }
  /// Throws ProtocolError unless the payload was consumed exactly.
  void expect_done(const char* what) const;

 private:
  const std::uint8_t* need(std::size_t n, const char* what);

  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t pos_ = 0;
};

}  // namespace gppm::net
