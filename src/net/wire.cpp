#include "net/wire.hpp"

#include <array>
#include <cstring>

namespace gppm::net {

namespace {

/// Slicing tables: table[0] is the classic byte-at-a-time table, and
/// table[k][b] is the CRC of byte b followed by k zero bytes, which lets
/// the main loop fold 8 input bytes with 8 independent lookups instead of
/// 8 serial table steps.  Built at compile time (constexpr), so there is
/// no init-order or threading question.
struct CrcTables {
  std::uint32_t t[8][256];
};

constexpr CrcTables build_crc_tables() {
  CrcTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    tables.t[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = tables.t[0][i];
    for (int k = 1; k < 8; ++k) {
      c = tables.t[0][c & 0xffu] ^ (c >> 8);
      tables.t[k][i] = c;
    }
  }
  return tables;
}

constexpr CrcTables kCrc = build_crc_tables();

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t size) {
  std::uint32_t crc = 0xffffffffu;
  // Slice-by-8 main loop.  The four low bytes fold through the running
  // CRC; the four high bytes only need their zero-padded tables.  Byte
  // composition (not a word load) keeps it endian-independent — the
  // compiler fuses it into one load on little-endian hosts.
  while (size >= 8) {
    const std::uint32_t low = crc ^ (static_cast<std::uint32_t>(data[0]) |
                                     static_cast<std::uint32_t>(data[1]) << 8 |
                                     static_cast<std::uint32_t>(data[2]) << 16 |
                                     static_cast<std::uint32_t>(data[3]) << 24);
    crc = kCrc.t[7][low & 0xffu] ^ kCrc.t[6][(low >> 8) & 0xffu] ^
          kCrc.t[5][(low >> 16) & 0xffu] ^ kCrc.t[4][low >> 24] ^
          kCrc.t[3][data[4]] ^ kCrc.t[2][data[5]] ^ kCrc.t[1][data[6]] ^
          kCrc.t[0][data[7]];
    data += 8;
    size -= 8;
  }
  for (std::size_t i = 0; i < size; ++i) {
    crc = kCrc.t[0][(crc ^ data[i]) & 0xffu] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

std::uint32_t crc32_reference(const std::uint8_t* data, std::size_t size) {
  std::uint32_t crc = 0xffffffffu;
  for (std::size_t i = 0; i < size; ++i) {
    crc = kCrc.t[0][(crc ^ data[i]) & 0xffu] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

void WireWriter::u16(std::uint16_t v) {
  const std::uint8_t b[2] = {static_cast<std::uint8_t>(v & 0xff),
                             static_cast<std::uint8_t>(v >> 8)};
  buffer_.insert(buffer_.end(), b, b + 2);
}

void WireWriter::u32(std::uint32_t v) {
  std::uint8_t b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
  buffer_.insert(buffer_.end(), b, b + 4);
}

void WireWriter::u64(std::uint64_t v) {
  std::uint8_t b[8];
  store_le64(b, v);
  buffer_.insert(buffer_.end(), b, b + 8);
}

void WireWriter::f64(double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void WireWriter::str(std::string_view s) {
  GPPM_CHECK(s.size() <= kMaxWireString, "wire string too long");
  u16(static_cast<std::uint16_t>(s.size()));
  bytes(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

void WireWriter::bytes(const std::uint8_t* data, std::size_t size) {
  buffer_.insert(buffer_.end(), data, data + size);
}

std::uint8_t* WireWriter::extend(std::size_t n) {
  const std::size_t at = buffer_.size();
  buffer_.resize(at + n);
  return buffer_.data() + at;
}

const std::uint8_t* WireReader::need(std::size_t n, const char* what) {
  if (size_ - pos_ < n) {
    throw ProtocolError(std::string("payload truncated reading ") + what);
  }
  const std::uint8_t* at = data_ + pos_;
  pos_ += n;
  return at;
}

std::uint8_t WireReader::u8() { return *need(1, "u8"); }

std::uint16_t WireReader::u16() {
  const std::uint8_t* p = need(2, "u16");
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t WireReader::u32() {
  const std::uint8_t* p = need(4, "u32");
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

std::uint64_t WireReader::u64() { return load_le64(need(8, "u64")); }

double WireReader::f64() {
  const std::uint64_t bits = u64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string WireReader::str() {
  const std::size_t n = u16();
  const std::uint8_t* p = need(n, "string body");
  return std::string(reinterpret_cast<const char*>(p), n);
}

void WireReader::expect_done(const char* what) const {
  if (!done()) {
    throw ProtocolError(std::string(what) + ": " + std::to_string(remaining()) +
                        " trailing bytes");
  }
}

}  // namespace gppm::net
