#include "util/crc32.h"

#include <array>

namespace securestore {

namespace {

constexpr std::uint32_t kPolynomial = 0xEDB88320u;

using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

/// Slice-by-8 tables: tables[0] is the classic bytewise table; tables[k][b]
/// is the CRC contribution of byte b followed by k zero bytes, so eight
/// lookups fold eight input bytes into the register at once.
Tables build_tables() {
  Tables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) != 0 ? kPolynomial ^ (c >> 1) : c >> 1;
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

std::uint32_t crc32(BytesView data, std::uint32_t seed) {
  static const Tables t = build_tables();
  std::uint32_t crc = seed ^ 0xFFFFFFFFu;
  const std::uint8_t* p = data.data();
  std::size_t left = data.size();
  for (; left >= 8; p += 8, left -= 8) {
    const std::uint32_t lo = load_le32(p) ^ crc;
    const std::uint32_t hi = load_le32(p + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
          t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; left > 0; ++p, --left) crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace securestore
