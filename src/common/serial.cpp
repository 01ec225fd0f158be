#include "common/serial.hpp"

#include <array>
#include <cstring>

#include "common/assert.hpp"

namespace basrpt {

namespace {

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

int hex_digit(char c) {
  if (c >= '0' && c <= '9') {
    return c - '0';
  }
  if (c >= 'a' && c <= 'f') {
    return c - 'a' + 10;
  }
  if (c >= 'A' && c <= 'F') {
    return c - 'A' + 10;
  }
  return -1;
}

}  // namespace

std::uint32_t crc32(std::uint32_t crc, const void* data, std::size_t size) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  const auto* bytes = static_cast<const unsigned char*>(data);
  crc = ~crc;
  for (std::size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ bytes[i]) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

std::uint32_t crc32_of(const std::string& data) {
  return crc32(0, data.data(), data.size());
}

std::string u64_to_hex(std::uint64_t value) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[value & 0xFu];
    value >>= 4;
  }
  return out;
}

std::uint64_t u64_from_hex(std::string_view text) {
  BASRPT_REQUIRE(text.size() == 16, "hex word must be exactly 16 digits: '" +
                                        std::string(text) + "'");
  std::uint64_t value = 0;
  for (const char c : text) {
    const int d = hex_digit(c);
    BASRPT_REQUIRE(d >= 0, "invalid hex digit in '" + std::string(text) + "'");
    value = (value << 4) | static_cast<std::uint64_t>(d);
  }
  return value;
}

std::string f64_to_hex(double value) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  return u64_to_hex(bits);
}

double f64_from_hex(std::string_view text) {
  const std::uint64_t bits = u64_from_hex(text);
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

}  // namespace basrpt
