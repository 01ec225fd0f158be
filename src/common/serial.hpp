// Bit-exact serialization primitives shared by checkpoint and trace
// tooling.
//
// Checkpoints must restore *bit-identical* state: a double written as
// "%.17g" survives one round-trip on one libc, but the checkpoint
// contract is byte-identical resumed CSVs across writers and readers, so
// floating-point values travel as the hex image of their IEEE-754 bits
// and integers as fixed-radix text. CRC32 (IEEE 802.3, reflected) guards
// each checkpoint section against torn writes and bit rot.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace basrpt {

/// CRC-32 (IEEE 802.3, the zlib polynomial 0xEDB88320), incremental:
/// feed chunks with the previous return value as `crc` (start at 0).
std::uint32_t crc32(std::uint32_t crc, const void* data, std::size_t size);

/// One-shot CRC-32 of a string.
std::uint32_t crc32_of(const std::string& data);

/// 16 lowercase hex digits of the value (fixed width, no prefix).
std::string u64_to_hex(std::uint64_t value);

/// Inverse of u64_to_hex. Throws ConfigError on anything that is not
/// exactly 16 hex digits.
std::uint64_t u64_from_hex(std::string_view text);

/// The double's IEEE-754 bit image as 16 hex digits — total (NaN
/// payloads, signed zeros, infinities all survive) and locale-proof,
/// unlike decimal round-trips.
std::string f64_to_hex(double value);

/// Inverse of f64_to_hex. Throws ConfigError on malformed input.
double f64_from_hex(std::string_view text);

}  // namespace basrpt
