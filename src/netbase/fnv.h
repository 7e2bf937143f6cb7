// FNV-1a 64-bit: the one hash behind the .sibdb and .spdl checksums, the
// campaign's checkpoint hashes and std::hash of the address types.
// Header-inline, so every caller (the .sibdb checksum each RELOAD
// verifies among them) compiles to the same byte loop.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace sp {

inline constexpr std::uint64_t kFnvBasis = 0xCBF29CE484222325ull;
inline constexpr std::uint64_t kFnvPrime = 0x100000001B3ull;

/// FNV-1a64 over `size` bytes at `data`, chainable via `hash`.
[[nodiscard]] constexpr std::uint64_t fnv1a64(const std::uint8_t* data, std::size_t size,
                                              std::uint64_t hash = kFnvBasis) noexcept {
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= data[i];
    hash *= kFnvPrime;
  }
  return hash;
}

/// FNV-1a64 over a byte string, chainable via `hash`.
[[nodiscard]] inline std::uint64_t fnv1a64(std::string_view bytes,
                                           std::uint64_t hash = kFnvBasis) noexcept {
  return fnv1a64(reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size(), hash);
}

/// Folds a 64-bit value into a running FNV-1a64 hash (little-endian bytes).
[[nodiscard]] constexpr std::uint64_t fnv1a64_mix(std::uint64_t value,
                                                  std::uint64_t hash) noexcept {
  std::uint8_t bytes[sizeof value] = {};
  for (std::size_t i = 0; i < sizeof value; ++i) {
    bytes[i] = static_cast<std::uint8_t>(value >> (i * 8));
  }
  return fnv1a64(bytes, sizeof bytes, hash);
}

/// FNV-1a64 of a file image as if its 8-byte checksum field at
/// `field_offset` held zero: the self-checksum of .sibdb and .spdl files.
[[nodiscard]] constexpr std::uint64_t fnv1a64_zeroed_field(const std::uint8_t* data,
                                                           std::size_t size,
                                                           std::size_t field_offset) noexcept {
  const std::uint8_t zeros[sizeof(std::uint64_t)] = {};
  std::uint64_t hash = fnv1a64(data, field_offset);
  hash = fnv1a64(zeros, sizeof zeros, hash);
  return fnv1a64(data + field_offset + sizeof zeros, size - field_offset - sizeof zeros, hash);
}

}  // namespace sp
