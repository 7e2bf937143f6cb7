#include "pipeline/checkpoint.h"

#include <cstdio>
#include <vector>

namespace sp::pipeline {

std::optional<std::uint64_t> hash_file(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return std::nullopt;
  std::uint64_t hash = kFnvBasis;
  std::vector<char> buffer(1 << 16);
  std::size_t got = 0;
  while ((got = std::fread(buffer.data(), 1, buffer.size(), file)) > 0) {
    hash = fnv1a64(std::string_view(buffer.data(), got), hash);
  }
  const bool ok = std::ferror(file) == 0;
  std::fclose(file);
  if (!ok) return std::nullopt;
  return hash;
}

std::string hash_hex(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx", static_cast<unsigned long long>(value));
  return buffer;
}

std::optional<std::uint64_t> parse_hash_hex(std::string_view text) {
  if (text.size() != 16) return std::nullopt;
  std::uint64_t value = 0;
  for (const char c : text) {
    value <<= 4;
    if (c >= '0' && c <= '9') {
      value |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      value |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return std::nullopt;
    }
  }
  return value;
}

}  // namespace sp::pipeline
