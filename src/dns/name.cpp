#include "dns/name.h"

#include <algorithm>
#include <cctype>
#include <stdexcept>

namespace sp::dns {

namespace {

constexpr std::size_t kMaxLabelLength = 63;
constexpr std::size_t kMaxNameLength = 253;

bool valid_label(std::string_view label) {
  if (label.empty() || label.size() > kMaxLabelLength) return false;
  if (label.front() == '-' || label.back() == '-') return false;
  return std::all_of(label.begin(), label.end(), [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '-' || c == '_';
  });
}

}  // namespace

std::optional<DomainName> DomainName::from_string(std::string_view text) {
  if (!text.empty() && text.back() == '.') text.remove_suffix(1);
  if (text.empty()) return DomainName();  // root
  if (text.size() > kMaxNameLength) return std::nullopt;

  std::string canonical(text);
  std::transform(canonical.begin(), canonical.end(), canonical.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });

  std::size_t start = 0;
  while (true) {
    const std::size_t dot = canonical.find('.', start);
    const std::string_view label =
        std::string_view(canonical).substr(start, dot == std::string::npos ? std::string::npos
                                                                           : dot - start);
    if (!valid_label(label)) return std::nullopt;
    if (dot == std::string::npos) break;
    start = dot + 1;
  }
  return DomainName(std::move(canonical));
}

DomainName DomainName::must_parse(std::string_view text) {
  auto parsed = from_string(text);
  if (!parsed) throw std::invalid_argument("invalid domain name: " + std::string(text));
  return *std::move(parsed);
}

}  // namespace sp::dns
