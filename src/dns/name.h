// Domain name value type.
//
// Names are stored in canonical form: lowercase, no trailing dot, labels
// validated against RFC 1035 length limits (63 octets per label, 253 total
// presentation length). Comparison and hashing are case-insensitive by
// construction.
#pragma once

#include <compare>
#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

namespace sp::dns {

class DomainName {
 public:
  /// The empty (root) name.
  DomainName() = default;

  /// Parses presentation format ("www.Example.ORG." or "www.example.org").
  /// Returns nullopt when any label is empty, too long, contains characters
  /// outside [a-z0-9_-], starts/ends with '-', or the name exceeds 253
  /// octets.
  [[nodiscard]] static std::optional<DomainName> from_string(std::string_view text);

  /// Parses or throws std::invalid_argument; for literals in tests/examples.
  [[nodiscard]] static DomainName must_parse(std::string_view text);

  [[nodiscard]] bool is_root() const noexcept { return text_.empty(); }

  /// Canonical lowercase presentation form without trailing dot;
  /// the root name renders as ".".
  [[nodiscard]] const std::string& text() const noexcept { return text_; }
  [[nodiscard]] std::string to_string() const { return is_root() ? "." : text_; }

  friend auto operator<=>(const DomainName&, const DomainName&) = default;

 private:
  explicit DomainName(std::string canonical) : text_(std::move(canonical)) {}

  std::string text_;
};

}  // namespace sp::dns

template <>
struct std::hash<sp::dns::DomainName> {
  std::size_t operator()(const sp::dns::DomainName& name) const noexcept {
    return std::hash<std::string>{}(name.text());
  }
};
