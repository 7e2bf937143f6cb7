#include "dns/zonefile.h"

#include <charconv>
#include <fstream>

namespace sp::dns {

namespace {

struct Token {
  std::string text;
  bool quoted = false;
};

/// One logical record line (continuations joined), with its source line.
struct LogicalLine {
  std::vector<Token> tokens;
  bool owner_inherited = false;  // line began with whitespace
  std::size_t line_number = 0;
};

/// Splits master-file text into logical lines: strips ';' comments
/// (outside quotes), honors "..." quoting, and joins '(' ... ')'
/// continuations.
std::optional<std::vector<LogicalLine>> tokenize(std::string_view text,
                                                 ZoneParseError& error) {
  std::vector<LogicalLine> lines;
  LogicalLine current;
  int paren_depth = 0;
  std::size_t line_number = 1;
  bool line_started = false;  // saw the first physical line of the record

  std::string token_text;
  bool in_token = false;
  bool in_string = false;
  bool token_was_quoted = false;

  const auto flush_token = [&] {
    if (in_token) {
      current.tokens.push_back({std::move(token_text), token_was_quoted});
      token_text.clear();
      in_token = false;
      token_was_quoted = false;
    }
  };
  const auto flush_line = [&] {
    flush_token();
    if (!current.tokens.empty()) lines.push_back(std::move(current));
    current = LogicalLine{};
    line_started = false;
  };

  for (std::size_t i = 0; i <= text.size(); ++i) {
    const char c = i < text.size() ? text[i] : '\n';
    if (in_string) {
      if (c == '"') {
        in_string = false;
      } else if (c == '\n') {
        error = {line_number, "unterminated quoted string"};
        return std::nullopt;
      } else {
        token_text.push_back(c);
      }
      continue;
    }
    switch (c) {
      case '"':
        in_string = true;
        in_token = true;
        token_was_quoted = true;
        break;
      case ';': {
        // Comment to end of physical line.
        while (i < text.size() && text[i] != '\n') ++i;
        --i;  // reprocess the newline
        break;
      }
      case '(':
        flush_token();
        ++paren_depth;
        break;
      case ')':
        flush_token();
        if (--paren_depth < 0) {
          error = {line_number, "unbalanced ')'"};
          return std::nullopt;
        }
        break;
      case '\n':
        ++line_number;
        flush_token();
        if (paren_depth == 0) flush_line();
        break;
      case ' ':
      case '\t':
      case '\r':
        flush_token();
        if (!line_started && paren_depth == 0 && current.tokens.empty()) {
          current.owner_inherited = true;
        }
        break;
      default:
        if (!in_token) {
          in_token = true;
          if (!line_started) {
            current.line_number = line_number;
            line_started = true;
          }
        }
        token_text.push_back(c);
        break;
    }
    if (c != ' ' && c != '\t' && c != '\r' && c != '\n' && !line_started) {
      current.line_number = line_number;
      line_started = true;
    }
  }
  if (paren_depth != 0) {
    error = {line_number, "unbalanced '('"};
    return std::nullopt;
  }
  return lines;
}

std::optional<DomainName> resolve_name(const std::string& token, const DomainName& origin) {
  if (token == "@") return origin;
  if (!token.empty() && token.back() == '.') return DomainName::from_string(token);
  const auto relative = DomainName::from_string(token);
  if (!relative) return std::nullopt;
  if (origin.is_root()) return relative;
  return DomainName::from_string(relative->text() + "." + origin.text());
}

bool parse_u32(const std::string& token, std::uint32_t& out) {
  const auto result = std::from_chars(token.data(), token.data() + token.size(), out);
  return result.ec == std::errc{} && result.ptr == token.data() + token.size();
}

bool parse_u16(const std::string& token, std::uint16_t& out) {
  const auto result = std::from_chars(token.data(), token.data() + token.size(), out);
  return result.ec == std::errc{} && result.ptr == token.data() + token.size();
}

}  // namespace

ZoneParseResult parse_zone_text(std::string_view text, ZoneDatabase& zones,
                                const DomainName& default_origin) {
  ZoneParseResult result;
  ZoneParseError tokenize_error;
  const auto lines = tokenize(text, tokenize_error);
  if (!lines) {
    result.error = tokenize_error;
    return result;
  }

  DomainName origin = default_origin;
  std::uint32_t default_ttl = 3600;
  std::optional<DomainName> last_owner;

  const auto fail = [&result](std::size_t line, std::string message) {
    result.error = {line, std::move(message)};
    return result;
  };

  for (const LogicalLine& line : *lines) {
    std::size_t cursor = 0;
    const auto& tokens = line.tokens;

    // Directives.
    if (tokens[0].text == "$ORIGIN" && !tokens[0].quoted) {
      if (tokens.size() != 2) return fail(line.line_number, "$ORIGIN takes one name");
      const auto name = resolve_name(tokens[1].text, DomainName());
      if (!name) return fail(line.line_number, "bad $ORIGIN name");
      origin = *name;
      continue;
    }
    if (tokens[0].text == "$TTL" && !tokens[0].quoted) {
      if (tokens.size() != 2 || !parse_u32(tokens[1].text, default_ttl)) {
        return fail(line.line_number, "bad $TTL");
      }
      continue;
    }

    // Owner.
    DomainName owner;
    if (line.owner_inherited) {
      if (!last_owner) return fail(line.line_number, "no previous owner to inherit");
      owner = *last_owner;
    } else {
      const auto name = resolve_name(tokens[cursor].text, origin);
      if (!name) return fail(line.line_number, "bad owner name: " + tokens[cursor].text);
      owner = *name;
      ++cursor;
    }
    last_owner = owner;

    // Optional TTL and CLASS, in either order.
    std::uint32_t ttl = default_ttl;
    for (int i = 0; i < 2 && cursor < tokens.size(); ++i) {
      std::uint32_t parsed_ttl = 0;
      if (parse_u32(tokens[cursor].text, parsed_ttl)) {
        ttl = parsed_ttl;
        ++cursor;
      } else if (tokens[cursor].text == "IN") {
        ++cursor;
      }
    }
    if (cursor >= tokens.size()) return fail(line.line_number, "missing record type");

    const std::string& type = tokens[cursor].text;
    ++cursor;
    const std::size_t remaining = tokens.size() - cursor;
    const auto rdata_name = [&](std::size_t index) {
      return resolve_name(tokens[cursor + index].text, origin);
    };

    if (type == "A") {
      if (remaining != 1) return fail(line.line_number, "A takes one address");
      const auto address = IPv4Address::from_string(tokens[cursor].text);
      if (!address) return fail(line.line_number, "bad A address");
      zones.add(ResourceRecord::a(owner, *address, ttl));
    } else if (type == "AAAA") {
      if (remaining != 1) return fail(line.line_number, "AAAA takes one address");
      const auto address = IPv6Address::from_string(tokens[cursor].text);
      if (!address) return fail(line.line_number, "bad AAAA address");
      zones.add(ResourceRecord::aaaa(owner, *address, ttl));
    } else if (type == "CNAME" || type == "NS" || type == "PTR") {
      if (remaining != 1) return fail(line.line_number, type + " takes one name");
      const auto target = rdata_name(0);
      if (!target) return fail(line.line_number, "bad " + type + " target");
      if (type == "CNAME") {
        zones.add(ResourceRecord::cname(owner, *target, ttl));
      } else if (type == "NS") {
        zones.add(ResourceRecord::ns(owner, *target, ttl));
      } else {
        zones.add(ResourceRecord::ptr(owner, *target, ttl));
      }
    } else if (type == "MX") {
      std::uint16_t preference = 0;
      if (remaining != 2 || !parse_u16(tokens[cursor].text, preference)) {
        return fail(line.line_number, "MX takes preference + exchange");
      }
      const auto exchange = rdata_name(1);
      if (!exchange) return fail(line.line_number, "bad MX exchange");
      zones.add(ResourceRecord::mx(owner, preference, *exchange, ttl));
    } else if (type == "TXT") {
      if (remaining == 0) return fail(line.line_number, "TXT takes text");
      std::string joined;
      for (std::size_t i = cursor; i < tokens.size(); ++i) joined += tokens[i].text;
      zones.add(ResourceRecord::txt(owner, std::move(joined), ttl));
    } else if (type == "SOA") {
      if (remaining != 7) return fail(line.line_number, "SOA takes 7 fields");
      SoaData soa;
      const auto mname = rdata_name(0);
      const auto rname = rdata_name(1);
      if (!mname || !rname) return fail(line.line_number, "bad SOA names");
      soa.mname = *mname;
      soa.rname = *rname;
      if (!parse_u32(tokens[cursor + 2].text, soa.serial) ||
          !parse_u32(tokens[cursor + 3].text, soa.refresh) ||
          !parse_u32(tokens[cursor + 4].text, soa.retry) ||
          !parse_u32(tokens[cursor + 5].text, soa.expire) ||
          !parse_u32(tokens[cursor + 6].text, soa.minimum)) {
        return fail(line.line_number, "bad SOA counters");
      }
      zones.add(ResourceRecord::soa(owner, std::move(soa), ttl));
    } else {
      return fail(line.line_number, "unsupported record type: " + type);
    }
    ++result.records_added;
  }
  return result;
}

ZoneParseResult parse_zone_file(const std::string& path, ZoneDatabase& zones,
                                const DomainName& default_origin) {
  ZoneParseResult result;
  std::ifstream in(path);
  if (!in) {
    result.error = {0, "cannot open " + path};
    return result;
  }
  // istream::read sets badbit where istreambuf_iterator would throw (on a
  // directory, say), so a read error is reported rather than fatal.
  std::string text;
  char block[1 << 16];
  while (in.read(block, sizeof block) || in.gcount() > 0) {
    text.append(block, static_cast<std::size_t>(in.gcount()));
  }
  if (in.bad()) {
    result.error = {0, "cannot read " + path};
    return result;
  }
  return parse_zone_text(text, zones, default_origin);
}

}  // namespace sp::dns
