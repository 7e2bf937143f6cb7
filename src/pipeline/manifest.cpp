#include "pipeline/manifest.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "io/durable.h"
#include "pipeline/checkpoint.h"

namespace sp::pipeline {

namespace {

void append_escaped(std::string& out, std::string_view text) {
  out += '"';
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

// --- Minimal recursive-descent parser for the manifest schema. ---------

struct Parser {
  std::string_view text;
  std::size_t pos = 0;
  std::string error;

  bool fail(const std::string& what) {
    if (error.empty()) error = what + " at offset " + std::to_string(pos);
    return false;
  }
  void skip_ws() {
    while (pos < text.size() && std::isspace(static_cast<unsigned char>(text[pos]))) ++pos;
  }
  bool consume(char c) {
    skip_ws();
    if (pos >= text.size() || text[pos] != c) {
      return fail(std::string("expected '") + c + "'");
    }
    ++pos;
    return true;
  }
  bool peek(char c) {
    skip_ws();
    return pos < text.size() && text[pos] == c;
  }

  bool parse_string(std::string& out) {
    if (!consume('"')) return false;
    out.clear();
    while (pos < text.size()) {
      const char c = text[pos++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos >= text.size()) return fail("truncated escape");
        const char esc = text[pos++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos + 4 > text.size()) return fail("truncated \\u escape");
            unsigned value = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text[pos++];
              value <<= 4;
              if (h >= '0' && h <= '9') value |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') value |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') value |= static_cast<unsigned>(h - 'A' + 10);
              else return fail("bad \\u escape");
            }
            if (value > 0x7F) return fail("non-ASCII \\u escape unsupported");
            out += static_cast<char>(value);
            break;
          }
          default: return fail("unknown escape");
        }
        continue;
      }
      out += c;
    }
    return fail("unterminated string");
  }

  bool parse_number(double& out) {
    skip_ws();
    const std::size_t start = pos;
    if (pos < text.size() && (text[pos] == '-' || text[pos] == '+')) ++pos;
    while (pos < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[pos])) || text[pos] == '.' ||
            text[pos] == 'e' || text[pos] == 'E' || text[pos] == '-' || text[pos] == '+')) {
      ++pos;
    }
    if (pos == start) return fail("expected number");
    out = std::strtod(std::string(text.substr(start, pos - start)).c_str(), nullptr);
    return true;
  }

  /// Iterates "key": <value> members of an object; `member` must consume
  /// the value and may dispatch on the key.
  template <typename Fn>
  bool parse_object(Fn&& member) {
    if (!consume('{')) return false;
    if (peek('}')) return consume('}');
    for (;;) {
      std::string key;
      if (!parse_string(key)) return false;
      if (!consume(':')) return false;
      if (!member(key)) return false;
      if (peek(',')) {
        if (!consume(',')) return false;
        continue;
      }
      return consume('}');
    }
  }

  template <typename Fn>
  bool parse_array(Fn&& element) {
    if (!consume('[')) return false;
    if (peek(']')) return consume(']');
    for (;;) {
      if (!element()) return false;
      if (peek(',')) {
        if (!consume(',')) return false;
        continue;
      }
      return consume(']');
    }
  }

  bool parse_hash(std::uint64_t& out) {
    std::string hex;
    if (!parse_string(hex)) return false;
    const auto value = parse_hash_hex(hex);
    if (!value) return fail("bad hash '" + hex + "'");
    out = *value;
    return true;
  }
};

bool parse_output(Parser& parser, OutputRecord& output) {
  return parser.parse_object([&](const std::string& key) {
    if (key == "path") return parser.parse_string(output.path);
    if (key == "hash") return parser.parse_hash(output.hash);
    return parser.fail("unknown output key '" + key + "'");
  });
}

bool parse_stage(Parser& parser, StageRecord& stage) {
  return parser.parse_object([&](const std::string& key) {
    if (key == "name") return parser.parse_string(stage.name);
    if (key == "status") return parser.parse_string(stage.status);
    if (key == "inputs_hash") return parser.parse_hash(stage.inputs_hash);
    if (key == "error") return parser.parse_string(stage.error);
    if (key == "wall_ms") {
      double value = 0;
      if (!parser.parse_number(value)) return false;
      stage.wall_ms = value;
      return true;
    }
    if (key == "peak_rss_kb") {
      double value = 0;
      if (!parser.parse_number(value)) return false;
      stage.peak_rss_kb = static_cast<long>(value);
      return true;
    }
    if (key == "outputs") {
      return parser.parse_array([&] {
        OutputRecord output;
        if (!parse_output(parser, output)) return false;
        stage.outputs.push_back(std::move(output));
        return true;
      });
    }
    return parser.fail("unknown stage key '" + key + "'");
  });
}

}  // namespace

const StageRecord* RunManifest::find(std::string_view name) const noexcept {
  for (const StageRecord& stage : stages) {
    if (stage.name == name) return &stage;
  }
  return nullptr;
}

std::string RunManifest::config_value(std::string_view key) const {
  for (const auto& [k, v] : config) {
    if (k == key) return v;
  }
  return {};
}

void RunManifest::upsert(StageRecord record) {
  for (StageRecord& stage : stages) {
    if (stage.name == record.name) {
      stage = std::move(record);
      return;
    }
  }
  stages.push_back(std::move(record));
}

std::string RunManifest::to_json() const {
  std::string out;
  out += "{\n  \"version\": " + std::to_string(version) + ",\n  \"campaign\": ";
  append_escaped(out, campaign);
  out += ",\n  \"config\": {";
  for (std::size_t i = 0; i < config.size(); ++i) {
    out += i == 0 ? "\n    " : ",\n    ";
    append_escaped(out, config[i].first);
    out += ": ";
    append_escaped(out, config[i].second);
  }
  out += config.empty() ? "},\n" : "\n  },\n";
  out += "  \"stages\": [";
  for (std::size_t i = 0; i < stages.size(); ++i) {
    const StageRecord& stage = stages[i];
    out += i == 0 ? "\n    {" : ",\n    {";
    out += "\n      \"name\": ";
    append_escaped(out, stage.name);
    out += ",\n      \"status\": ";
    append_escaped(out, stage.status);
    out += ",\n      \"inputs_hash\": ";
    append_escaped(out, hash_hex(stage.inputs_hash));
    out += ",\n      \"outputs\": [";
    for (std::size_t j = 0; j < stage.outputs.size(); ++j) {
      out += j == 0 ? " " : ", ";
      out += "{ \"path\": ";
      append_escaped(out, stage.outputs[j].path);
      out += ", \"hash\": ";
      append_escaped(out, hash_hex(stage.outputs[j].hash));
      out += " }";
    }
    out += stage.outputs.empty() ? "]," : " ],";
    char number[64];
    std::snprintf(number, sizeof number, "%.3f", stage.wall_ms);
    out += "\n      \"wall_ms\": ";
    out += number;
    out += ",\n      \"peak_rss_kb\": " + std::to_string(stage.peak_rss_kb);
    if (!stage.error.empty()) {
      out += ",\n      \"error\": ";
      append_escaped(out, stage.error);
    }
    out += "\n    }";
  }
  out += stages.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

std::optional<RunManifest> RunManifest::from_json(std::string_view text, std::string* error) {
  Parser parser{text, 0, {}};
  RunManifest manifest;
  manifest.version = 0;
  const bool ok = parser.parse_object([&](const std::string& key) {
    if (key == "version") {
      double value = 0;
      if (!parser.parse_number(value)) return false;
      manifest.version = static_cast<int>(value);
      return true;
    }
    if (key == "campaign") return parser.parse_string(manifest.campaign);
    if (key == "config") {
      return parser.parse_object([&](const std::string& config_key) {
        std::string value;
        if (!parser.parse_string(value)) return false;
        manifest.config.emplace_back(config_key, std::move(value));
        return true;
      });
    }
    if (key == "stages") {
      return parser.parse_array([&] {
        StageRecord stage;
        if (!parse_stage(parser, stage)) return false;
        manifest.stages.push_back(std::move(stage));
        return true;
      });
    }
    return parser.fail("unknown manifest key '" + key + "'");
  });
  if (!ok) {
    if (error != nullptr) *error = parser.error;
    return std::nullopt;
  }
  parser.skip_ws();
  if (parser.pos != text.size()) {
    if (error != nullptr) *error = "trailing bytes after manifest";
    return std::nullopt;
  }
  if (manifest.version != 1) {
    if (error != nullptr) {
      *error = "unsupported manifest version " + std::to_string(manifest.version);
    }
    return std::nullopt;
  }
  return manifest;
}

bool RunManifest::save(const std::string& path, std::string* error) const {
  return io::atomic_write_file(path, to_json(), error);
}

std::optional<RunManifest> RunManifest::load(const std::string& path, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return from_json(buffer.str(), error);
}

}  // namespace sp::pipeline
