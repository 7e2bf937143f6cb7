// Generates the checked-in seed corpora under fuzz/corpus/<target>/.
// Seeds come from the project's own writers (format_csv_row,
// encode_dump, RunManifest::to_json, write_sibdb, write_snapshot_csv, a
// synthetic month rendered as a zone) plus a few handwritten
// edge cases, so every corpus starts on the accept path and mutation
// explores the reject boundary from valid inputs outward. Deterministic:
// re-running over an existing corpus rewrites identical bytes.
//
// Usage: sp_make_fuzz_seeds <corpus root>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "chaos/corrupt.h"
#include "core/detect.h"
#include "io/csv.h"
#include "io/snapshot_csv.h"
#include "mrt/codec.h"
#include "net/protocol.h"
#include "netbase/prefix.h"
#include "pipeline/manifest.h"
#include "serve/sibdb.h"
#include "stream/spdl.h"
#include "synth/universe.h"

namespace {

namespace fs = std::filesystem;

bool write_seed(const fs::path& dir, const std::string& name, const void* data,
                std::size_t size) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  std::ofstream out(dir / name, std::ios::binary | std::ios::trunc);
  out.write(static_cast<const char*>(data), static_cast<std::streamsize>(size));
  out.flush();
  if (!out) {
    std::fprintf(stderr, "make_seeds: cannot write %s\n", (dir / name).c_str());
    return false;
  }
  return true;
}

bool write_seed(const fs::path& dir, const std::string& name, const std::string& text) {
  return write_seed(dir, name, text.data(), text.size());
}

bool write_seed(const fs::path& dir, const std::string& name,
                const std::vector<std::uint8_t>& bytes) {
  return write_seed(dir, name, bytes.data(), bytes.size());
}

std::string csv_document() {
  std::string text;
  const std::vector<sp::io::CsvRow> rows = {
      {"v4_prefix", "v6_prefix", "similarity"},
      {"192.0.2.0/24", "2001:db8::/32", "0.9375"},
      {"plain", "has,comma", "has \"quote\""},
      {"multi\nline", "", "trailing"},
  };
  for (const sp::io::CsvRow& row : rows) {
    text += sp::io::format_csv_row(row);
    text += '\n';
  }
  return text;
}

bool make_csv_seeds(const fs::path& root) {
  const std::string document = csv_document();
  const fs::path dir = root / "parse_csv";
  return write_seed(dir, "list.csv", document) &&
         write_seed(dir, "empty_field.csv", std::string("a,,c\n")) &&
         write_seed(dir, "crlf.csv", std::string("a,b\r\nc,d\r\n")) &&
         write_seed(dir, "unbalanced.csv", std::string("a,\"open\n"));
}

bool make_snapshot_csv_seeds(const fs::path& root) {
  // One month of a small synthetic universe, as the export stage writes it.
  sp::synth::SynthConfig config;
  config.organization_count = 12;
  config.hg_prefix_scale = 0.005;
  config.months = 1;
  const sp::synth::SyntheticInternet internet(config);
  std::error_code ec;
  fs::create_directories(root / "snapshot_csv", ec);
  const fs::path month = root / "snapshot_csv" / "month.csv";
  if (!sp::io::write_snapshot_csv(month.string(), internet.snapshot_at(0))) {
    std::fprintf(stderr, "make_seeds: write_snapshot_csv failed\n");
    return false;
  }
  std::ifstream in(month, std::ios::binary);
  const std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());

  // The same rows in the rest of the dialect: every field quoted, CRLF
  // line breaks, a leading blank line.
  std::string quoted = "\r\n";
  bool field_open = false;
  for (const char c : text) {
    if (!field_open) {
      quoted.push_back('"');
      field_open = true;
    }
    if (c == ',' || c == '\n') {
      quoted += c == ',' ? "\"," : "\"\r\n";
      field_open = false;
    } else {
      quoted.push_back(c);
    }
  }
  if (!write_seed(root / "snapshot_csv", "quoted_crlf.csv", quoted)) return false;

  // Cut off mid-row.
  return write_seed(root / "snapshot_csv", "truncated.csv", text.substr(0, text.size() / 2 + 7));
}

bool make_zone_seeds(const fs::path& root) {
  const fs::path dir = root / "zone_file";
  // Every construct the parser reads: directives, '@', relative and
  // inherited owners, comments, a parenthesized SOA, quoted TXT, and each
  // record type.
  const std::string example =
      "$ORIGIN example.org.\n"
      "$TTL 300\n"
      "@   IN SOA ns1 hostmaster ( 2024091101 7200 900\n"
      "                            1209600 300 ) ; split across lines\n"
      "@        IN NS  ns1\n"
      "ns1      IN A   20.1.1.53\n"
      "www 60   IN A   20.1.1.10\n"
      "    60   IN AAAA 2620:100::10\n"
      "blog     IN CNAME www\n"
      "mail     IN MX  10 mx1.example.org.\n"
      "txt      IN TXT \"v=spf1 ip4:20.1.1.0/24 -all\"\n"
      "abs.example.net. IN A 20.9.9.9\n"
      "10.1.1.20.in-addr.arpa. IN PTR www\n"
      "$ORIGIN sub.example.org.\n"
      "deep     IN A   20.1.2.1\n";
  if (!write_seed(dir, "example.zone", example)) return false;

  // A CNAME loop and a chain longer than the resolver's depth guard.
  std::string chains = "a.loop. CNAME b.loop.\nb.loop. CNAME a.loop.\n";
  for (int i = 0; i < 10; ++i) {
    chains += "c" + std::to_string(i) + ".chain. CNAME c" + std::to_string(i + 1) + ".chain.\n";
  }
  chains += "c10.chain. A 192.0.2.1\nc10.chain. AAAA 2001:db8::1\n";
  if (!write_seed(dir, "chains.zone", chains)) return false;

  // One month of a small synthetic universe as a zone, the way
  // scripts/zone_vs_csv.sh renders a snapshot: each response name's
  // addresses once, plus `queried CNAME response` where the names differ.
  sp::synth::SynthConfig config;
  config.organization_count = 12;
  config.hg_prefix_scale = 0.005;
  config.months = 1;
  const sp::synth::SyntheticInternet internet(config);
  const sp::dns::ResolutionSnapshot snapshot = internet.snapshot_at(0);
  std::string month;
  std::set<std::string> seen;
  for (const auto& entry : snapshot.entries()) {
    const std::string response = entry.response_name.to_string();
    if (seen.insert(response).second) {
      for (const auto& address : entry.v4) month += response + ". A " + address.to_string() + "\n";
      for (const auto& address : entry.v6) {
        month += response + ". AAAA " + address.to_string() + "\n";
      }
    }
    if (entry.queried != entry.response_name) {
      month += entry.queried.to_string() + ". CNAME " + response + ".\n";
    }
  }
  if (!write_seed(dir, "month.zone", month)) return false;

  // The reject boundary: an unterminated quote and an unclosed paren.
  return write_seed(dir, "unterminated.zone",
                    std::string("x.example. TXT \"open\ny.example. SOA ns h ( 1 2 3\n"));
}

bool make_mrt_seeds(const fs::path& root) {
  const sp::synth::SyntheticInternet internet;
  if (!write_seed(root / "mrt_codec", "rib.mrt", sp::mrt::encode_dump(internet.mrt_dump()))) {
    return false;
  }
  if (!write_seed(root / "mrt_codec", "updates.mrt",
                  sp::mrt::encode_dump(internet.bgp4mp_updates_at(1)))) {
    return false;
  }
  const std::uint8_t truncated[] = {0x00, 0x00, 0x00, 0x00, 0x00, 0x0d};
  return write_seed(root / "mrt_codec", "truncated.mrt", truncated, sizeof(truncated));
}

bool make_manifest_seeds(const fs::path& root) {
  sp::pipeline::RunManifest manifest;
  manifest.campaign = "fuzz-seed";
  manifest.config = {{"months", "12"}, {"threshold", "0.5"}};
  sp::pipeline::StageRecord stage;
  stage.name = "detect";
  stage.status = "done";
  stage.inputs_hash = 0x1234abcd5678ef00ULL;
  stage.outputs.push_back({"siblings.csv", 0xfeedface0badf00dULL});
  stage.wall_ms = 12.5;
  manifest.stages.push_back(stage);
  if (!write_seed(root / "manifest_json", "run.json", manifest.to_json())) return false;

  const sp::pipeline::RunManifest empty;
  if (!write_seed(root / "manifest_json", "empty.json", empty.to_json())) return false;
  return write_seed(root / "manifest_json", "not_json.json", std::string("{\"version\":"));
}

bool make_sibdb_seeds(const fs::path& root) {
  std::error_code ec;
  fs::create_directories(root / "sibdb_open", ec);

  const std::vector<sp::core::SiblingPair> pairs = {
      {sp::Prefix::must_parse("192.0.2.0/24"), sp::Prefix::must_parse("2001:db8:1::/48"), 0.875,
       7, 8, 9},
      {sp::Prefix::must_parse("198.51.100.0/24"), sp::Prefix::must_parse("2001:db8:2::/48"), 0.5,
       3, 6, 6},
  };
  const std::string valid = (root / "sibdb_open" / "valid.sibdb").string();
  if (!sp::serve::write_sibdb(valid, pairs, "fuzz seed corpus")) {
    std::fprintf(stderr, "make_seeds: write_sibdb failed\n");
    return false;
  }
  const std::string empty = (root / "sibdb_open" / "empty.sibdb").string();
  if (!sp::serve::write_sibdb(empty, {}, "")) return false;

  // A header-sized prefix of the valid file: parses the magic, fails the
  // declared-size check.
  std::ifstream in(valid, std::ios::binary);
  std::vector<char> head(128);
  in.read(head.data(), static_cast<std::streamsize>(head.size()));
  if (!write_seed(root / "sibdb_open", "truncated.sibdb", head.data(),
                  static_cast<std::size_t>(in.gcount()))) {
    return false;
  }

  // The soak harness's corrupt-swap variants (sp::chaos): the corpus
  // covers exactly the damage the chaos RELOAD churn throws at a live
  // server, so fuzzing and soaking exercise the same reject boundary.
  const auto loaded = sp::serve::SiblingDB::load(valid);
  if (!loaded) return false;
  for (const sp::chaos::CorruptKind kind : sp::chaos::kAllCorruptKinds) {
    const std::string name =
        std::string("chaos_") + std::string(sp::chaos::to_string(kind)) + ".sibdb";
    if (!write_seed(root / "sibdb_open", name,
                    sp::chaos::corrupt_image(loaded->raw_bytes(), kind, /*seed=*/1))) {
      return false;
    }
  }
  return true;
}

bool make_net_frame_seeds(const fs::path& root) {
  // Seeds lead with the chunk-pattern selector byte the harness strips;
  // the wire bytes come from the project's own encoders so mutation
  // starts from every verb's accept path.
  const auto seed = [&](const std::string& name, std::uint8_t pattern,
                        const std::vector<std::uint8_t>& wire) {
    std::vector<std::uint8_t> input;
    input.push_back(pattern);
    input.insert(input.end(), wire.begin(), wire.end());
    return write_seed(root / "net_frame", name, input);
  };

  std::vector<std::uint8_t> pipelined;
  sp::net::QueryRequest query;
  query.request_id = 7;
  query.keys = {sp::Prefix::must_parse("192.0.2.1/32"), sp::Prefix::must_parse("2001:db8::/32")};
  sp::net::encode_query_request(pipelined, query);
  sp::net::encode_reload_request(pipelined, {});
  sp::net::encode_stats_request(pipelined);
  sp::net::encode_metrics_request(pipelined);
  if (!seed("pipeline.bin", 0, pipelined)) return false;

  std::vector<std::uint8_t> responses;
  sp::net::QueryResponse answer;
  answer.request_id = 7;
  answer.generation = 3;
  answer.answers.push_back(std::nullopt);
  sp::net::encode_query_response(responses, answer);
  sp::net::encode_reload_response(responses, {true, 4, ""});
  sp::net::encode_stats_response(responses, sp::net::StatsPayload{});
  sp::net::encode_error(responses, "bad");
  if (!seed("responses.bin", 1, responses)) return false;

  // The reject boundary: an oversized declared length must poison both
  // decoders identically.
  std::vector<std::uint8_t> oversized;
  oversized.push_back(0x01);
  sp::net::put_u32(oversized, 0x7fffffff);
  if (!seed("oversized.bin", 2, oversized)) return false;

  // A split header: the whole stream is a partial frame, zero yields.
  return seed("partial.bin", 3, {0x01, 0x03});
}

bool make_stream_delta_seeds(const fs::path& root) {
  // A real delta from the project's own differ: two snapshots with a
  // removal, a changed record, and an insertion between them.
  std::error_code ec;
  fs::create_directories(root / "stream_delta", ec);
  const std::vector<sp::core::SiblingPair> base_pairs = {
      {sp::Prefix::must_parse("192.0.2.0/24"), sp::Prefix::must_parse("2001:db8:1::/48"), 0.875,
       7, 8, 9},
      {sp::Prefix::must_parse("198.51.100.0/24"), sp::Prefix::must_parse("2001:db8:2::/48"), 0.5,
       3, 6, 6},
  };
  const std::vector<sp::core::SiblingPair> target_pairs = {
      {sp::Prefix::must_parse("192.0.2.0/24"), sp::Prefix::must_parse("2001:db8:1::/48"), 0.75,
       6, 8, 9},
      {sp::Prefix::must_parse("203.0.113.0/24"), sp::Prefix::must_parse("2001:db8:3::/48"), 1.0,
       4, 4, 4},
  };
  const std::string base_path = (root / "stream_delta" / "base.sibdb.tmp").string();
  const std::string target_path = (root / "stream_delta" / "target.sibdb.tmp").string();
  if (!sp::serve::write_sibdb(base_path, base_pairs, "fuzz seed base") ||
      !sp::serve::write_sibdb(target_path, target_pairs, "fuzz seed target")) {
    std::fprintf(stderr, "make_seeds: write_sibdb failed\n");
    return false;
  }
  const auto base = sp::serve::SiblingDB::load(base_path);
  const auto target = sp::serve::SiblingDB::load(target_path);
  fs::remove(base_path, ec);
  fs::remove(target_path, ec);
  if (!base || !target) return false;
  const auto delta = sp::stream::diff_sibdb(*base, *target);
  if (!delta) return false;
  if (!write_seed(root / "stream_delta", "month.spdl", sp::stream::encode_spdl(*delta))) {
    return false;
  }

  // The identity delta: header-only image (both sections empty).
  sp::stream::SibdbDelta identity;
  identity.label = "fuzz seed target";
  identity.base_hash = delta->base_hash;
  identity.base_pair_count = delta->base_pair_count;
  identity.result_hash = delta->base_hash;
  if (!write_seed(root / "stream_delta", "identity.spdl",
                  sp::stream::encode_spdl(identity))) {
    return false;
  }

  // The reject boundary: a truncated image (checksum can't verify) and a
  // version from the future.
  const std::vector<std::uint8_t> image = sp::stream::encode_spdl(*delta);
  if (!write_seed(root / "stream_delta", "truncated.spdl",
                  std::vector<std::uint8_t>(image.begin(), image.begin() + 64))) {
    return false;
  }
  std::vector<std::uint8_t> future = image;
  future[8] = 0xff;  // version field, little-endian u32 at offset 8
  if (!write_seed(root / "stream_delta", "future_version.spdl", future)) return false;

  // The soak harness's corrupt-swap variants (sp::chaos), mirroring the
  // sibdb_open corpus: same seeded damage, applied to the delta format.
  for (const sp::chaos::CorruptKind kind : sp::chaos::kAllCorruptKinds) {
    const std::string name =
        std::string("chaos_") + std::string(sp::chaos::to_string(kind)) + ".spdl";
    if (!write_seed(root / "stream_delta", name,
                    sp::chaos::corrupt_image(image, kind, /*seed=*/1))) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <corpus root>\n", argv[0]);
    return 2;
  }
  const fs::path root = argv[1];
  if (!make_csv_seeds(root) || !make_snapshot_csv_seeds(root) || !make_zone_seeds(root) ||
      !make_mrt_seeds(root) || !make_manifest_seeds(root) || !make_sibdb_seeds(root) ||
      !make_net_frame_seeds(root) || !make_stream_delta_seeds(root)) {
    return 1;
  }
  std::printf("seed corpora written under %s\n", root.c_str());
  return 0;
}
