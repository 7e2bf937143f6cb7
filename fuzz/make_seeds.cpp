// Generates the checked-in seed corpora under fuzz/corpus/<target>/.
// Seeds come from the project's own writers (format_csv_row,
// encode_dump, RunManifest::to_json, write_sibdb) plus a few handwritten
// edge cases, so every corpus starts on the accept path and mutation
// explores the reject boundary from valid inputs outward. Deterministic:
// re-running over an existing corpus rewrites identical bytes.
//
// Usage: sp_make_fuzz_seeds <corpus root>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "chaos/corrupt.h"
#include "core/detect.h"
#include "io/csv.h"
#include "mrt/codec.h"
#include "net/protocol.h"
#include "netbase/prefix.h"
#include "pipeline/manifest.h"
#include "serve/sibdb.h"
#include "sketch/signature.h"
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
  for (const char* target : {"parse_csv", "csv_stream"}) {
    if (!write_seed(root / target, "list.csv", document)) return false;
    if (!write_seed(root / target, "empty_field.csv", std::string("a,,c\n"))) return false;
    if (!write_seed(root / target, "crlf.csv", std::string("a,b\r\nc,d\r\n"))) return false;
    if (!write_seed(root / target, "unbalanced.csv", std::string("a,\"open\n"))) return false;
  }
  return true;
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

bool make_sketch_sig_seeds(const fs::path& root) {
  // A valid "SPSK" blob from the project's own serializer: mixed small
  // (complete) and over-k (truncated) signatures on both families.
  std::vector<sp::core::DetectIndex::Edge> edges;
  for (sp::core::DomainId element = 0; element < 10; ++element) {
    edges.push_back({sp::Prefix::must_parse("192.0.2.0/24"), element});
    edges.push_back({sp::Prefix::must_parse("2001:db8::/32"), element});
  }
  for (sp::core::DomainId element = 0; element < 200; ++element) {
    edges.push_back({sp::Prefix::must_parse("198.51.100.0/24"), element});
    edges.push_back({sp::Prefix::must_parse("2001:db8:1::/48"), element % 40});
  }
  const auto index = sp::core::DetectIndex::build(std::move(edges));
  const sp::sketch::SketchParams params{.k = 16};
  const std::string v4_blob =
      sp::sketch::SignatureSet::build(index.v4, params).serialize();
  const std::string v6_blob =
      sp::sketch::SignatureSet::build(index.v6, params).serialize();
  if (!write_seed(root / "sketch_sig", "v4.spsk", v4_blob)) return false;
  if (!write_seed(root / "sketch_sig", "v6.spsk", v6_blob)) return false;

  // The reject boundary: a truncated blob and a corrupt hash ordering.
  if (!write_seed(root / "sketch_sig", "truncated.spsk",
                  v4_blob.substr(0, v4_blob.size() / 2))) {
    return false;
  }
  std::string corrupt = v4_blob;
  // Zero the final hash (8 little-endian bytes): 0 can never follow a
  // strictly ascending run, so this seed sits exactly on the reject path.
  for (std::size_t i = corrupt.size() - 8; i < corrupt.size(); ++i) corrupt[i] = 0;
  return write_seed(root / "sketch_sig", "corrupt.spsk", corrupt);
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
  if (!make_csv_seeds(root) || !make_mrt_seeds(root) || !make_manifest_seeds(root) ||
      !make_sibdb_seeds(root) || !make_net_frame_seeds(root) || !make_sketch_sig_seeds(root) ||
      !make_stream_delta_seeds(root)) {
    return 1;
  }
  std::printf("seed corpora written under %s\n", root.c_str());
  return 0;
}
