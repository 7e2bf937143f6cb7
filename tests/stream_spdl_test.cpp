// SPDL delta-log contract: diff_sibdb + apply_spdl reproduce the target
// snapshot byte-for-byte; the canonical encoding round-trips
// (encode(decode(b)) == b); every single-byte flip and every truncation
// of a valid image is rejected with a reason; apply refuses the wrong
// base and a result-hash mismatch without touching the output path.
#include "stream/spdl.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "stream/reload.h"

namespace sp::stream {
namespace {

using core::SiblingPair;

Prefix p(const char* text) { return Prefix::must_parse(text); }

SiblingPair make(const char* v4, const char* v6, double similarity = 1.0,
                 std::uint32_t shared = 1) {
  SiblingPair pair;
  pair.v4 = p(v4);
  pair.v6 = p(v6);
  pair.similarity = similarity;
  pair.shared_domains = shared;
  pair.v4_domain_count = shared + 1;
  pair.v6_domain_count = shared + 2;
  return pair;
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::vector<SiblingPair> base_list() {
  return {
      make("20.1.0.0/16", "2620:100::/48", 1.0, 3),
      make("20.2.0.0/16", "2620:200::/48", 0.8, 2),
      make("20.3.0.0/16", "2620:300::/48", 0.6, 1),
      make("20.4.0.0/16", "2620:400::/48", 0.5, 4),
  };
}

std::vector<SiblingPair> target_list() {
  return {
      make("20.1.0.0/16", "2620:100::/48", 1.0, 3),   // unchanged
      make("20.2.0.0/16", "2620:200::/48", 0.75, 2),  // similarity changed
      make("20.4.0.0/16", "2620:400::/48", 0.5, 4),   // unchanged (20.3 removed)
      make("20.9.0.0/16", "2620:900::/48", 0.9, 5),   // added
  };
}

/// Writes both snapshots, loads them, and returns (base, target, delta).
struct Fixture {
  std::string dir;
  std::string base_path;
  std::string target_path;
  serve::SiblingDB base;
  serve::SiblingDB target;
  SibdbDelta delta;
};

Fixture make_fixture(const std::string& name) {
  const std::string dir = fresh_dir(name);
  const std::string base_path = dir + "/base.sibdb";
  const std::string target_path = dir + "/target.sibdb";
  EXPECT_TRUE(serve::write_sibdb(base_path, base_list(), "base month"));
  EXPECT_TRUE(serve::write_sibdb(target_path, target_list(), "target month"));
  auto base = serve::SiblingDB::load(base_path);
  auto target = serve::SiblingDB::load(target_path);
  EXPECT_TRUE(base.has_value());
  EXPECT_TRUE(target.has_value());
  std::string error;
  auto delta = diff_sibdb(*base, *target, &error);
  EXPECT_TRUE(delta.has_value()) << error;
  return {dir, base_path, target_path, std::move(*base), std::move(*target), std::move(*delta)};
}

TEST(StreamSpdl, DiffCapturesRemovalsAndUpserts) {
  const Fixture fx = make_fixture("spdl_diff");
  ASSERT_EQ(fx.delta.removed.size(), 1u);
  EXPECT_EQ(fx.delta.removed[0].first, p("20.3.0.0/16"));
  ASSERT_EQ(fx.delta.upserted.size(), 2u);
  EXPECT_EQ(fx.delta.upserted[0].v4, p("20.2.0.0/16"));
  EXPECT_DOUBLE_EQ(fx.delta.upserted[0].similarity, 0.75);
  EXPECT_EQ(fx.delta.upserted[1].v4, p("20.9.0.0/16"));
  EXPECT_EQ(fx.delta.label, "target month");
  EXPECT_EQ(fx.delta.base_pair_count, 4u);
  EXPECT_EQ(fx.delta.base_hash, sibdb_file_hash(fx.base.raw_bytes()));
  EXPECT_EQ(fx.delta.result_hash, sibdb_file_hash(fx.target.raw_bytes()));
  EXPECT_FALSE(fx.delta.empty());
}

TEST(StreamSpdl, DiffOfIdenticalSnapshotsIsEmpty) {
  const std::string dir = fresh_dir("spdl_empty");
  ASSERT_TRUE(serve::write_sibdb(dir + "/a.sibdb", base_list(), "same"));
  const auto db = serve::SiblingDB::load(dir + "/a.sibdb");
  ASSERT_TRUE(db.has_value());
  const auto delta = diff_sibdb(*db, *db);
  ASSERT_TRUE(delta.has_value());
  EXPECT_TRUE(delta->empty());
  EXPECT_EQ(delta->base_hash, delta->result_hash);

  // An empty delta still applies: the output is the same snapshot again.
  ASSERT_TRUE(apply_spdl(*db, *delta, dir + "/b.sibdb"));
  EXPECT_EQ(read_file(dir + "/a.sibdb"), read_file(dir + "/b.sibdb"));
}

TEST(StreamSpdl, EncodeDecodeRoundTripsExactly) {
  const Fixture fx = make_fixture("spdl_roundtrip");
  const std::vector<std::uint8_t> bytes = encode_spdl(fx.delta);
  std::string error;
  const auto decoded = decode_spdl(bytes, &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(decoded->removed, fx.delta.removed);
  ASSERT_EQ(decoded->upserted.size(), fx.delta.upserted.size());
  for (std::size_t i = 0; i < decoded->upserted.size(); ++i) {
    EXPECT_EQ(decoded->upserted[i], fx.delta.upserted[i]);
    EXPECT_DOUBLE_EQ(decoded->upserted[i].similarity, fx.delta.upserted[i].similarity);
  }
  EXPECT_EQ(decoded->label, fx.delta.label);
  EXPECT_EQ(decoded->base_hash, fx.delta.base_hash);
  EXPECT_EQ(decoded->base_pair_count, fx.delta.base_pair_count);
  EXPECT_EQ(decoded->result_hash, fx.delta.result_hash);

  // The canonical-layout property the fuzzer leans on.
  EXPECT_EQ(encode_spdl(*decoded), bytes);
}

TEST(StreamSpdl, ApplyReproducesTargetBytes) {
  const Fixture fx = make_fixture("spdl_apply");
  const std::string out = fx.dir + "/patched.sibdb";
  std::string error;
  ASSERT_TRUE(apply_spdl(fx.base, fx.delta, out, &error)) << error;
  EXPECT_EQ(read_file(out), read_file(fx.target_path));
}

TEST(StreamSpdl, WriteReadRoundTripsThroughDisk) {
  const Fixture fx = make_fixture("spdl_disk");
  const std::string path = fx.dir + "/delta.spdl";
  ASSERT_TRUE(write_spdl(path, fx.delta));
  std::string error;
  const auto loaded = read_spdl(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(encode_spdl(*loaded), encode_spdl(fx.delta));
}

TEST(StreamSpdl, WriteToFullDeviceFails) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  EXPECT_FALSE(write_spdl("/dev/full", SibdbDelta{}));
}

TEST(StreamSpdl, EverySingleByteFlipIsRejected) {
  const Fixture fx = make_fixture("spdl_flip");
  const std::vector<std::uint8_t> bytes = encode_spdl(fx.delta);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::vector<std::uint8_t> mutated = bytes;
    mutated[i] ^= 0x01;
    std::string error;
    EXPECT_FALSE(decode_spdl(mutated, &error).has_value())
        << "flip at byte " << i << " was accepted";
    EXPECT_FALSE(error.empty()) << "flip at byte " << i;
  }
}

TEST(StreamSpdl, EveryTruncationIsRejected) {
  const Fixture fx = make_fixture("spdl_trunc");
  const std::vector<std::uint8_t> bytes = encode_spdl(fx.delta);
  for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
    const std::vector<std::uint8_t> truncated(bytes.begin(),
                                              bytes.begin() + static_cast<long>(keep));
    EXPECT_FALSE(decode_spdl(truncated).has_value()) << "truncation to " << keep << " bytes";
  }
}

TEST(StreamSpdl, ApplyRejectsWrongBase) {
  const Fixture fx = make_fixture("spdl_wrongbase");
  const std::string out = fx.dir + "/never.sibdb";
  std::string error;
  // The target is not the base the delta was diffed against.
  EXPECT_FALSE(apply_spdl(fx.target, fx.delta, out, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(std::filesystem::exists(out));
}

TEST(StreamSpdl, ApplyRejectsResultHashMismatch) {
  const Fixture fx = make_fixture("spdl_resulthash");
  SibdbDelta tampered = fx.delta;
  tampered.result_hash ^= 1;
  const std::string out = fx.dir + "/never.sibdb";
  std::string error;
  EXPECT_FALSE(apply_spdl(fx.base, tampered, out, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(std::filesystem::exists(out));
}

TEST(StreamSpdl, ApplyRejectsRemovedKeyAbsentFromBase) {
  const Fixture fx = make_fixture("spdl_badremove");
  SibdbDelta tampered = fx.delta;
  tampered.removed[0] = {p("99.9.0.0/16"), p("2620:999::/48")};
  const std::string out = fx.dir + "/never.sibdb";
  std::string error;
  EXPECT_FALSE(apply_spdl(fx.base, tampered, out, &error));
  EXPECT_NE(error.find("removed key"), std::string::npos) << error;
  EXPECT_FALSE(std::filesystem::exists(out));
}

TEST(StreamSpdl, PathHelpers) {
  EXPECT_TRUE(is_spdl_path("out/delta-2020-10-11.spdl"));
  EXPECT_TRUE(is_spdl_path(".spdl"));
  EXPECT_FALSE(is_spdl_path("out/siblings.sibdb"));
  EXPECT_FALSE(is_spdl_path("spdl"));
  EXPECT_EQ(spdl_result_path("out/delta-2020-10-11.spdl"), "out/delta-2020-10-11.sibdb");
  EXPECT_EQ(spdl_result_path("delta.spdl"), "delta.sibdb");
  EXPECT_EQ(spdl_result_path("noext"), "noext.sibdb");
  EXPECT_EQ(spdl_result_path("dir.v2/noext"), "dir.v2/noext.sibdb");
}

}  // namespace
}  // namespace sp::stream
