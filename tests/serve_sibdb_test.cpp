// Tests for the .sibdb snapshot format: bit-exact round-trip through the
// mmap loader, CSV conversion, and a byte-mutation / truncation fuzz pass
// asserting that every corrupted image is rejected without crashing.
#include "serve/sibdb.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "core/sibling_list_io.h"

namespace sp::serve {
namespace {

Prefix p(const char* text) { return Prefix::must_parse(text); }

core::SiblingPair make_pair(const char* v4, const char* v6, double similarity,
                            std::uint32_t shared, std::uint32_t v4_count,
                            std::uint32_t v6_count) {
  core::SiblingPair pair;
  pair.v4 = p(v4);
  pair.v6 = p(v6);
  pair.similarity = similarity;
  pair.shared_domains = shared;
  pair.v4_domain_count = v4_count;
  pair.v6_domain_count = v6_count;
  return pair;
}

std::vector<core::SiblingPair> sample_pairs() {
  return {
      make_pair("20.1.0.0/16", "2620:100::/32", 0.75, 3, 4, 4),
      make_pair("20.1.2.0/24", "2620:100:1::/48", 1.0, 5, 5, 5),
      make_pair("198.51.100.0/24", "2001:db8:51::/48", 0.33333333333333331, 1, 3, 2),
      make_pair("0.0.0.0/0", "::/0", 0.015625, 1, 64, 64),
      make_pair("203.0.113.77/32", "2001:db8::1/128", 1.0, 2, 2, 2),
  };
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

TEST(ServeSibDb, RoundTripIsBitExact) {
  const auto pairs = sample_pairs();
  const std::string path = ::testing::TempDir() + "/sp_sibdb_roundtrip.sibdb";
  ASSERT_TRUE(write_sibdb(path, pairs, "unit-test"));

  std::string error;
  const auto db = SiblingDB::load(path, &error);
  ASSERT_TRUE(db.has_value()) << error;
  ASSERT_EQ(db->size(), pairs.size());
  EXPECT_FALSE(db->empty());
  EXPECT_EQ(db->source_label(), "unit-test");

  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(db->v4_prefix(i), pairs[i].v4) << i;
    EXPECT_EQ(db->v6_prefix(i), pairs[i].v6) << i;
    // Bit-exact doubles: the whole point of the binary format vs CSV.
    EXPECT_EQ(db->similarity(i), pairs[i].similarity) << i;
    EXPECT_EQ(db->shared_domains(i), pairs[i].shared_domains) << i;
    EXPECT_EQ(db->v4_domain_count(i), pairs[i].v4_domain_count) << i;
    EXPECT_EQ(db->v6_domain_count(i), pairs[i].v6_domain_count) << i;
    EXPECT_EQ(db->pair(i), pairs[i]) << i;
  }
}

TEST(ServeSibDb, EmptyDatabaseRoundTrips) {
  const std::string path = ::testing::TempDir() + "/sp_sibdb_empty.sibdb";
  ASSERT_TRUE(write_sibdb(path, {}));
  const auto db = SiblingDB::load(path);
  ASSERT_TRUE(db.has_value());
  EXPECT_TRUE(db->empty());
  EXPECT_EQ(db->source_label(), "");
}

TEST(ServeSibDb, WriteToFullDeviceFails) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  EXPECT_FALSE(write_sibdb("/dev/full", {}));
  EXPECT_FALSE(write_sibdb("/dev/full", sample_pairs(), "full"));
}

TEST(ServeSibDb, MoveTransfersMapping) {
  const std::string path = ::testing::TempDir() + "/sp_sibdb_move.sibdb";
  ASSERT_TRUE(write_sibdb(path, sample_pairs()));
  auto db = SiblingDB::load(path);
  ASSERT_TRUE(db.has_value());
  SiblingDB moved = std::move(*db);
  EXPECT_EQ(moved.size(), sample_pairs().size());
  EXPECT_EQ(moved.v4_prefix(1), p("20.1.2.0/24"));
}

TEST(ServeSibDb, MissingFileIsRejected) {
  std::string error;
  EXPECT_FALSE(SiblingDB::load(::testing::TempDir() + "/sp_sibdb_nonexistent.sibdb", &error));
  EXPECT_FALSE(error.empty());
}

// Every single-byte mutation anywhere in the image must be rejected: the
// checksum covers the whole file with the checksum field zeroed, so a flip
// in the checksum itself is caught too.
TEST(ServeSibDb, EveryByteFlipIsRejected) {
  const std::string path = ::testing::TempDir() + "/sp_sibdb_fuzz.sibdb";
  ASSERT_TRUE(write_sibdb(path, sample_pairs(), "fuzz"));
  const auto image = read_file(path);
  ASSERT_FALSE(image.empty());

  const std::string mutated_path = ::testing::TempDir() + "/sp_sibdb_fuzz_mut.sibdb";
  for (std::size_t offset = 0; offset < image.size(); ++offset) {
    auto mutated = image;
    mutated[offset] ^= 0xFF;
    write_file(mutated_path, mutated);
    std::string error;
    EXPECT_FALSE(SiblingDB::load(mutated_path, &error).has_value())
        << "byte flip at offset " << offset << " was accepted";
  }
}

TEST(ServeSibDb, TruncationsAreRejected) {
  const std::string path = ::testing::TempDir() + "/sp_sibdb_trunc.sibdb";
  ASSERT_TRUE(write_sibdb(path, sample_pairs()));
  const auto image = read_file(path);
  ASSERT_GT(image.size(), 16u);

  const std::string truncated_path = ::testing::TempDir() + "/sp_sibdb_trunc_cut.sibdb";
  std::mt19937 rng(7u);
  std::uniform_int_distribution<std::size_t> cut(0, image.size() - 1);
  for (int trial = 0; trial < 64; ++trial) {
    const std::size_t keep = cut(rng);
    write_file(truncated_path,
               std::vector<std::uint8_t>(image.begin(), image.begin() + keep));
    EXPECT_FALSE(SiblingDB::load(truncated_path).has_value())
        << "truncation to " << keep << " bytes was accepted";
  }
  // The degenerate cases explicitly.
  write_file(truncated_path, {});
  EXPECT_FALSE(SiblingDB::load(truncated_path).has_value());
  write_file(truncated_path, std::vector<std::uint8_t>(image.begin(), image.end() - 1));
  EXPECT_FALSE(SiblingDB::load(truncated_path).has_value());
}

TEST(ServeSibDb, GarbageFileIsRejected) {
  const std::string path = ::testing::TempDir() + "/sp_sibdb_garbage.sibdb";
  std::mt19937 rng(11u);
  std::vector<std::uint8_t> garbage(4096);
  for (auto& b : garbage) b = static_cast<std::uint8_t>(rng());
  write_file(path, garbage);
  std::string error;
  EXPECT_FALSE(SiblingDB::load(path, &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(ServeSibDb, ConvertSiblingList) {
  const auto pairs = sample_pairs();
  const std::string csv_path = ::testing::TempDir() + "/sp_sibdb_convert.csv";
  const std::string db_path = ::testing::TempDir() + "/sp_sibdb_convert.sibdb";
  ASSERT_TRUE(core::write_sibling_list(csv_path, pairs));

  std::string error;
  ASSERT_TRUE(convert_sibling_list(csv_path, db_path, &error)) << error;
  const auto db = SiblingDB::load(db_path, &error);
  ASSERT_TRUE(db.has_value()) << error;
  ASSERT_EQ(db->size(), pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(db->v4_prefix(i), pairs[i].v4);
    EXPECT_EQ(db->v6_prefix(i), pairs[i].v6);
    // CSV carries %.9f, so similarity matches the reparsed value, not
    // necessarily the original double.
    EXPECT_NEAR(db->similarity(i), pairs[i].similarity, 1e-9);
  }
  EXPECT_EQ(db->source_label(), "converted from " + csv_path);
}

TEST(ServeSibDb, ConvertReportsOffendingCsvLine) {
  const std::string csv_path = ::testing::TempDir() + "/sp_sibdb_convert_bad.csv";
  const std::string db_path = ::testing::TempDir() + "/sp_sibdb_convert_bad.sibdb";
  std::ofstream out(csv_path, std::ios::trunc);
  out << "v4_prefix,v6_prefix,similarity,shared_domains,v4_domains,v6_domains\n";
  out << "20.1.0.0/16,2620:100::/32,0.750000000,3,4,4\n";
  out << "not-a-prefix,2620:100::/32,0.5,1,1,1\n";
  out.close();

  std::string error;
  EXPECT_FALSE(convert_sibling_list(csv_path, db_path, &error));
  EXPECT_NE(error.find("line 3"), std::string::npos) << error;
  EXPECT_NE(error.find("bad v4_prefix"), std::string::npos) << error;
}

}  // namespace
}  // namespace sp::serve
