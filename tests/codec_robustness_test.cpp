// Failure-injection tests: the decoders of outside input (MRT, CSV,
// snapshot CSV, sibling list) must never crash, hang, or mis-handle
// corrupted input — every byte stream either parses cleanly or is rejected
// with an error.
#include <gtest/gtest.h>

#include <random>

#include "core/sibling_list_io.h"
#include "io/csv.h"
#include "io/snapshot_csv.h"
#include "mrt/codec.h"
#include "mrt/file.h"

namespace sp {
namespace {

std::vector<std::uint8_t> random_bytes(std::mt19937& rng, std::size_t max_size) {
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<std::size_t> size(0, max_size);
  std::vector<std::uint8_t> out(size(rng));
  for (auto& b : out) b = static_cast<std::uint8_t>(byte(rng));
  return out;
}

class DecoderFuzzProperty : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(DecoderFuzzProperty, MrtDecoderSurvivesRandomBytes) {
  std::mt19937 rng(GetParam());
  for (int i = 0; i < 3000; ++i) {
    const auto bytes = random_bytes(rng, 256);
    std::string error;
    const auto records = mrt::decode_dump(bytes, &error);
    if (records) {
      (void)mrt::encode_dump(*records);
    } else {
      ASSERT_FALSE(error.empty());
    }
  }
}

TEST_P(DecoderFuzzProperty, CsvParserSurvivesRandomText) {
  std::mt19937 rng(GetParam());
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<std::size_t> size(0, 400);
  const char alphabet[] = "abc,\"\n\r\\|0123456789";
  for (int i = 0; i < 3000; ++i) {
    std::string text(size(rng), ' ');
    for (auto& c : text) {
      c = alphabet[static_cast<std::size_t>(byte(rng)) % (sizeof alphabet - 1)];
    }
    const auto rows = io::parse_csv(text);
    if (rows) {
      // Re-formatting each parsed row must parse back to the same row.
      for (const auto& row : *rows) {
        const auto back = io::parse_csv(io::format_csv_row(row) + "\n");
        ASSERT_TRUE(back.has_value());
        ASSERT_EQ(back->size(), 1u);
        ASSERT_EQ(back->front(), row);
      }
    }
  }
}

// Bit-flip corruption of a structurally valid dump.
TEST_P(DecoderFuzzProperty, MrtDecoderSurvivesBitFlips) {
  std::mt19937 rng(GetParam() + 2000);
  mrt::RibRecord rib;
  rib.prefix = Prefix::must_parse("198.51.99.0/24");
  mrt::RibEntry entry;
  entry.attributes = mrt::PathAttributes::sequence({64500, 3356, 65001});
  entry.attributes.next_hop_v4 = *IPv4Address::from_string("192.0.2.1");
  rib.entries.push_back(entry);
  mrt::Bgp4mpUpdate update;
  update.peer_asn = 64500;
  update.local_asn = 65550;
  update.peer_address = IPAddress::must_parse("5.0.0.1");
  update.local_address = IPAddress::must_parse("5.0.0.2");
  update.attributes = mrt::PathAttributes::sequence({64500, 65001});
  update.announced = {Prefix::must_parse("20.7.0.0/16")};
  const std::vector<mrt::MrtRecord> records = {{0, rib}, {1, update}};
  const auto wire = mrt::encode_dump(records);

  std::uniform_int_distribution<std::size_t> position(0, wire.size() - 1);
  std::uniform_int_distribution<int> bit(0, 7);
  for (int i = 0; i < 4000; ++i) {
    auto corrupted = wire;
    corrupted[position(rng)] ^= static_cast<std::uint8_t>(1 << bit(rng));
    const auto decoded = mrt::decode_dump(corrupted);  // must not crash
    if (decoded) (void)mrt::encode_dump(*decoded);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecoderFuzzProperty, ::testing::Values(71u, 72u, 73u));

TEST(FileFormatRobustness, SnapshotAndSiblingListRejectBinaryGarbage) {
  std::mt19937 rng(99);
  const std::string path = ::testing::TempDir() + "/sp_garbage.bin";
  for (int i = 0; i < 20; ++i) {
    const auto bytes = random_bytes(rng, 2000);
    {
      std::FILE* f = std::fopen(path.c_str(), "wb");
      ASSERT_NE(f, nullptr);
      if (!bytes.empty()) {
        ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
      }
      std::fclose(f);
    }
    (void)io::read_snapshot_csv(path);        // must not crash
    (void)core::read_sibling_list(path);      // must not crash
    std::string error;
    (void)mrt::read_file(path, &error);       // must not crash
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sp
