#include "stream/spdl.h"

#include <cstdio>
#include <cstring>
#include <fstream>

#include "io/durable.h"

namespace sp::stream {

namespace {

constexpr char kMagic[8] = {'S', 'P', 'S', 'I', 'B', 'D', 'L', '\x01'};
constexpr std::uint32_t kEndianTag = 0x01020304u;
constexpr std::uint64_t kHeaderBytes = 112;
constexpr std::uint64_t kRemovedRecordBytes = 24;
constexpr std::uint64_t kUpsertRecordBytes = 48;

// The on-disk header. Field order is the file layout; little-endian on
// the platforms this targets (the endian_tag rejects a mismatched
// reader), same convention as the .sibdb header.
struct Header {
  char magic[8];
  std::uint32_t version;
  std::uint32_t endian_tag;
  std::uint64_t header_bytes;
  std::uint64_t file_bytes;
  std::uint64_t base_hash;
  std::uint64_t base_pair_count;
  std::uint64_t result_hash;
  std::uint64_t checksum;  // FNV-1a64 over the file with this field zeroed
  std::uint64_t removed_count;
  std::uint64_t upserted_count;
  std::uint64_t off_removed;
  std::uint64_t off_upserted;
  std::uint64_t off_label;
  std::uint64_t label_bytes;
};
static_assert(sizeof(Header) == kHeaderBytes, "spdl header must stay 112 bytes");

std::uint64_t fnv1a64(const std::uint8_t* data, std::size_t size, std::uint64_t hash) {
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= data[i];
    hash *= 0x100000001B3ull;
  }
  return hash;
}

/// Checksum of a whole file image with the header's checksum field zeroed.
std::uint64_t file_checksum(const std::uint8_t* data, std::size_t size) {
  constexpr std::uint64_t kBasis = 0xCBF29CE484222325ull;
  const std::size_t checksum_offset = offsetof(Header, checksum);
  std::uint64_t hash = fnv1a64(data, checksum_offset, kBasis);
  const std::uint8_t zeros[sizeof(std::uint64_t)] = {};
  hash = fnv1a64(zeros, sizeof zeros, hash);
  return fnv1a64(data + checksum_offset + sizeof(std::uint64_t),
                 size - checksum_offset - sizeof(std::uint64_t), hash);
}

void fail(std::string* error, std::string_view reason) {
  if (error != nullptr) *error = reason;
}

/// True when the v6 network address has all bits past `length` zero.
bool v6_host_bits_zero(const std::uint8_t* bytes, unsigned length) {
  for (unsigned bit = length; bit < 128; ++bit) {
    if ((bytes[bit / 8] >> (7u - bit % 8u)) & 1u) return false;
  }
  return true;
}

void put_key(std::uint8_t* out, const SiblingKey& key) {
  const std::uint32_t v4 = key.first.address().v4().value();
  const std::uint8_t v4_len = static_cast<std::uint8_t>(key.first.length());
  const std::uint8_t v6_len = static_cast<std::uint8_t>(key.second.length());
  std::memcpy(out, &v4, 4);
  out[4] = v4_len;
  out[5] = v6_len;
  out[6] = 0;
  out[7] = 0;
  std::memcpy(out + 8, key.second.address().v6().bytes().data(), 16);
}

/// Decodes and validates one 24-byte key. Returns false with a reason on
/// non-canonical prefixes or nonzero pad bytes.
bool get_key(const std::uint8_t* in, SiblingKey& key, std::string* error) {
  if (in[6] != 0 || in[7] != 0) {
    fail(error, "nonzero key pad bytes");
    return false;
  }
  std::uint32_t v4 = 0;
  std::memcpy(&v4, in, 4);
  const std::uint8_t v4_len = in[4];
  const std::uint8_t v6_len = in[5];
  if (v4_len > 32 || v6_len > 128) {
    fail(error, "prefix length out of range");
    return false;
  }
  if (v4_len < 32 && (v4 & (0xFFFFFFFFu >> v4_len)) != 0) {
    fail(error, "v4 prefix not canonical");
    return false;
  }
  if (!v6_host_bits_zero(in + 8, v6_len)) {
    fail(error, "v6 prefix not canonical");
    return false;
  }
  IPv6Address::Bytes v6_bytes;
  std::memcpy(v6_bytes.data(), in + 8, 16);
  key.first = Prefix::of(IPAddress(IPv4Address(v4)), v4_len);
  key.second = Prefix::of(IPAddress(IPv6Address(v6_bytes)), v6_len);
  return true;
}

/// Bitwise payload equality — the identity the byte-identical pipeline
/// cares about, not a tolerance comparison.
bool same_payload(const core::SiblingPair& a, const core::SiblingPair& b) {
  return std::memcmp(&a.similarity, &b.similarity, sizeof(double)) == 0 &&
         a.shared_domains == b.shared_domains && a.v4_domain_count == b.v4_domain_count &&
         a.v6_domain_count == b.v6_domain_count;
}

bool read_file_bytes(const std::string& path, std::vector<std::uint8_t>& out) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return false;
  const std::streamoff size = in.tellg();
  if (size < 0) return false;
  out.resize(static_cast<std::size_t>(size));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(out.data()), size);
  return static_cast<bool>(in);
}

}  // namespace

std::uint64_t sibdb_file_hash(std::span<const std::uint8_t> bytes) noexcept {
  return fnv1a64(bytes.data(), bytes.size(), 0xCBF29CE484222325ull);
}

std::optional<SibdbDelta> diff_sibdb(const serve::SiblingDB& base, const serve::SiblingDB& target,
                                     std::string* error) {
  SibdbDelta delta;
  delta.label = std::string(target.source_label());
  delta.base_hash = sibdb_file_hash(base.raw_bytes());
  delta.base_pair_count = base.size();
  delta.result_hash = sibdb_file_hash(target.raw_bytes());

  const auto key_at = [](const serve::SiblingDB& db, std::size_t i) {
    return SiblingKey{db.v4_prefix(i), db.v6_prefix(i)};
  };
  std::size_t bi = 0;
  std::size_t ti = 0;
  SiblingKey prev_base;
  SiblingKey prev_target;
  while (bi < base.size() || ti < target.size()) {
    SiblingKey base_key;
    SiblingKey target_key;
    // Sortedness is checked when an index advances: prev_* always holds
    // the key at index - 1 of the respective list.
    if (bi < base.size()) {
      base_key = key_at(base, bi);
      if (bi > 0 && !(prev_base < base_key)) {
        fail(error, "base snapshot is not strictly ascending by key");
        return std::nullopt;
      }
    }
    if (ti < target.size()) {
      target_key = key_at(target, ti);
      if (ti > 0 && !(prev_target < target_key)) {
        fail(error, "target snapshot is not strictly ascending by key");
        return std::nullopt;
      }
    }
    if (ti == target.size() || (bi < base.size() && base_key < target_key)) {
      delta.removed.push_back(base_key);
      prev_base = base_key;
      ++bi;
    } else if (bi == base.size() || target_key < base_key) {
      delta.upserted.push_back(target.pair(ti));
      prev_target = target_key;
      ++ti;
    } else {
      if (!same_payload(base.pair(bi), target.pair(ti))) {
        delta.upserted.push_back(target.pair(ti));
      }
      prev_base = base_key;
      prev_target = target_key;
      ++bi;
      ++ti;
    }
  }
  return delta;
}

std::vector<std::uint8_t> encode_spdl(const SibdbDelta& delta) {
  Header header{};
  std::memcpy(header.magic, kMagic, sizeof kMagic);
  header.version = kSpdlVersion;
  header.endian_tag = kEndianTag;
  header.header_bytes = kHeaderBytes;
  header.base_hash = delta.base_hash;
  header.base_pair_count = delta.base_pair_count;
  header.result_hash = delta.result_hash;
  header.removed_count = delta.removed.size();
  header.upserted_count = delta.upserted.size();
  header.off_removed = kHeaderBytes;
  header.off_upserted = header.off_removed + header.removed_count * kRemovedRecordBytes;
  header.off_label = header.off_upserted + header.upserted_count * kUpsertRecordBytes;
  header.label_bytes = delta.label.size() + 1;  // NUL-terminated
  header.file_bytes = header.off_label + header.label_bytes;

  std::vector<std::uint8_t> image(header.file_bytes, 0);
  for (std::size_t i = 0; i < delta.removed.size(); ++i) {
    put_key(image.data() + header.off_removed + i * kRemovedRecordBytes, delta.removed[i]);
  }
  for (std::size_t i = 0; i < delta.upserted.size(); ++i) {
    std::uint8_t* record = image.data() + header.off_upserted + i * kUpsertRecordBytes;
    const core::SiblingPair& pair = delta.upserted[i];
    put_key(record, sibling_key(pair));
    std::memcpy(record + 24, &pair.similarity, 8);
    std::memcpy(record + 32, &pair.shared_domains, 4);
    std::memcpy(record + 36, &pair.v4_domain_count, 4);
    std::memcpy(record + 40, &pair.v6_domain_count, 4);
    // record + 44 .. 47 stay zero (pad)
  }
  std::memcpy(image.data() + header.off_label, delta.label.data(), delta.label.size());
  std::memcpy(image.data(), &header, sizeof header);
  const std::uint64_t checksum = file_checksum(image.data(), image.size());
  std::memcpy(image.data() + offsetof(Header, checksum), &checksum, sizeof checksum);
  return image;
}

std::optional<SibdbDelta> decode_spdl(std::span<const std::uint8_t> bytes, std::string* error) {
  const auto reject = [&](std::string_view reason) {
    fail(error, reason);
    return std::optional<SibdbDelta>{};
  };
  if (bytes.size() < kHeaderBytes) return reject("file shorter than the spdl header");
  Header header{};
  std::memcpy(&header, bytes.data(), sizeof header);

  if (std::memcmp(header.magic, kMagic, sizeof kMagic) != 0) return reject("bad magic");
  if (header.version != kSpdlVersion) return reject("unsupported spdl version");
  if (header.endian_tag != kEndianTag) return reject("endianness mismatch");
  if (header.header_bytes != kHeaderBytes) return reject("bad header size");
  if (header.file_bytes != bytes.size()) return reject("declared size does not match the file");

  // The layout is canonical: sections are packed sequentially with no
  // gaps, so each offset is fully determined by the counts.
  const std::uint64_t payload = bytes.size() - kHeaderBytes;
  if (header.removed_count > payload / kRemovedRecordBytes ||
      header.upserted_count > payload / kUpsertRecordBytes) {
    return reject("record count out of bounds");
  }
  if (header.off_removed != kHeaderBytes ||
      header.off_upserted != header.off_removed + header.removed_count * kRemovedRecordBytes ||
      header.off_label != header.off_upserted + header.upserted_count * kUpsertRecordBytes) {
    return reject("sections are not packed sequentially");
  }
  if (header.label_bytes == 0 || header.off_label > bytes.size() ||
      header.label_bytes != bytes.size() - header.off_label) {
    return reject("label section does not end the file");
  }
  if (bytes[bytes.size() - 1] != 0) return reject("label is not NUL-terminated");
  for (std::uint64_t i = header.off_label; i + 1 < bytes.size(); ++i) {
    if (bytes[i] == 0) return reject("label has an interior NUL");
  }
  if (file_checksum(bytes.data(), bytes.size()) != header.checksum) {
    return reject("checksum mismatch");
  }

  SibdbDelta delta;
  delta.base_hash = header.base_hash;
  delta.base_pair_count = header.base_pair_count;
  delta.result_hash = header.result_hash;
  delta.label.assign(reinterpret_cast<const char*>(bytes.data() + header.off_label),
                     header.label_bytes - 1);

  delta.removed.resize(header.removed_count);
  for (std::uint64_t i = 0; i < header.removed_count; ++i) {
    std::string key_error;
    if (!get_key(bytes.data() + header.off_removed + i * kRemovedRecordBytes, delta.removed[i],
                 &key_error)) {
      return reject("removed[" + std::to_string(i) + "]: " + key_error);
    }
    if (i > 0 && !(delta.removed[i - 1] < delta.removed[i])) {
      return reject("removed keys are not strictly ascending");
    }
  }
  delta.upserted.resize(header.upserted_count);
  for (std::uint64_t i = 0; i < header.upserted_count; ++i) {
    const std::uint8_t* record = bytes.data() + header.off_upserted + i * kUpsertRecordBytes;
    SiblingKey key;
    std::string key_error;
    if (!get_key(record, key, &key_error)) {
      return reject("upserted[" + std::to_string(i) + "]: " + key_error);
    }
    core::SiblingPair& pair = delta.upserted[i];
    pair.v4 = key.first;
    pair.v6 = key.second;
    std::memcpy(&pair.similarity, record + 24, 8);
    std::memcpy(&pair.shared_domains, record + 32, 4);
    std::memcpy(&pair.v4_domain_count, record + 36, 4);
    std::memcpy(&pair.v6_domain_count, record + 40, 4);
    if (record[44] != 0 || record[45] != 0 || record[46] != 0 || record[47] != 0) {
      return reject("upserted[" + std::to_string(i) + "]: nonzero record pad bytes");
    }
    if (i > 0 && !(sibling_key(delta.upserted[i - 1]) < key)) {
      return reject("upserted keys are not strictly ascending");
    }
  }

  // Both lists are sorted, so one linear merge proves disjointness.
  std::size_t ri = 0;
  for (const core::SiblingPair& pair : delta.upserted) {
    const SiblingKey key = sibling_key(pair);
    while (ri < delta.removed.size() && delta.removed[ri] < key) ++ri;
    if (ri < delta.removed.size() && delta.removed[ri] == key) {
      return reject("a key appears in both removed and upserted");
    }
  }
  return delta;
}

bool write_spdl(const std::string& path, const SibdbDelta& delta) {
  const std::vector<std::uint8_t> image = encode_spdl(delta);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out.write(reinterpret_cast<const char*>(image.data()),
            static_cast<std::streamsize>(image.size()));
  out.close();  // the last buffered bytes can fail to land too
  return static_cast<bool>(out);
}

std::optional<SibdbDelta> read_spdl(const std::string& path, std::string* error) {
  std::vector<std::uint8_t> bytes;
  if (!read_file_bytes(path, bytes)) {
    fail(error, "cannot read " + path);
    return std::nullopt;
  }
  return decode_spdl(bytes, error);
}

bool apply_spdl(const serve::SiblingDB& base, const SibdbDelta& delta,
                const std::string& out_path, std::string* error) {
  if (base.size() != delta.base_pair_count) {
    fail(error, "base snapshot has " + std::to_string(base.size()) + " pairs, delta expects " +
                    std::to_string(delta.base_pair_count));
    return false;
  }
  if (sibdb_file_hash(base.raw_bytes()) != delta.base_hash) {
    fail(error, "base snapshot hash does not match the delta's base_hash");
    return false;
  }

  std::vector<core::SiblingPair> merged;
  merged.reserve(base.size() + delta.upserted.size());
  std::size_t ri = 0;
  std::size_t ui = 0;
  SiblingKey prev;
  for (std::size_t i = 0; i < base.size(); ++i) {
    const SiblingKey key{base.v4_prefix(i), base.v6_prefix(i)};
    if (i > 0 && !(prev < key)) {
      fail(error, "base snapshot is not strictly ascending by key");
      return false;
    }
    prev = key;
    while (ui < delta.upserted.size() && sibling_key(delta.upserted[ui]) < key) {
      merged.push_back(delta.upserted[ui++]);
    }
    if (ri < delta.removed.size() && delta.removed[ri] < key) {
      fail(error, "a removed key is absent from the base snapshot");
      return false;
    }
    if (ri < delta.removed.size() && delta.removed[ri] == key) {
      ++ri;
      continue;
    }
    if (ui < delta.upserted.size() && sibling_key(delta.upserted[ui]) == key) {
      merged.push_back(delta.upserted[ui++]);
      continue;
    }
    merged.push_back(base.pair(i));
  }
  if (ri != delta.removed.size()) {
    fail(error, "a removed key is absent from the base snapshot");
    return false;
  }
  while (ui < delta.upserted.size()) merged.push_back(delta.upserted[ui++]);

  const std::string tmp_path = out_path + ".tmp";
  if (!serve::write_sibdb(tmp_path, merged, delta.label)) {
    fail(error, "writing " + tmp_path + " failed");
    return false;
  }
  std::vector<std::uint8_t> produced;
  if (!read_file_bytes(tmp_path, produced)) {
    std::remove(tmp_path.c_str());
    fail(error, "cannot re-read " + tmp_path);
    return false;
  }
  if (sibdb_file_hash(produced) != delta.result_hash) {
    std::remove(tmp_path.c_str());
    fail(error, "patched snapshot hash does not match the delta's result_hash");
    return false;
  }
  // Durable publication (fsync file, rename, fsync dir): sp_serve RELOADs
  // this path immediately after, so a crash must never leave the directory
  // entry pointing at a half-published (or vanished) snapshot.
  std::string rename_error;
  if (!io::durable_rename(tmp_path, out_path, &rename_error)) {
    std::remove(tmp_path.c_str());
    if (error != nullptr) *error = "publishing " + out_path + " failed: " + rename_error;
    return false;
  }
  return true;
}

}  // namespace sp::stream
