#include "serve/sibdb.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstring>
#include <fstream>
#include <utility>
#include <vector>

#include "core/sibling_list_io.h"
#include "netbase/fnv.h"
#include "obs/trace.h"

namespace sp::serve {

namespace {

constexpr char kMagic[8] = {'S', 'P', 'S', 'I', 'B', 'D', 'B', '\x01'};
constexpr std::uint32_t kEndianTag = 0x01020304u;
constexpr std::uint64_t kHeaderBytes = 128;

// The on-disk header. Field order is the file layout; everything is
// little-endian on the platforms this targets (the endian_tag rejects a
// mismatched reader).
struct Header {
  char magic[8];
  std::uint32_t version;
  std::uint32_t endian_tag;
  std::uint64_t header_bytes;
  std::uint64_t file_bytes;
  std::uint64_t pair_count;
  std::uint64_t checksum;  // FNV-1a64 over the file with this field zeroed
  std::uint64_t off_v4_addr;
  std::uint64_t off_v4_len;
  std::uint64_t off_v6_addr;
  std::uint64_t off_v6_len;
  std::uint64_t off_similarity;
  std::uint64_t off_shared;
  std::uint64_t off_v4_count;
  std::uint64_t off_v6_count;
  std::uint64_t off_pool;
  std::uint64_t pool_bytes;
};
static_assert(sizeof(Header) == kHeaderBytes, "sibdb header must stay 128 bytes");

/// Checksum of a whole file image with the header's checksum field zeroed.
std::uint64_t file_checksum(const std::uint8_t* data, std::size_t size) {
  return fnv1a64_zeroed_field(data, size, offsetof(Header, checksum));
}

constexpr std::uint64_t align8(std::uint64_t offset) { return (offset + 7) & ~std::uint64_t{7}; }

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

}  // namespace

bool write_sibdb(const std::string& path, std::span<const core::SiblingPair> pairs,
                 std::string_view source_label) {
  const obs::ScopedSpan span("sibdb.write", "serve");
  const std::uint64_t n = pairs.size();
  Header header{};
  std::memcpy(header.magic, kMagic, sizeof kMagic);
  header.version = kSibDbVersion;
  header.endian_tag = kEndianTag;
  header.header_bytes = kHeaderBytes;
  header.pair_count = n;

  std::uint64_t offset = kHeaderBytes;
  const auto place = [&offset](std::uint64_t bytes) {
    const std::uint64_t at = align8(offset);
    offset = at + bytes;
    return at;
  };
  header.off_v4_addr = place(n * sizeof(std::uint32_t));
  header.off_v4_len = place(n);
  header.off_v6_addr = place(n * 16);
  header.off_v6_len = place(n);
  header.off_similarity = place(n * sizeof(double));
  header.off_shared = place(n * sizeof(std::uint32_t));
  header.off_v4_count = place(n * sizeof(std::uint32_t));
  header.off_v6_count = place(n * sizeof(std::uint32_t));
  header.pool_bytes = source_label.size() + 1;  // NUL-terminated
  header.off_pool = place(header.pool_bytes);
  header.file_bytes = offset;

  std::vector<std::uint8_t> image(offset, 0);
  const auto put = [&image](std::uint64_t at, const void* data, std::size_t bytes) {
    // An empty label's data() may be null, and memcpy from null is
    // undefined even for zero bytes.
    if (bytes != 0) std::memcpy(image.data() + at, data, bytes);
  };
  for (std::uint64_t i = 0; i < n; ++i) {
    const core::SiblingPair& pair = pairs[i];
    const std::uint32_t v4 = pair.v4.address().v4().value();
    const std::uint8_t v4_len = static_cast<std::uint8_t>(pair.v4.length());
    const std::uint8_t v6_len = static_cast<std::uint8_t>(pair.v6.length());
    put(header.off_v4_addr + i * 4, &v4, 4);
    put(header.off_v4_len + i, &v4_len, 1);
    put(header.off_v6_addr + i * 16, pair.v6.address().v6().bytes().data(), 16);
    put(header.off_v6_len + i, &v6_len, 1);
    put(header.off_similarity + i * 8, &pair.similarity, 8);
    put(header.off_shared + i * 4, &pair.shared_domains, 4);
    put(header.off_v4_count + i * 4, &pair.v4_domain_count, 4);
    put(header.off_v6_count + i * 4, &pair.v6_domain_count, 4);
  }
  put(header.off_pool, source_label.data(), source_label.size());
  put(0, &header, sizeof header);
  const std::uint64_t checksum = file_checksum(image.data(), image.size());
  put(offsetof(Header, checksum), &checksum, sizeof checksum);

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out.write(reinterpret_cast<const char*>(image.data()),
            static_cast<std::streamsize>(image.size()));
  out.close();  // the last buffered bytes can fail to land too
  return static_cast<bool>(out);
}

bool convert_sibling_list(const std::string& csv_path, const std::string& sibdb_path,
                          std::string* error) {
  const obs::ScopedSpan span("sibdb.convert", "serve");
  core::SiblingListError csv_error;
  const auto pairs = core::read_sibling_list(csv_path, &csv_error);
  if (!pairs) {
    fail(error, "reading " + csv_path + ": " + csv_error.message +
                    (csv_error.line > 0 ? " (line " + std::to_string(csv_error.line) + ")" : ""));
    return false;
  }
  if (!write_sibdb(sibdb_path, *pairs, "converted from " + csv_path)) {
    fail(error, "writing " + sibdb_path + " failed");
    return false;
  }
  return true;
}

std::optional<SiblingDB> SiblingDB::load(const std::string& path, std::string* error) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    fail(error, "cannot open " + path);
    return std::nullopt;
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    fail(error, "cannot stat " + path);
    return std::nullopt;
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  if (size < kHeaderBytes) {
    ::close(fd);
    fail(error, "file shorter than the sibdb header");
    return std::nullopt;
  }
  void* mapping = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps its own reference
  if (mapping == MAP_FAILED) {
    fail(error, "mmap failed for " + path);
    return std::nullopt;
  }

  SiblingDB db;
  db.data_ = static_cast<const std::uint8_t*>(mapping);
  db.mapped_bytes_ = size;

  Header header{};
  std::memcpy(&header, db.data_, sizeof header);

  const auto reject = [&](std::string_view reason) {
    fail(error, std::string(reason));
    return std::optional<SiblingDB>{};
  };
  if (std::memcmp(header.magic, kMagic, sizeof kMagic) != 0) return reject("bad magic");
  if (header.version != kSibDbVersion) return reject("unsupported sibdb version");
  if (header.endian_tag != kEndianTag) return reject("endianness mismatch");
  if (header.header_bytes != kHeaderBytes) return reject("bad header size");
  if (header.file_bytes != size) return reject("declared size does not match the file");

  const std::uint64_t n = header.pair_count;
  const auto section_ok = [&](std::uint64_t offset, std::uint64_t element_bytes) {
    return offset % 8 == 0 && offset >= kHeaderBytes && offset <= size &&
           n <= (size - offset) / element_bytes;
  };
  if (!section_ok(header.off_v4_addr, 4) || !section_ok(header.off_v4_len, 1) ||
      !section_ok(header.off_v6_addr, 16) || !section_ok(header.off_v6_len, 1) ||
      !section_ok(header.off_similarity, 8) || !section_ok(header.off_shared, 4) ||
      !section_ok(header.off_v4_count, 4) || !section_ok(header.off_v6_count, 4)) {
    return reject("column section out of bounds");
  }
  if (header.off_pool % 8 != 0 || header.off_pool < kHeaderBytes || header.off_pool > size ||
      header.pool_bytes > size - header.off_pool) {
    return reject("string pool out of bounds");
  }
  if (header.pool_bytes > 0 && db.data_[header.off_pool + header.pool_bytes - 1] != 0) {
    return reject("string pool is not NUL-terminated");
  }
  if (file_checksum(db.data_, size) != header.checksum) return reject("checksum mismatch");

  db.pair_count_ = n;
  db.v4_addr_ = reinterpret_cast<const std::uint32_t*>(db.data_ + header.off_v4_addr);
  db.v4_len_ = db.data_ + header.off_v4_len;
  db.v6_addr_ = db.data_ + header.off_v6_addr;
  db.v6_len_ = db.data_ + header.off_v6_len;
  db.similarity_ = reinterpret_cast<const double*>(db.data_ + header.off_similarity);
  db.shared_ = reinterpret_cast<const std::uint32_t*>(db.data_ + header.off_shared);
  db.v4_count_ = reinterpret_cast<const std::uint32_t*>(db.data_ + header.off_v4_count);
  db.v6_count_ = reinterpret_cast<const std::uint32_t*>(db.data_ + header.off_v6_count);
  if (header.pool_bytes > 0) {
    db.source_label_ = reinterpret_cast<const char*>(db.data_ + header.off_pool);
  }

  // Per-record sanity: length in range, host bits zero. A record failing
  // this would make the lookup structures silently wrong, so the whole
  // file is rejected.
  for (std::uint64_t i = 0; i < n; ++i) {
    if (db.v4_len_[i] > 32 || db.v6_len_[i] > 128) return reject("prefix length out of range");
    const std::uint32_t v4 = db.v4_addr_[i];
    if (db.v4_len_[i] < 32 && (v4 & (0xFFFFFFFFu >> db.v4_len_[i])) != 0) {
      return reject("v4 prefix not canonical");
    }
    if (!v6_host_bits_zero(db.v6_addr_ + i * 16, db.v6_len_[i])) {
      return reject("v6 prefix not canonical");
    }
  }
  return db;
}

SiblingDB::SiblingDB(SiblingDB&& other) noexcept { *this = std::move(other); }

SiblingDB& SiblingDB::operator=(SiblingDB&& other) noexcept {
  if (this != &other) {
    reset();
    data_ = std::exchange(other.data_, nullptr);
    mapped_bytes_ = std::exchange(other.mapped_bytes_, 0);
    pair_count_ = std::exchange(other.pair_count_, 0);
    v4_addr_ = other.v4_addr_;
    v4_len_ = other.v4_len_;
    v6_addr_ = other.v6_addr_;
    v6_len_ = other.v6_len_;
    similarity_ = other.similarity_;
    shared_ = other.shared_;
    v4_count_ = other.v4_count_;
    v6_count_ = other.v6_count_;
    source_label_ = other.source_label_;
  }
  return *this;
}

SiblingDB::~SiblingDB() { reset(); }

void SiblingDB::reset() noexcept {
  if (data_ != nullptr) {
    // sp-lint: mmap-safety-ok(munmap takes void* by signature; the
    // mapping is released here, never written)
    ::munmap(const_cast<std::uint8_t*>(data_), mapped_bytes_);
    data_ = nullptr;
    mapped_bytes_ = 0;
    pair_count_ = 0;
  }
}

Prefix SiblingDB::v4_prefix(std::size_t i) const noexcept {
  return Prefix::of(IPAddress(IPv4Address(v4_addr_[i])), v4_len_[i]);
}

Prefix SiblingDB::v6_prefix(std::size_t i) const noexcept {
  IPv6Address::Bytes bytes;
  std::memcpy(bytes.data(), v6_addr_ + i * 16, 16);
  return Prefix::of(IPAddress(IPv6Address(bytes)), v6_len_[i]);
}

double SiblingDB::similarity(std::size_t i) const noexcept { return similarity_[i]; }
std::uint32_t SiblingDB::shared_domains(std::size_t i) const noexcept { return shared_[i]; }
std::uint32_t SiblingDB::v4_domain_count(std::size_t i) const noexcept { return v4_count_[i]; }
std::uint32_t SiblingDB::v6_domain_count(std::size_t i) const noexcept { return v6_count_[i]; }

core::SiblingPair SiblingDB::pair(std::size_t i) const noexcept {
  core::SiblingPair pair;
  pair.v4 = v4_prefix(i);
  pair.v6 = v6_prefix(i);
  pair.similarity = similarity_[i];
  pair.shared_domains = shared_[i];
  pair.v4_domain_count = v4_count_[i];
  pair.v6_domain_count = v6_count_[i];
  return pair;
}

}  // namespace sp::serve
