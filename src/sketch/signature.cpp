#include "sketch/signature.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <limits>

#include "sketch/hash.h"

namespace sp::sketch {

namespace {

/// Prefixes claimed per atomic fetch during the parallel build; chunked
/// like the detection driver (core/detect_scan.h) so skewed set sizes
/// still balance.
constexpr std::size_t kBuildChunk = 64;

/// Fills one prefix's signature slot: hash every element, keep the k
/// smallest distinct values, sorted ascending. Deterministic per
/// (seed, set) — independent of which worker runs it.
void sign_one(std::span<const core::DomainId> elements, const SketchParams& params,
              std::vector<std::uint64_t>& scratch, std::uint64_t* slot,
              std::uint32_t& count_out) {
  // Bounded max-heap with threshold rejection: once k hashes are held,
  // an element only enters if it beats the current k-th smallest — a
  // ~k/|set| hit rate, so the common case is one hash + one compare per
  // element. The surviving multiset is exactly the k smallest hashes
  // (with multiplicity), identical to a full sort's first k.
  scratch.clear();
  const std::size_t keep = std::min<std::size_t>(params.k, elements.size());
  for (const core::DomainId element : elements) {
    const std::uint64_t hash = element_hash(element, params.seed);
    if (scratch.size() < keep) {
      scratch.push_back(hash);
      std::push_heap(scratch.begin(), scratch.end());
    } else if (hash < scratch.front()) {
      std::pop_heap(scratch.begin(), scratch.end());
      scratch.back() = hash;
      std::push_heap(scratch.begin(), scratch.end());
    }
  }
  std::sort(scratch.begin(), scratch.end());
  // Elements are distinct, so duplicate hashes are ~2^-64 collisions;
  // dedup keeps the signature strictly increasing.
  std::size_t m = 0;
  for (std::size_t i = 0; i < scratch.size(); ++i) {
    if (m == 0 || scratch[i] != slot[m - 1]) slot[m++] = scratch[i];
  }
  count_out = static_cast<std::uint32_t>(m);
}

// --- blob helpers (little-endian, fixed width) ---

template <typename T>
void put(std::string& out, T value) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out.push_back(static_cast<char>((static_cast<std::uint64_t>(value) >> (8 * i)) & 0xFF));
  }
}

template <typename T>
bool get(std::string_view blob, std::size_t& cursor, T& value) {
  if (blob.size() - cursor < sizeof(T)) return false;
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(blob[cursor + i])) << (8 * i);
  }
  value = static_cast<T>(v);
  cursor += sizeof(T);
  return true;
}

constexpr char kMagic[4] = {'S', 'P', 'S', 'K'};
constexpr std::uint32_t kVersion = 1;
constexpr std::uint32_t kMaxK = 4096;

bool fail(std::string* error, const char* reason) {
  if (error != nullptr) *error = reason;
  return false;
}

}  // namespace

double estimate_jaccard(const SignatureView& a, const SignatureView& b,
                        std::uint32_t k) noexcept {
  if (a.hashes.empty() || b.hashes.empty()) return 0.0;
  // When both signatures are complete the merge below walks the *entire*
  // hash sets, making the ratio the exact Jaccard; otherwise it stops at
  // the k smallest union hashes — the bottom-k sample.
  const bool exact = a.complete(k) && b.complete(k);
  const std::size_t limit = exact ? std::numeric_limits<std::size_t>::max() : k;
  std::size_t i = 0;
  std::size_t j = 0;
  std::size_t taken = 0;
  std::size_t shared = 0;
  while ((i < a.hashes.size() || j < b.hashes.size()) && taken < limit) {
    if (j >= b.hashes.size() || (i < a.hashes.size() && a.hashes[i] < b.hashes[j])) {
      ++i;
    } else if (i >= a.hashes.size() || b.hashes[j] < a.hashes[i]) {
      ++j;
    } else {
      ++shared;
      ++i;
      ++j;
    }
    ++taken;
  }
  return taken == 0 ? 0.0
                    : static_cast<double>(shared) / static_cast<double>(taken);
}

SignatureSet SignatureSet::build(const core::DetectIndex::Side& side,
                                 const SketchParams& params, core::WorkerPool* pool) {
  SignatureSet set;
  set.k_ = params.k;
  set.seed_ = params.seed;
  set.prefixes_ = side.prefixes;
  const std::size_t n = side.prefix_count();
  set.hashes_.assign(n * params.k, 0);
  set.counts_.assign(n, 0);
  set.set_sizes_.assign(n, 0);
  for (std::size_t dense = 0; dense < n; ++dense) {
    set.set_sizes_[dense] = side.set_size(static_cast<std::uint32_t>(dense));
  }

  if (pool == nullptr || n < 2 * kBuildChunk) {
    std::vector<std::uint64_t> scratch;
    for (std::size_t dense = 0; dense < n; ++dense) {
      sign_one(side.elements_of(static_cast<std::uint32_t>(dense)), params, scratch,
               set.hashes_.data() + dense * params.k, set.counts_[dense]);
    }
    return set;
  }

  // Shard-parallel build: workers claim chunks of dense ids and write only
  // their own k-strided slots, so the result is byte-identical to the
  // serial loop for every thread count (the pool join publishes writes).
  std::atomic<std::size_t> next{0};
  const std::function<void(unsigned)> job = [&](unsigned) {
    std::vector<std::uint64_t> scratch;
    for (;;) {
      // sp-lint: atomics-ok(work-stealing chunk cursor; claims need no
      // ordering, only uniqueness — the pool join publishes results)
      const std::size_t begin = next.fetch_add(kBuildChunk, std::memory_order_relaxed);
      if (begin >= n) return;
      const std::size_t end = std::min(n, begin + kBuildChunk);
      for (std::size_t dense = begin; dense < end; ++dense) {
        sign_one(side.elements_of(static_cast<std::uint32_t>(dense)), params, scratch,
                 set.hashes_.data() + dense * params.k, set.counts_[dense]);
      }
    }
  };
  pool->run(job);
  return set;
}

std::string SignatureSet::serialize() const {
  std::string out;
  out.append(kMagic, sizeof kMagic);
  put<std::uint32_t>(out, kVersion);
  put<std::uint32_t>(out, k_);
  put<std::uint64_t>(out, seed_);
  put<std::uint32_t>(out, prefix_count());
  for (std::uint32_t dense = 0; dense < prefix_count(); ++dense) {
    const Prefix& prefix = prefixes_[dense];
    const bool v4 = prefix.family() == Family::v4;
    put<std::uint8_t>(out, v4 ? 4 : 6);
    put<std::uint8_t>(out, static_cast<std::uint8_t>(prefix.length()));
    const auto& storage = prefix.address().storage();
    out.append(reinterpret_cast<const char*>(storage.data()), v4 ? 4 : 16);
    const SignatureView view = of(dense);
    put<std::uint32_t>(out, view.set_size);
    put<std::uint32_t>(out, static_cast<std::uint32_t>(view.hashes.size()));
    for (const std::uint64_t hash : view.hashes) put<std::uint64_t>(out, hash);
  }
  return out;
}

std::optional<SignatureSet> SignatureSet::deserialize(std::string_view blob,
                                                      std::string* error) {
  std::size_t cursor = 0;
  if (blob.size() < sizeof kMagic || std::memcmp(blob.data(), kMagic, sizeof kMagic) != 0) {
    fail(error, "bad magic");
    return std::nullopt;
  }
  cursor += sizeof kMagic;

  std::uint32_t version = 0;
  std::uint32_t k = 0;
  std::uint64_t seed = 0;
  std::uint32_t count = 0;
  if (!get(blob, cursor, version) || !get(blob, cursor, k) || !get(blob, cursor, seed) ||
      !get(blob, cursor, count)) {
    fail(error, "truncated header");
    return std::nullopt;
  }
  if (version != kVersion) {
    fail(error, "unsupported version");
    return std::nullopt;
  }
  if (k == 0 || k > kMaxK) {
    fail(error, "k out of range");
    return std::nullopt;
  }
  // Bound count by what the remaining bytes could possibly hold (each
  // prefix needs ≥ 14 bytes), so a corrupt count cannot drive a huge
  // allocation before the per-prefix reads fail.
  if (static_cast<std::uint64_t>(count) * 14 > blob.size() - cursor) {
    fail(error, "prefix count exceeds blob");
    return std::nullopt;
  }

  SignatureSet set;
  set.k_ = k;
  set.seed_ = seed;
  set.prefixes_.reserve(count);
  set.hashes_.assign(static_cast<std::size_t>(count) * k, 0);
  set.counts_.assign(count, 0);
  set.set_sizes_.assign(count, 0);

  for (std::uint32_t dense = 0; dense < count; ++dense) {
    std::uint8_t family_byte = 0;
    std::uint8_t length = 0;
    if (!get(blob, cursor, family_byte) || !get(blob, cursor, length)) {
      fail(error, "truncated prefix");
      return std::nullopt;
    }
    if (family_byte != 4 && family_byte != 6) {
      fail(error, "bad family byte");
      return std::nullopt;
    }
    const std::size_t address_bytes = family_byte == 4 ? 4 : 16;
    if (blob.size() - cursor < address_bytes) {
      fail(error, "truncated address");
      return std::nullopt;
    }
    IPAddress address;
    if (family_byte == 4) {
      address = IPAddress(IPv4Address::from_octets(
          static_cast<std::uint8_t>(blob[cursor]), static_cast<std::uint8_t>(blob[cursor + 1]),
          static_cast<std::uint8_t>(blob[cursor + 2]),
          static_cast<std::uint8_t>(blob[cursor + 3])));
    } else {
      IPv6Address::Bytes bytes{};
      std::memcpy(bytes.data(), blob.data() + cursor, 16);
      address = IPAddress(IPv6Address(bytes));
    }
    cursor += address_bytes;
    if (length > (family_byte == 4 ? 32 : 128)) {
      fail(error, "prefix length out of range");
      return std::nullopt;
    }
    const Prefix prefix = Prefix::of(address, length);
    // Canonicality: Prefix::of clears host bits; a blob whose address had
    // host bits set would not round-trip, so reject it.
    if (prefix.address() != address) {
      fail(error, "non-canonical prefix (host bits set)");
      return std::nullopt;
    }
    if (dense > 0 && !(set.prefixes_.back() < prefix)) {
      fail(error, "prefixes not strictly ascending");
      return std::nullopt;
    }

    std::uint32_t set_size = 0;
    std::uint32_t m = 0;
    if (!get(blob, cursor, set_size) || !get(blob, cursor, m)) {
      fail(error, "truncated signature header");
      return std::nullopt;
    }
    if (m > k || m > set_size) {
      fail(error, "signature hash count out of bounds");
      return std::nullopt;
    }
    if (set_size <= k && m != set_size) {
      // A set that fits in k must be completely sketched (collisions
      // aside a complete signature has exactly set_size hashes; we accept
      // fewer only for over-k sets where truncation is expected).
      fail(error, "incomplete signature for small set");
      return std::nullopt;
    }
    std::uint64_t* slot = set.hashes_.data() + static_cast<std::size_t>(dense) * k;
    for (std::uint32_t i = 0; i < m; ++i) {
      std::uint64_t hash = 0;
      if (!get(blob, cursor, hash)) {
        fail(error, "truncated hashes");
        return std::nullopt;
      }
      if (i > 0 && hash <= slot[i - 1]) {
        fail(error, "hashes not strictly ascending");
        return std::nullopt;
      }
      slot[i] = hash;
    }
    set.counts_[dense] = m;
    set.set_sizes_[dense] = set_size;
    set.prefixes_.push_back(prefix);
  }
  if (cursor != blob.size()) {
    fail(error, "trailing bytes");
    return std::nullopt;
  }
  return set;
}

}  // namespace sp::sketch
