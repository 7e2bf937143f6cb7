// The seeded key stream of the serve workloads and the in-process probes
// of the serve, stream and net layers.
#include <cstring>

#include "net/protocol.h"
#include "serve.h"
#include "serve/service.h"
#include "stream/reload.h"

namespace perfbench {

namespace {

/// An address of `base`'s family: `base`'s network bits, then `random`'s.
sp::IPAddress fill_host_bits(const sp::Prefix& base, std::uint64_t a, std::uint64_t b) {
  std::array<std::uint8_t, 16> bytes{};
  for (int i = 0; i < 8; ++i) {
    bytes[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(a >> (8 * i));
    bytes[static_cast<std::size_t>(i + 8)] = static_cast<std::uint8_t>(b >> (8 * i));
  }
  const auto& network = base.address().storage();
  for (unsigned bit = 0; bit < base.length(); ++bit) {
    const unsigned byte = bit / 8;
    const auto mask = static_cast<std::uint8_t>(0x80u >> (bit % 8));
    bytes[byte] = static_cast<std::uint8_t>((bytes[byte] & ~mask) | (network[byte] & mask));
  }
  if (base.family() == sp::Family::v4) {
    return sp::IPv4Address((std::uint32_t{bytes[0]} << 24) | (std::uint32_t{bytes[1]} << 16) |
                           (std::uint32_t{bytes[2]} << 8) | bytes[3]);
  }
  return sp::IPv6Address(bytes);
}

/// Runs `body` over `items` until at least 50 ms have passed; ns per item.
template <typename Items, typename Body>
double ns_per_item(const Items& items, Body&& body) {
  if (items.empty()) return 0.0;
  std::size_t done = 0;
  const Clock::time_point start = Clock::now();
  do {
    for (const auto& item : items) body(item);
    done += items.size();
  } while (ms_since(start) < 50.0);
  return ms_since(start) * 1e6 / static_cast<double>(done);
}

template <typename Body>
double median_ms(int repeats, Body&& body) {
  std::vector<double> samples;
  for (int i = 0; i < repeats; ++i) {
    const Clock::time_point start = Clock::now();
    body();
    samples.push_back(ms_since(start));
  }
  return median(samples);
}

}  // namespace

sp::Prefix make_key(const sp::serve::SiblingDB& db, const KeyMix& mix_config, std::uint64_t seed,
                    std::uint64_t conn, std::uint64_t frame, std::uint64_t slot) {
  const std::uint64_t u = mix(seed, conn, frame, slot);
  const bool v6 = unit(u, 1) < mix_config.v6_share;
  const std::size_t record = mix(u, 2) % db.size();
  const sp::Prefix base = v6 ? db.v6_prefix(record) : db.v4_prefix(record);
  const std::uint64_t a = mix(u, 3), b = mix(u, 4);
  if (unit(u, 5) < mix_config.prefix_share) {
    const unsigned length =
        std::min<unsigned>(base.length() + static_cast<unsigned>(mix(u, 6) % 5), base.max_length() - 1);
    return sp::Prefix::of(fill_host_bits(base, a, b), length);
  }
  if (unit(u, 7) < mix_config.hit_share) return sp::Prefix::host(fill_host_bits(base, a, b));
  // A uniform miss: any v4 address, or one in global unicast 2000::/3.
  const sp::Prefix space = v6 ? sp::Prefix::must_parse("2000::/3") : sp::Prefix();
  return sp::Prefix::host(fill_host_bits(space, a, b));
}

FramePool make_frame_pool(const sp::serve::SiblingDB& db,
                          const std::vector<const sp::serve::LookupEngine*>& engines,
                          const KeyMix& mix_config, std::uint64_t seed, std::uint64_t conn,
                          std::size_t frames, unsigned min_keys, unsigned max_keys) {
  FramePool pool;
  pool.expected.resize(engines.size());
  std::vector<std::uint8_t> encoded;
  for (std::size_t f = 0; f < frames; ++f) {
    const unsigned count =
        min_keys + static_cast<unsigned>(mix(seed, conn, f, 0x6b657973ull) % (max_keys - min_keys + 1));
    std::vector<sp::Prefix> keys;
    for (unsigned slot = 0; slot < count; ++slot) {
      keys.push_back(make_key(db, mix_config, seed, conn, f, slot));
    }
    encoded.clear();
    sp::net::encode_query_request(encoded, {0, keys});
    pool.requests.push_back(encoded);
    for (std::size_t v = 0; v < engines.size(); ++v) {
      sp::net::QueryResponse response;
      for (const sp::Prefix& key : keys) {
        response.answers.push_back(key.length() == key.max_length()
                                       ? engines[v]->query(key.address())
                                       : engines[v]->query(key));
      }
      encoded.clear();
      sp::net::encode_query_response(encoded, response);
      pool.expected[v].emplace_back(
          encoded.begin() + static_cast<std::ptrdiff_t>(sp::net::kHeaderSize + kResponseAnswersOffset),
          encoded.end());
    }
    pool.keys.push_back(std::move(keys));
  }
  return pool;
}

void probe_serve_layers(Result& result, const ProbeInputs& inputs) {
  // Snapshot footprint first, before the other probes leave freed pages
  // the allocator could reuse.
  {
    sp::serve::SiblingService service(2);
    const long before = current_rss_kb();
    std::string error;
    result.check(service.load(inputs.db_path, &error), "probe load failed: " + error);
    result.layer("serve.snapshot_rss_mb", static_cast<double>(current_rss_kb() - before) / 1024.0,
                 "MB");
  }
  std::string error;
  auto db = sp::serve::SiblingDB::load(inputs.db_path, &error);
  if (!result.check(db.has_value(), "probe cannot load " + inputs.db_path + ": " + error)) return;
  result.layer("serve.db_load_ms", median_ms(5, [&] {
                 (void)sp::serve::SiblingDB::load(inputs.db_path);
               }),
               "ms");
  result.layer("serve.engine_build_ms", median_ms(5, [&] {
                 const sp::serve::LookupEngine engine(*db);
                 (void)engine;
               }),
               "ms");
  {
    sp::serve::SiblingService service(2);
    result.layer("serve.service_load_ms",
                 median_ms(5, [&] { (void)service.load(inputs.db_path); }), "ms");
    std::vector<double> delta_ms;
    for (int i = 0; i < 5; ++i) {
      result.check(service.load(inputs.base_path, &error), "probe base load failed: " + error);
      const Clock::time_point start = Clock::now();
      result.check(sp::stream::apply_delta_and_reload(service, inputs.delta_path, &error),
                   "probe delta reload failed: " + error);
      delta_ms.push_back(ms_since(start));
    }
    result.layer("stream.delta_reload_ms", median(delta_ms), "ms");
  }

  // Lookups over the workload's own key stream, split by path.
  const sp::serve::LookupEngine engine(*db);
  std::vector<sp::IPAddress> v4, v6, addresses;
  std::vector<sp::Prefix> prefixes, all;
  for (const auto& frame : inputs.pool->keys) {
    for (const sp::Prefix& key : frame) {
      all.push_back(key);
      if (key.length() != key.max_length()) {
        prefixes.push_back(key);
        continue;
      }
      (key.family() == sp::Family::v4 ? v4 : v6).push_back(key.address());
      addresses.push_back(key.address());
    }
  }
  std::uint64_t sink = 0;
  const auto count = [&sink](const std::optional<sp::serve::SiblingAnswer>& answer) {
    sink += answer ? answer->shared_domains + 1 : 0;
  };
  result.layer("serve.lookup_v4_ns", ns_per_item(v4, [&](const auto& a) { count(engine.query(a)); }),
               "ns");
  result.layer("serve.lookup_v6_ns", ns_per_item(v6, [&](const auto& a) { count(engine.query(a)); }),
               "ns");
  result.layer("serve.lookup_prefix_ns",
               ns_per_item(prefixes, [&](const auto& p) { count(engine.query(p)); }), "ns");
  result.layer("serve.mixed_ns_per_key", ns_per_item(all, [&](const sp::Prefix& key) {
                 count(key.length() == key.max_length() ? engine.query(key.address())
                                                        : engine.query(key));
               }),
               "ns");
  {
    std::size_t done = 0;
    const Clock::time_point start = Clock::now();
    do {
      for (const auto& answer : engine.query_many(addresses)) count(answer);
      done += addresses.size();
    } while (ms_since(start) < 50.0);
    result.layer("serve.batch_ns_per_key", ms_since(start) * 1e6 / static_cast<double>(done), "ns");
  }
  std::uint64_t hits = 0;
  for (const sp::Prefix& key : all) {
    hits += (key.length() == key.max_length() ? engine.query(key.address()) : engine.query(key))
                ? 1
                : 0;
  }
  result.layer("serve.hit_ratio", static_cast<double>(hits) / static_cast<double>(all.size()),
               "ratio");

  // Protocol cost per frame: parse a request body, encode its response.
  std::vector<std::span<const std::uint8_t>> bodies;
  std::vector<sp::net::QueryResponse> responses;
  for (std::size_t f = 0; f < inputs.pool->requests.size(); ++f) {
    const auto& request = inputs.pool->requests[f];
    bodies.emplace_back(request.data() + sp::net::kHeaderSize, request.size() - sp::net::kHeaderSize);
    sp::net::QueryResponse response;
    for (const sp::Prefix& key : inputs.pool->keys[f]) {
      response.answers.push_back(key.length() == key.max_length() ? engine.query(key.address())
                                                                  : engine.query(key));
    }
    responses.push_back(std::move(response));
  }
  result.layer("net.decode_request_ns", ns_per_item(bodies, [&](const auto& body) {
                 std::string reason;
                 sink += sp::net::parse_query_request(body, &reason)->keys.size();
               }),
               "ns");
  std::vector<std::uint8_t> out;
  result.layer("net.encode_response_ns", ns_per_item(responses, [&](const auto& response) {
                 out.clear();
                 sp::net::encode_query_response(out, response);
                 sink += out.size();
               }),
               "ns");
  if (sink == 42) std::printf("\n");  // keeps the measured calls observable
}

}  // namespace perfbench
