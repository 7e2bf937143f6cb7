// Pieces the serve workloads share with the in-process layer probes: the
// seeded key stream and the QUERY frames built from it.
#pragma once

#include <cstdint>
#include <vector>

#include "bench.h"
#include "netbase/prefix.h"
#include "serve/lookup.h"
#include "serve/sibdb.h"

namespace perfbench {

/// The key mix of the serve workloads, drawn from the served snapshot.
struct KeyMix {
  double v6_share = 0.25;      // else v4
  double prefix_share = 0.05;  // whole-prefix keys (the trie path)
  double hit_share = 0.5;      // of address keys: inside a served prefix
};

/// Key `slot` of frame `frame` on connection `conn` — a pure function of
/// the seed and the served snapshot's prefixes.
[[nodiscard]] sp::Prefix make_key(const sp::serve::SiblingDB& db, const KeyMix& mix,
                                  std::uint64_t seed, std::uint64_t conn, std::uint64_t frame,
                                  std::uint64_t slot);

/// Pre-encoded QUERY frames of one connection, cycled by the generator,
/// with the answer bytes each snapshot must produce for them.
struct FramePool {
  std::vector<std::vector<sp::Prefix>> keys;
  std::vector<std::vector<std::uint8_t>> requests;  // whole frames; request_id patched at send
  /// expected[v][i]: the response body of frame i from engine v, after
  /// its request_id and generation fields.
  std::vector<std::vector<std::vector<std::uint8_t>>> expected;
};

/// `frames` frames of `min_keys`..`max_keys` keys each, answered by every
/// engine in `engines`.
[[nodiscard]] FramePool make_frame_pool(const sp::serve::SiblingDB& db,
                                        const std::vector<const sp::serve::LookupEngine*>& engines,
                                        const KeyMix& mix, std::uint64_t seed, std::uint64_t conn,
                                        std::size_t frames, unsigned min_keys, unsigned max_keys);

/// Offset of the answers inside a QUERY response body (request_id u32 +
/// generation u64).
inline constexpr std::size_t kResponseAnswersOffset = 12;

/// In-process measurements of the serve, stream and net layers over the
/// workload's own snapshot(s) and key stream; run after the measured
/// phase so they never perturb it.
struct ProbeInputs {
  std::string db_path;     // the served snapshot
  std::string base_path;   // the delta's base snapshot (may equal db_path)
  std::string delta_path;  // .spdl turning base into db
  const FramePool* pool = nullptr;
};
void probe_serve_layers(Result& result, const ProbeInputs& inputs);

}  // namespace perfbench
