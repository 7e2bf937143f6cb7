// Content-addressed checkpointing primitives for the campaign runner.
//
// A stage's checkpoint identity is an FNV-1a64 hash (the same scheme as
// the .sibdb whole-file checksum) chained over:
//
//   inputs_hash = fnv(stage name, stage-local config string,
//                     parent₁ outputs_hash, parent₂ outputs_hash, ...)
//   outputs_hash = fnv((relative path, file content hash) of every
//                      output, in declaration order)
//
// A completed stage recorded in the RunManifest is skipped on resume iff
// its recorded inputs_hash matches the recomputed one AND every recorded
// output file still hashes to its recorded value — so byte-identical
// inputs are never recomputed, while a changed config, a changed parent
// artifact, or a corrupted/truncated output file forces a re-run of
// exactly the affected downstream cone.
//
// Durability: outputs are published through io::atomic_write_file or
// io::durable_rename (fsync, rename, fsync of the directory), so a kill
// at any instant leaves either the old bytes, no file, or the complete
// new bytes — never a torn artifact that a recorded hash could
// false-positively match after page-cache loss.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "netbase/fnv.h"

namespace sp::pipeline {

/// FNV-1a64 of a file's full contents; nullopt when the file cannot be
/// read (missing output ⇒ checkpoint invalid).
[[nodiscard]] std::optional<std::uint64_t> hash_file(const std::string& path);

/// 16-digit lowercase hex encoding (manifest JSON stores hashes as
/// strings: 64-bit values do not survive double-precision JSON numbers).
[[nodiscard]] std::string hash_hex(std::uint64_t value);
[[nodiscard]] std::optional<std::uint64_t> parse_hash_hex(std::string_view text);

}  // namespace sp::pipeline
