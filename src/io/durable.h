// Crash-durable file publication — the tmp → fsync → rename → fsync(dir)
// sequence every artifact writer in the tree must use.
//
// rename() alone is atomic with respect to readers but not with respect
// to power loss: until the parent directory's metadata reaches disk, a
// crash can roll the directory entry back to the old file — or to no
// file at all for a first write. The campaign's artifacts and manifest
// (pipeline/) and the delta log's .sibdb publication (stream/spdl.cpp)
// all publish through this one audited implementation.
#pragma once

#include <string>
#include <string_view>

namespace sp::io {

/// fsyncs the directory containing `path` so a completed rename (or
/// create/unlink) of `path` survives power loss. On failure returns
/// false with an errno-annotated reason in `error` (may be null).
[[nodiscard]] bool sync_parent_dir(const std::string& path, std::string* error);

/// Publishes `tmp_path` as `path` durably: fsync(tmp), rename, fsync of
/// the parent directory. The temp file must already hold its final
/// bytes; on failure it is left in place for inspection. Returns false
/// with a reason in `error` (may be null).
[[nodiscard]] bool durable_rename(const std::string& tmp_path, const std::string& path,
                                  std::string* error);

/// Writes `bytes` to `path + ".tmp"` and publishes it as `path` with the
/// same fsync, rename and directory fsync. On failure the temp file is
/// removed. Returns false with a reason in `error` (may be null).
[[nodiscard]] bool atomic_write_file(const std::string& path, std::string_view bytes,
                                     std::string* error);

}  // namespace sp::io
