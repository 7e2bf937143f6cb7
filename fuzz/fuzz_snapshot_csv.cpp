// Fuzz target: sp::io::parse_snapshot_csv must reject malformed input
// with nullopt — never crash — and whatever it accepts must come back
// equal after write_snapshot_csv and a second parse through
// read_snapshot_csv (reject or round-trip: a snapshot re-exported from a
// parsed one is the same snapshot). The re-export is staged through a
// temp file because the writer's contract is a path.
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <string_view>

#include "io/snapshot_csv.h"

namespace {

bool same(const sp::dns::ResolutionSnapshot& a, const sp::dns::ResolutionSnapshot& b) {
  if (a.date() != b.date() || a.domain_count() != b.domain_count()) return false;
  for (std::size_t i = 0; i < a.domain_count(); ++i) {
    const auto& x = a.entries()[i];
    const auto& y = b.entries()[i];
    if (x.queried != y.queried || x.response_name != y.response_name || x.v4 != y.v4 ||
        x.v6 != y.v6) {
      return false;
    }
  }
  return true;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  const std::string_view text(reinterpret_cast<const char*>(data), size);
  const auto snapshot = sp::io::parse_snapshot_csv(text);
  if (!snapshot) return 0;

  char path[] = "/tmp/sp_fuzz_snapshot_XXXXXX";
  const int fd = mkstemp(path);
  if (fd < 0) return 0;
  ::close(fd);
  const bool written = sp::io::write_snapshot_csv(path, *snapshot);
  const auto again = written ? sp::io::read_snapshot_csv(path) : std::nullopt;
  std::remove(path);
  if (written && (!again || !same(*again, *snapshot))) __builtin_trap();
  return 0;
}
