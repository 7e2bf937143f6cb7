#include "mrt/file.h"

#include <fstream>

namespace sp::mrt {

bool write_file(const std::string& path, std::span<const MrtRecord> records) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  const auto bytes = encode_dump(records);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  out.close();  // the last buffered bytes can fail to land too
  return static_cast<bool>(out);
}

std::optional<std::vector<MrtRecord>> read_file(const std::string& path, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return std::nullopt;
  }
  // istream::read sets badbit where istreambuf_iterator would throw (on a
  // directory, say), so a read error is reported rather than fatal.
  std::vector<std::uint8_t> bytes;
  char block[1 << 16];
  while (in.read(block, sizeof block) || in.gcount() > 0) {
    bytes.insert(bytes.end(), block, block + in.gcount());
  }
  if (in.bad()) {
    if (error != nullptr) *error = "cannot read " + path;
    return std::nullopt;
  }
  return decode_dump(bytes, error);
}

}  // namespace sp::mrt
