#include "io/durable.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace sp::io {

namespace {

void fail(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what + ": " + std::strerror(errno);
}

/// The durable tail both publishers share: fsync the temp file through
/// `fd` and close it, rename it over `path`, fsync the parent directory.
bool sync_and_rename(int fd, const std::string& tmp_path, const std::string& path,
                     std::string* error) {
  if (::fsync(fd) != 0) {
    fail(error, "fsync " + tmp_path);
    ::close(fd);
    return false;
  }
  ::close(fd);
  if (::rename(tmp_path.c_str(), path.c_str()) != 0) {
    fail(error, "rename " + tmp_path + " -> " + path);
    return false;
  }
  return sync_parent_dir(path, error);
}

}  // namespace

bool sync_parent_dir(const std::string& path, std::string* error) {
  const auto slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    fail(error, "open dir " + dir);
    return false;
  }
  const bool ok = ::fsync(fd) == 0;
  if (!ok) fail(error, "fsync dir " + dir);
  ::close(fd);
  return ok;
}

bool durable_rename(const std::string& tmp_path, const std::string& path, std::string* error) {
  const int fd = ::open(tmp_path.c_str(), O_RDONLY);
  if (fd < 0) {
    fail(error, "open " + tmp_path);
    return false;
  }
  return sync_and_rename(fd, tmp_path, path, error);
}

bool atomic_write_file(const std::string& path, std::string_view bytes, std::string* error) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    fail(error, "open " + tmp);
    return false;
  }
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t got = ::write(fd, bytes.data() + written, bytes.size() - written);
    if (got < 0) {
      if (errno == EINTR) continue;
      fail(error, "write " + tmp);
      ::close(fd);
      ::unlink(tmp.c_str());
      return false;
    }
    written += static_cast<std::size_t>(got);
  }
  if (!sync_and_rename(fd, tmp, path, error)) {
    ::unlink(tmp.c_str());  // a no-op once the rename went through
    return false;
  }
  return true;
}

}  // namespace sp::io
