#include "common/file_util.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace trap::common {

namespace {

Status Errno(const std::string& what, const std::string& path) {
  return Status::Internal(what + " " + path + ": " + std::strerror(errno));
}

}  // namespace

Status AtomicWriteFile(const std::string& path, std::string_view content) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return Errno("cannot open", tmp);
  if (!content.empty() &&
      std::fwrite(content.data(), 1, content.size(), f) != content.size()) {
    std::fclose(f);
    std::remove(tmp.c_str());
    return Errno("short write to", tmp);
  }
  if (std::fflush(f) != 0) {
    std::fclose(f);
    std::remove(tmp.c_str());
    return Errno("cannot flush", tmp);
  }
  if (std::fclose(f) != 0) {
    std::remove(tmp.c_str());
    return Errno("cannot close", tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Errno("cannot publish", path);
  }
  return Status::Ok();
}

}  // namespace trap::common
