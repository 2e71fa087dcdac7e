#include "common/atomic_file.h"

#include <cstdio>
#include <fstream>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

namespace viaduct {

namespace {

/// Flushes a freshly written file's data to stable storage. Without this,
/// the rename can land before the data blocks do and a power loss would
/// leave a complete-looking but empty file.
bool syncFile(const std::string& path) {
#if defined(__unix__) || defined(__APPLE__)
  const int fd = ::open(path.c_str(), O_WRONLY);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
#else
  (void)path;
  return true;  // best effort off POSIX
#endif
}

/// Best-effort fsync of the directory holding `path`. Failure is not fatal:
/// the worst case after a crash is the previous file.
void syncParentDir(const std::string& path) {
#if defined(__unix__) || defined(__APPLE__)
  const auto slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "." : path.substr(0, slash);
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
#else
  (void)path;
#endif
}

}  // namespace

bool writeFileAtomically(const std::string& path,
                         const std::function<void(std::ostream&)>& write) {
  const std::string tmp = path + ".tmp";
  bool written = false;
  {
    std::ofstream os(tmp, std::ios::trunc);
    if (!os) return false;
    try {
      write(os);
    } catch (...) {
      os.close();
      std::remove(tmp.c_str());
      throw;
    }
    os.flush();
    written = static_cast<bool>(os);
  }
  if (!written || !syncFile(tmp) ||
      std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  syncParentDir(path);
  return true;
}

}  // namespace viaduct
