#ifndef TRAP_COMMON_FILE_UTIL_H_
#define TRAP_COMMON_FILE_UTIL_H_

#include <string>
#include <string_view>

#include "common/status.h"

namespace trap::common {

// Atomically replaces `path` with `content` (the BENCH_*.json reports):
// writes `path + ".tmp"`, flushes it, then publishes with rename(2). A crash
// of the writer at any point leaves either the old file or the new one --
// never a torn mixture -- because rename within a filesystem is atomic. The
// stale .tmp from an interrupted write is overwritten by the next call.
Status AtomicWriteFile(const std::string& path, std::string_view content);

}  // namespace trap::common

#endif  // TRAP_COMMON_FILE_UTIL_H_
