#ifndef TRAP_COMMON_SUBPROCESS_H_
#define TRAP_COMMON_SUBPROCESS_H_

#include <string>
#include <vector>

#include "common/status.h"

namespace trap::common {

// A spawned child process with pipes to its stdin/stdout (stderr passes
// through to the parent's, so child diagnostics stay visible). Plain POSIX
// fork/exec -- the owner (trap_serve's script client, which spawns its own
// --listen server) drives the lifecycle: spawn, and on shutdown or any
// failure Kill + Reap unconditionally.
struct Subprocess {
  int pid = -1;
  int stdin_fd = -1;   // write end: parent -> child stdin
  int stdout_fd = -1;  // read end: child stdout -> parent

  bool running() const { return pid > 0; }
};

// Spawns argv[0] with the remaining argv entries as arguments. The child's
// exec failure surfaces as exit code 127 (observed via Reap), matching
// shell convention.
StatusOr<Subprocess> SpawnWithPipes(const std::vector<std::string>& argv);

// Closes the parent's pipe ends (idempotent). Closing stdin is also the
// polite shutdown signal: a well-behaved worker exits on EOF.
void ClosePipes(Subprocess* p);

// SIGKILL; a no-op once reaped. Does not close pipes or wait.
void Kill(Subprocess* p);

// Blocking reap (call after Kill or stdin-EOF; always terminates).
int Reap(Subprocess* p);

}  // namespace trap::common

#endif  // TRAP_COMMON_SUBPROCESS_H_
