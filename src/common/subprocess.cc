#include "common/subprocess.h"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

namespace trap::common {

namespace {

void CloseFd(int* fd) {
  if (*fd >= 0) {
    close(*fd);
    *fd = -1;
  }
}

int DecodeWaitStatus(int wstatus) {
  if (WIFEXITED(wstatus)) return WEXITSTATUS(wstatus);
  if (WIFSIGNALED(wstatus)) return -WTERMSIG(wstatus);
  return -1;
}

}  // namespace

StatusOr<Subprocess> SpawnWithPipes(const std::vector<std::string>& argv) {
  if (argv.empty()) return Status::InvalidArgument("empty argv");
  int to_child[2] = {-1, -1};
  int from_child[2] = {-1, -1};
  if (pipe(to_child) != 0 || pipe(from_child) != 0) {
    CloseFd(&to_child[0]);
    CloseFd(&to_child[1]);
    return Status::Internal(std::string("pipe: ") + std::strerror(errno));
  }
  const pid_t pid = fork();
  if (pid < 0) {
    for (int* fd : {&to_child[0], &to_child[1], &from_child[0],
                    &from_child[1]}) {
      CloseFd(fd);
    }
    return Status::Internal(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    // Child: wire the pipes to stdin/stdout and exec. Only async-signal-safe
    // calls between fork and exec.
    dup2(to_child[0], STDIN_FILENO);
    dup2(from_child[1], STDOUT_FILENO);
    close(to_child[0]);
    close(to_child[1]);
    close(from_child[0]);
    close(from_child[1]);
    std::vector<char*> cargv;
    cargv.reserve(argv.size() + 1);
    for (const std::string& a : argv) {
      cargv.push_back(const_cast<char*>(a.c_str()));
    }
    cargv.push_back(nullptr);
    execvp(cargv[0], cargv.data());
    _exit(127);
  }
  close(to_child[0]);
  close(from_child[1]);
  // Parent ends must not leak into later children (a leaked write end would
  // keep a sibling's stdin from ever reporting EOF).
  fcntl(to_child[1], F_SETFD, FD_CLOEXEC);
  fcntl(from_child[0], F_SETFD, FD_CLOEXEC);
  Subprocess p;
  p.pid = static_cast<int>(pid);
  p.stdin_fd = to_child[1];
  p.stdout_fd = from_child[0];
  return p;
}

void ClosePipes(Subprocess* p) {
  CloseFd(&p->stdin_fd);
  CloseFd(&p->stdout_fd);
}

void Kill(Subprocess* p) {
  if (p->pid > 0) kill(p->pid, SIGKILL);
}

int Reap(Subprocess* p) {
  if (p->pid <= 0) return -1;
  int wstatus = 0;
  pid_t r;
  do {
    r = waitpid(p->pid, &wstatus, 0);
  } while (r < 0 && errno == EINTR);
  p->pid = -1;
  return r > 0 ? DecodeWaitStatus(wstatus) : -1;
}

}  // namespace trap::common
