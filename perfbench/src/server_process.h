// Starts reo_server as a child process pinned to a core set, waits until
// it listens, and stops it (gracefully or by SIGKILL). The destructor
// SIGKILLs and reaps a server still running, so no child outlives a run.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess();

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Forks and execs `binary` with `args`, pinned to `cores`, stderr
  /// appended to `log_path`. Returns once the server printed its
  /// "listening on" line (port parsed from it), or an error after 60 s
  /// or if it exits first. Must be called while the caller runs no other
  /// threads (fork).
  reo::Status Start(const std::string& binary,
                    const std::vector<std::string>& args,
                    const std::vector<int>& cores, const std::string& log_path);

  /// SIGTERM (graceful drain) and wait. Returns the exit code, or -1 when
  /// the server died by signal or had to be SIGKILLed after 20 s.
  int Stop();

  /// SIGKILL and reap: the crash the durability check simulates.
  void Kill();

  bool running() const { return pid_ > 0; }
  pid_t pid() const { return pid_; }
  uint16_t port() const { return port_; }

 private:
  /// Reaps the server; -2 when it is still running after `timeout_ms`.
  int WaitExit(int timeout_ms);

  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  uint16_t port_ = 0;
};

}  // namespace perfbench
