#include "server_process.h"

#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>

namespace perfbench {
namespace {

reo::Status Fail(const std::string& what) {
  return reo::Status(reo::ErrorCode::kUnavailable, what);
}

}  // namespace

ServerProcess::~ServerProcess() { Kill(); }

reo::Status ServerProcess::Start(const std::string& binary,
                                 const std::vector<std::string>& args,
                                 const std::vector<int>& cores,
                                 const std::string& log_path) {
  constexpr int timeout_ms = 60000;
  if (running()) return Fail("server already running");
  int pipe_fds[2];
  if (pipe2(pipe_fds, O_CLOEXEC) != 0) return Fail("pipe failed");
  int log_fd = open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                    0644);
  if (log_fd < 0) {
    close(pipe_fds[0]);
    close(pipe_fds[1]);
    return Fail("cannot open " + log_path);
  }
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(binary.c_str()));
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cores) CPU_SET(c, &set);

  pid_t pid = fork();
  if (pid < 0) {
    close(pipe_fds[0]);
    close(pipe_fds[1]);
    close(log_fd);
    return Fail("fork failed");
  }
  if (pid == 0) {
    // Child: only async-signal-safe calls until exec.
    sched_setaffinity(0, sizeof(set), &set);
    dup2(pipe_fds[1], STDOUT_FILENO);
    dup2(log_fd, STDERR_FILENO);
    execv(binary.c_str(), argv.data());
    _exit(127);
  }
  close(pipe_fds[1]);
  close(log_fd);
  pid_ = pid;
  stdout_fd_ = pipe_fds[0];

  // Wait for "reo_server listening on ADDR:PORT (...)".
  const std::string marker = "listening on ";
  std::string out;
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(timeout_ms);
  while (true) {
    size_t at = out.find(marker);
    if (at != std::string::npos && out.find('\n', at) != std::string::npos) {
      size_t colon = out.find(':', at + marker.size());
      if (colon == std::string::npos) break;
      port_ = static_cast<uint16_t>(std::strtoul(out.c_str() + colon + 1,
                                                 nullptr, 10));
      if (port_ == 0) break;
      return reo::Status::Ok();
    }
    auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                    deadline - std::chrono::steady_clock::now())
                    .count();
    if (left <= 0) {
      Kill();
      return Fail("server did not listen within " +
                  std::to_string(timeout_ms) + " ms");
    }
    pollfd pfd{stdout_fd_, POLLIN, 0};
    int r = poll(&pfd, 1, static_cast<int>(left));
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) continue;
    char buf[4096];
    ssize_t n = read(stdout_fd_, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // the server exited before listening
    out.append(buf, static_cast<size_t>(n));
  }
  Kill();
  return Fail("server exited or printed no port; see " + log_path);
}

int ServerProcess::WaitExit(int timeout_ms) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(timeout_ms);
  while (true) {
    int status = 0;
    pid_t r = waitpid(pid_, &status, WNOHANG);
    if (r < 0 && errno == EINTR) continue;
    if (r != 0) {
      bool exited = r == pid_ && WIFEXITED(status);
      pid_ = -1;
      if (stdout_fd_ >= 0) close(stdout_fd_);
      stdout_fd_ = -1;
      return exited ? WEXITSTATUS(status) : -1;
    }
    if (std::chrono::steady_clock::now() >= deadline) return -2;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

int ServerProcess::Stop() {
  if (!running()) return -1;
  kill(pid_, SIGTERM);
  int code = WaitExit(20000);
  if (code == -2) {
    Kill();
    return -1;
  }
  return code;
}

void ServerProcess::Kill() {
  if (!running()) return;
  kill(pid_, SIGKILL);
  while (waitpid(pid_, nullptr, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
  if (stdout_fd_ >= 0) close(stdout_fd_);
  stdout_fd_ = -1;
}

}  // namespace perfbench
