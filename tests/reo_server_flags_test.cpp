// reo_server's command line: a bad numeric flag is a usage error (exit 2
// with a usage message), never a failed internal check deeper in the
// stack (abort, exit 134). Runs the built binary in a child process.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

namespace {

/// Runs reo_server with `args` (output discarded) and returns its exit
/// code, 128 + signal when it died on one, or -1 when it was still
/// running (an accepted flag set starts serving) after 10 s.
int RunServer(std::vector<std::string> args) {
  args.insert(args.begin(), REO_SERVER_BINARY);
  pid_t pid = fork();
  if (pid == 0) {
    int null_fd = open("/dev/null", O_WRONLY);
    dup2(null_fd, STDOUT_FILENO);
    dup2(null_fd, STDERR_FILENO);
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    execv(argv[0], argv.data());
    _exit(127);
  }
  if (pid < 0) return -1;
  int status = 0;
  for (int waited_ms = 0; waitpid(pid, &status, WNOHANG) == 0;
       waited_ms += 10) {
    if (waited_ms >= 10'000) {
      kill(pid, SIGKILL);
      waitpid(pid, nullptr, 0);
      return -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return WEXITSTATUS(status);
}

TEST(ReoServerFlagsTest, HelpExitsZero) { EXPECT_EQ(RunServer({"--help"}), 0); }

TEST(ReoServerFlagsTest, ZeroDevicesIsUsageError) {
  EXPECT_EQ(RunServer({"--devices", "0"}), 2);
}

TEST(ReoServerFlagsTest, NonNumericDevicesIsUsageError) {
  EXPECT_EQ(RunServer({"--devices", "abc"}), 2);
}

TEST(ReoServerFlagsTest, ZeroChunkIsUsageError) {
  EXPECT_EQ(RunServer({"--chunk-kb", "0"}), 2);
}

TEST(ReoServerFlagsTest, TrailingGarbageIsUsageError) {
  EXPECT_EQ(RunServer({"--capacity-mb", "64x"}), 2);
}

TEST(ReoServerFlagsTest, OutOfRangePortIsUsageError) {
  EXPECT_EQ(RunServer({"--port", "70000"}), 2);
}

}  // namespace
