// reo_server's command line and its fail-stop exits: a bad numeric flag
// is a usage error (exit 2 with a usage message), never a failed internal
// check deeper in the stack (abort, exit 134); corrupt durable state is
// refused with exit 3. Runs the built binary in a child process.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <stdlib.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace {

/// Starts reo_server with `args`, stdout discarded and stderr to
/// `stderr_path` (discarded when empty); returns the child's pid.
pid_t StartServer(std::vector<std::string> args,
                  const std::string& stderr_path = "") {
  args.insert(args.begin(), REO_SERVER_BINARY);
  pid_t pid = fork();
  if (pid == 0) {
    int null_fd = open("/dev/null", O_WRONLY);
    int err_fd = stderr_path.empty()
                     ? null_fd
                     : open(stderr_path.c_str(),
                            O_WRONLY | O_CREAT | O_TRUNC, 0644);
    dup2(null_fd, STDOUT_FILENO);
    dup2(err_fd, STDERR_FILENO);
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    execv(argv[0], argv.data());
    _exit(127);
  }
  return pid;
}

/// Waits for `pid` and returns its exit code, 128 + signal when it died
/// on one, or -1 when it was still running after 10 s (then killed).
int WaitExit(pid_t pid) {
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

/// Runs reo_server with `args` to completion; -1 when an accepted flag
/// set starts serving instead of exiting.
int RunServer(std::vector<std::string> args,
              const std::string& stderr_path = "") {
  return WaitExit(StartServer(std::move(args), stderr_path));
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
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

// A flipped region in the durable state makes the server refuse to serve
// (exit 3) and name the offending file, never start over an image it
// cannot trust.
TEST(ReoServerFlagsTest, CorruptCheckpointFailsStopOnRestart) {
  char tmpl[] = "/tmp/reo_corrupt_XXXXXX";
  ASSERT_NE(mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  const std::string port_file = dir + "/port";
  const std::string data_dir = dir + "/state";
  // SIGTERM as soon as the port file appears: the drain writes the
  // shutdown checkpoint.
  pid_t pid = StartServer({"--port", "0", "--port-file", port_file,
                           "--capacity-mb", "128", "--data-dir", data_dir});
  for (int i = 0; i < 500 && ReadFile(port_file).empty(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  kill(pid, SIGTERM);
  ASSERT_EQ(WaitExit(pid), 0);

  const std::string checkpoint = data_dir + "/CHECKPOINT";
  int fd = open(checkpoint.c_str(), O_WRONLY);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(pwrite(fd, "CORRUPTED!", 10, 32), 10);
  close(fd);

  const std::string err_path = dir + "/corrupt.err";
  EXPECT_EQ(RunServer({"--port", "0", "--capacity-mb", "128", "--data-dir",
                       data_dir},
                      err_path),
            3);
  std::string err = ReadFile(err_path);
  EXPECT_NE(err.find("corrupt durable state"), std::string::npos) << err;
  EXPECT_NE(err.find(checkpoint), std::string::npos) << err;
  std::filesystem::remove_all(dir);
}

}  // namespace
