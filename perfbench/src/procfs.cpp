#include "procfs.h"

#include <dirent.h>
#include <unistd.h>

#include <charconv>
#include <fstream>
#include <sstream>
#include <string>

namespace perfbench {
namespace {

std::optional<std::string> Slurp(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::optional<uint64_t> ToU64(std::string_view s) {
  uint64_t v = 0;
  auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || p != s.data() + s.size()) return std::nullopt;
  return v;
}

/// The numeric value of "Key:   123 kB" lines; nullopt when absent.
std::optional<uint64_t> StatusField(std::string_view text,
                                    std::string_view key) {
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.size() <= key.size() || !line.starts_with(key) ||
        line[key.size()] != ':') {
      continue;
    }
    std::string_view rest = line.substr(key.size() + 1);
    size_t b = rest.find_first_not_of(" \t");
    if (b == std::string_view::npos) return std::nullopt;
    rest = rest.substr(b);
    size_t e = rest.find_first_not_of("0123456789");
    return ToU64(rest.substr(0, e));
  }
  return std::nullopt;
}

}  // namespace

std::optional<ProcCpu> ParseProcStat(std::string_view text) {
  size_t close = text.rfind(')');
  if (close == std::string_view::npos) return std::nullopt;
  // After ")": field 3 (state) onward, space-separated. utime and stime
  // are fields 14 and 15, i.e. the 12th and 13th tokens after the ')'.
  std::string_view rest = text.substr(close + 1);
  std::string_view tokens[13];
  size_t count = 0;
  size_t pos = 0;
  while (count < 13) {
    size_t b = rest.find_first_not_of(" \n", pos);
    if (b == std::string_view::npos) break;
    size_t e = rest.find_first_of(" \n", b);
    if (e == std::string_view::npos) e = rest.size();
    tokens[count++] = rest.substr(b, e - b);
    pos = e;
  }
  if (count < 13) return std::nullopt;
  auto ut = ToU64(tokens[11]);
  auto st = ToU64(tokens[12]);
  if (!ut || !st) return std::nullopt;
  return ProcCpu{*ut, *st};
}

std::optional<ProcStatus> ParseProcStatus(std::string_view text) {
  auto hwm = StatusField(text, "VmHWM");
  auto vol = StatusField(text, "voluntary_ctxt_switches");
  auto nonvol = StatusField(text, "nonvoluntary_ctxt_switches");
  if (!hwm || !vol || !nonvol) return std::nullopt;
  return ProcStatus{*hwm, *vol, *nonvol};
}

std::optional<uint64_t> ParseStealTicks(std::string_view proc_stat) {
  // "cpu  user nice system idle iowait irq softirq steal ...": the
  // aggregate line comes first and steal is its 8th number.
  if (!proc_stat.starts_with("cpu ")) return std::nullopt;
  std::string_view line = proc_stat.substr(0, proc_stat.find('\n'));
  size_t pos = 3;
  std::string_view field;
  for (int i = 0; i < 8; ++i) {
    size_t b = line.find_first_not_of(' ', pos);
    if (b == std::string_view::npos) return std::nullopt;
    size_t e = line.find(' ', b);
    if (e == std::string_view::npos) e = line.size();
    field = line.substr(b, e - b);
    pos = e;
  }
  return ToU64(field);
}

std::optional<ProcCpu> ReadProcCpu(pid_t pid) {
  auto text = Slurp("/proc/" + std::to_string(pid) + "/stat");
  if (!text) return std::nullopt;
  return ParseProcStat(*text);
}

std::optional<ProcStatus> ReadProcStatus(pid_t pid) {
  auto text = Slurp("/proc/" + std::to_string(pid) + "/status");
  if (!text) return std::nullopt;
  return ParseProcStatus(*text);
}

std::optional<uint64_t> ReadContextSwitches(pid_t pid) {
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return std::nullopt;
  uint64_t total = 0;
  bool any = false;
  while (dirent* e = readdir(d)) {
    if (e->d_name[0] == '.') continue;
    auto text = Slurp(dir + "/" + e->d_name + "/status");
    if (!text) continue;  // the thread exited between readdir and open
    auto status = ParseProcStatus(*text);
    if (!status) continue;
    total += status->voluntary_ctxt_switches +
             status->nonvoluntary_ctxt_switches;
    any = true;
  }
  closedir(d);
  if (!any) return std::nullopt;
  return total;
}

std::optional<uint64_t> ReadStealTicks() {
  auto text = Slurp("/proc/stat");
  if (!text) return std::nullopt;
  return ParseStealTicks(*text);
}

double SecondsPerTick() {
  long hz = sysconf(_SC_CLK_TCK);
  return hz > 0 ? 1.0 / static_cast<double>(hz) : 0.01;
}

}  // namespace perfbench
