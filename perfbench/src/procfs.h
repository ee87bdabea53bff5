// Reads a process's CPU time, peak memory and context switches from /proc.
//
// The parsers take the file text so tests can feed them fixed inputs; the
// readers wrap them around the live files of a running server.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <optional>
#include <string_view>

namespace perfbench {

/// User and system CPU time from /proc/<pid>/stat, in clock ticks
/// (sysconf(_SC_CLK_TCK) per second). For a thread-group leader they cover
/// every thread of the process, live or exited.
struct ProcCpu {
  uint64_t utime_ticks = 0;
  uint64_t stime_ticks = 0;
};

/// Parses the text of /proc/<pid>/stat. The command name (field 2) is in
/// parentheses and may itself hold spaces or ')', so fields are counted
/// from the last ')'. nullopt when the text is not a stat line.
std::optional<ProcCpu> ParseProcStat(std::string_view text);

/// Fields of /proc/<pid>/status (or /proc/<pid>/task/<tid>/status).
struct ProcStatus {
  uint64_t vm_hwm_kib = 0;  ///< peak resident set size
  uint64_t voluntary_ctxt_switches = 0;
  uint64_t nonvoluntary_ctxt_switches = 0;
};

/// Parses the text of a status file. nullopt when a field is missing.
std::optional<ProcStatus> ParseProcStatus(std::string_view text);

/// Steal time of the whole machine from the text of /proc/stat: clock
/// ticks the hypervisor ran something else while a vCPU wanted to run.
std::optional<uint64_t> ParseStealTicks(std::string_view proc_stat);

/// Live readers. nullopt when the process is gone or a file is unreadable.
std::optional<ProcCpu> ReadProcCpu(pid_t pid);
std::optional<ProcStatus> ReadProcStatus(pid_t pid);
/// Context switches summed over every live thread of `pid`.
std::optional<uint64_t> ReadContextSwitches(pid_t pid);
std::optional<uint64_t> ReadStealTicks();

/// Seconds per clock tick of the /proc CPU fields.
double SecondsPerTick();

}  // namespace perfbench
