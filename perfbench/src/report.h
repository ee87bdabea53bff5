// The metrics and failed checks of one run, and how they are printed.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string clock;  ///< wall, cpu or count
  std::string note;
};

/// All the digits of `v`: the shortest text that reads back the same.
inline std::string Num(double v) {
  char buf[64];
  auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

/// Metrics and failed checks of one run.
struct Report {
  void Add(std::vector<Metric>& to, std::string name, double value,
           std::string unit, std::string clock, std::string note = "") {
    to.push_back(Metric{std::move(name), value, std::move(unit),
                        std::move(clock), std::move(note)});
  }
  /// A failed check; `ops` failed operations count against error_rate.
  void Fail(const std::string& what, uint64_t ops = 0) {
    std::printf("CHECK FAILED: %s\n", what.c_str());
    ++checks_failed;
    failed_ops += ops;
  }

  std::vector<Metric> end_to_end, per_layer, info;
  uint64_t checks_failed = 0;
  uint64_t attempted_ops = 0;
  uint64_t failed_ops = 0;
};

inline void PrintMetrics(const char* title, const std::vector<Metric>& ms) {
  std::printf("-- %s\n", title);
  for (const Metric& m : ms) {
    std::printf("  %-34s %14s %-6s %-5s %s\n", m.name.c_str(),
                Num(m.value).c_str(), m.unit.c_str(), m.clock.c_str(),
                m.note.c_str());
  }
}

}  // namespace perfbench
