// The monotonic clock every span and timestamp of the benchmark reads.
#pragma once

#include <time.h>

#include <cstdint>

namespace perfbench {

inline uint64_t NowNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

}  // namespace perfbench
