// The one peak-RSS reader every artifact writer shares.
//
// Benchmarks, the soak driver and the campaign all report the process's
// resident-memory high-water mark next to their timings; each used to
// scrape it independently. VmHWM from /proc/self/status is
// preferred (it survives madvise/free, unlike current RSS); where procfs
// is unavailable the getrusage high water serves as the fallback.
#pragma once

#include <sys/resource.h>

#include <cstdio>
#include <fstream>
#include <string>

namespace sp::obs {

/// Peak resident set size of this process in kilobytes, 0 if unknown.
inline long peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      long kb = 0;
      std::sscanf(line.c_str(), "VmHWM: %ld", &kb);
      return kb;
    }
  }
  struct rusage usage{};
  if (::getrusage(RUSAGE_SELF, &usage) == 0) return usage.ru_maxrss;  // KB on Linux
  return 0;
}

}  // namespace sp::obs
