// Resident set size of the bench process, read from Linux /proc/self/status.
#pragma once

#include <cstdlib>
#include <fstream>
#include <string>
#include <string_view>

namespace dyna::bench {

/// One memory field of /proc/self/status (e.g. "VmHWM") in MiB, or -1 where
/// /proc is unavailable.
inline double status_mib(std::string_view field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.size() > field.size() && line.compare(0, field.size(), field) == 0 &&
        line[field.size()] == ':') {
      return std::strtod(line.c_str() + field.size() + 1, nullptr) / 1024.0;
    }
  }
  return -1.0;
}

/// Peak resident set size (VmHWM). Monotone over the process lifetime: a
/// bench that runs sizes ascending reports, per row, the high-water mark
/// through its own (largest-so-far) configuration.
inline double peak_rss_mib() { return status_mib("VmHWM"); }

/// Current resident set size (VmRSS). Unlike the high-water mark it does not
/// carry an earlier phase's peak into later samples.
inline double current_rss_mib() { return status_mib("VmRSS"); }

}  // namespace dyna::bench
