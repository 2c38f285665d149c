#ifndef MSQLBENCH_WORKLOADS_H_
#define MSQLBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "common.h"

namespace msqlbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;       // self-test sizes
  std::string spans_out;   // traced runs write their spans here
};

// Each returns false (with a message on stderr) when the run could not be
// set up; a result is only reported for a run that was set up.
bool RunAnalyst(const Options& opts, Report* report);
bool RunIngest(const Options& opts, Report* report);
bool RunDashboard(const Options& opts, Report* report);

}  // namespace msqlbench

#endif  // MSQLBENCH_WORKLOADS_H_
