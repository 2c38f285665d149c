// msqlbench: the msql benchmark program. See README.md.
//
//   msqlbench --workload analyst|dashboard_net|ingest|all --seed N
//             --seconds S --trace 0|1 [--size full|tiny] [--spans-out PATH]
//
// Prints notes and one line per metric (name, value, unit, sample count),
// then, as its last line, one JSON object: correct, attempted, failed and
// metrics. --trace 0 reports the end-to-end metrics, --trace 1 the
// per-layer ones. Exits 1 when a workload cannot be set up, 2 on bad usage.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

using msqlbench::Options;
using msqlbench::Report;

int Usage() {
  std::fprintf(stderr,
               "usage: msqlbench --workload analyst|dashboard_net|ingest|all "
               "--seed N --seconds S --trace 0|1 [--size full|tiny] "
               "[--spans-out PATH]\n");
  return 2;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonLine(const Report& r, const std::string& prefix) {
  std::string out = "{\"correct\": ";
  out += r.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + prefix + name + "\": {\"value\": " + JsonNumber(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  return out + "}}";
}

void PrintHuman(const std::string& workload, const Report& r) {
  for (const std::string& n : r.notes) std::printf("# %s\n", n.c_str());
  for (const auto& [name, m] : r.metrics) {
    if (m.samples >= 0) {
      std::printf("%s %s = %.6g %s (n=%lld)\n", workload.c_str(),
                  name.c_str(), m.value, m.unit.c_str(),
                  static_cast<long long>(m.samples));
    } else {
      std::printf("%s %s = %.6g %s\n", workload.c_str(), name.c_str(),
                  m.value, m.unit.c_str());
    }
  }
  std::printf("%s error_rate = %.6g (%llu failed of %llu attempted)\n",
              workload.c_str(),
              r.attempted == 0 ? 0.0
                               : static_cast<double>(r.failed) /
                                     static_cast<double>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted));
}

bool RunOne(const Options& opts, Report* report) {
  if (opts.workload == "analyst") return msqlbench::RunAnalyst(opts, report);
  if (opts.workload == "dashboard_net") {
    return msqlbench::RunDashboard(opts, report);
  }
  if (opts.workload == "ingest") return msqlbench::RunIngest(opts, report);
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage();
    const char* v = argv[++i];
    if (arg == "--workload") {
      opts.workload = v;
      have_workload = true;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(v, nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      opts.seconds = std::atof(v);
      have_seconds = opts.seconds > 0;
    } else if (arg == "--trace") {
      opts.trace = std::strcmp(v, "1") == 0;
    } else if (arg == "--size") {
      if (std::strcmp(v, "tiny") != 0 && std::strcmp(v, "full") != 0) {
        return Usage();
      }
      opts.tiny = std::strcmp(v, "tiny") == 0;
    } else if (arg == "--spans-out") {
      opts.spans_out = v;
    } else {
      return Usage();
    }
  }
  if (!have_workload || !have_seed || !have_seconds) return Usage();

  std::vector<std::string> workloads = {opts.workload};
  if (opts.workload == "all") {
    workloads = {"analyst", "dashboard_net", "ingest"};
  } else if (opts.workload != "analyst" && opts.workload != "dashboard_net" &&
             opts.workload != "ingest") {
    return Usage();
  }

  // `all` runs every workload in this process and ends with one JSON line
  // whose metric names carry the workload as a prefix.
  Report total;
  for (const std::string& w : workloads) {
    Options one = opts;
    one.workload = w;
    if (!opts.spans_out.empty() && workloads.size() > 1) {
      one.spans_out = opts.spans_out + "." + w;
    }
    Report report;
    if (!RunOne(one, &report)) {
      std::fprintf(stderr, "msqlbench: workload %s could not be set up\n",
                   w.c_str());
      return 1;
    }
    PrintHuman(w, report);
    std::fflush(stdout);
    total.attempted += report.attempted;
    total.failed += report.failed;
    for (const auto& [name, m] : report.metrics) {
      total.metrics[workloads.size() > 1 ? w + "." + name : name] = m;
    }
  }
  std::printf("%s\n", JsonLine(total, "").c_str());
  return 0;
}
