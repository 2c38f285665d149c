#ifndef MSQLBENCH_COMMON_H_
#define MSQLBENCH_COMMON_H_

// Shared pieces of the msql benchmark: a portable seeded RNG, timing and
// percentile helpers, the span recorder used by traced runs, result
// canonicalisation for the correctness checks, and the metric sink the
// workloads report into.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "engine/result_set.h"

namespace msqlbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// SplitMix64: the same seed gives the same stream on every platform and
// standard library, unlike std::uniform_int_distribution.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed * 0x9E3779B97F4A7C15ull + 1) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  // Uniform in [0, n).
  int64_t Below(int64_t n) {
    return static_cast<int64_t>(Next() % static_cast<uint64_t>(n));
  }
  int64_t Between(int64_t lo, int64_t hi) { return lo + Below(hi - lo + 1); }
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      std::swap((*v)[i - 1], (*v)[static_cast<size_t>(Below(
                                 static_cast<int64_t>(i)))]);
    }
  }

 private:
  uint64_t state_;
};

// Nearest-rank percentile, p in [0, 1].
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

inline double Median(std::vector<double> v) { return Percentile(v, 0.5); }

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

// Samples strictly above the nearest-rank percentile: a reported
// percentile needs at least ten of them.
inline size_t SamplesBeyond(size_t n, double p) {
  const auto rank =
      static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
  return n > rank ? n - rank : 0;
}

// Peak resident memory of a measured stretch. ResetPeakRss() returns freed
// heap to the system and restarts the kernel's high-water mark (VmHWM), so
// PeakRssMb() read at the end of the stretch covers only what was resident
// during it: not the references, earlier set-ups or earlier workloads.
void ResetPeakRss();
double PeakRssMb();

// ---------------------------------------------------------------------
// Spans. One span per call into a layer (or per phase the engine reports
// for it): name, start, end, parent and request id. Spans live in memory
// until the run ends; self time is the span's duration minus the time its
// children cover.

struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int64_t parent;  // index into the recorder, -1 for a root
  uint64_t request;
};

class SpanRecorder {
 public:
  // Thread-safe append; returns the span's index.
  int64_t Add(const char* name, int64_t start_ns, int64_t end_ns,
              int64_t parent, uint64_t request) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, start_ns, end_ns, parent, request});
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  // Reserves a slot for a span whose end is not known yet (a parent).
  int64_t Open(const char* name, int64_t start_ns, int64_t parent,
               uint64_t request) {
    return Add(name, start_ns, start_ns, parent, request);
  }
  void Close(int64_t index, int64_t end_ns) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(index)].end_ns = end_ns;
  }

  struct LayerTime {
    uint64_t count = 0;
    double total_us = 0;  // sum of durations
    double self_us = 0;   // sum of durations minus children
  };
  // Per span name: instance count, total and self time.
  std::map<std::string, LayerTime> Summarize() const;

  // Writes one line per span: request, index, parent, name, start, end
  // (ns relative to the first span).
  bool WriteTo(const std::string& path) const;

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------
// Result checks. A result is canonicalised into rows of cells sorted by
// their exact (non-floating) columns; floating cells compare with a
// relative tolerance, since a measure and its plain-SQL twin may add the
// same numbers in a different order.

struct CanonicalResult {
  std::vector<std::vector<msql::Value>> rows;
};

CanonicalResult Canonicalize(const msql::ResultSet& rs);

// Empty when equal; otherwise a one-line description of the first
// difference.
std::string Compare(const CanonicalResult& got, const CanonicalResult& want);

// ---------------------------------------------------------------------
// What a workload reports: named metrics with units, plus the contract's
// attempted/failed counts and free-form notes (sample counts, traffic
// shares) printed above the final JSON line.

struct Metric {
  double value = 0;
  std::string unit;
  int64_t samples = -1;  // -1: not a sampled timing
};

struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> notes;

  void Set(const std::string& name, double value, const std::string& unit,
           int64_t samples = -1) {
    metrics[name] = Metric{value, unit, samples};
  }
  void Note(const std::string& line) { notes.push_back(line); }
};

}  // namespace msqlbench

#endif  // MSQLBENCH_COMMON_H_
