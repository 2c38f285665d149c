#include "common.h"

#include <malloc.h>
#include <sys/resource.h>

#include <cstdlib>
#include <fstream>

namespace msqlbench {

using msql::TypeKind;
using msql::Value;

std::map<std::string, SpanRecorder::LayerTime> SpanRecorder::Summarize()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_us[static_cast<size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns) / 1000.0;
    }
  }
  std::map<std::string, LayerTime> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const double us =
        static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) / 1000.0;
    LayerTime& lt = out[spans_[i].name];
    ++lt.count;
    lt.total_us += us;
    lt.self_us += std::max(0.0, us - child_us[i]);
  }
  return out;
}

bool SpanRecorder::WriteTo(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  const int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "request,span,parent,name,start_ns,end_ns\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << s.request << ',' << i << ',' << s.parent << ',' << s.name << ','
        << (s.start_ns - t0) << ',' << (s.end_ns - t0) << '\n';
  }
  return static_cast<bool>(out);
}

void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB
    }
  }
  // No procfs: the process's lifetime peak.
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
}

namespace {

bool IsNumeric(const Value& v) {
  return v.kind() == TypeKind::kInt64 || v.kind() == TypeKind::kDouble;
}

// The sort key of a row: its non-floating cells rendered exactly.
std::string ExactKey(const std::vector<Value>& row) {
  std::string key;
  for (const Value& v : row) {
    if (v.kind() == TypeKind::kDouble) continue;
    key += v.ToString();
    key += '\x1f';
  }
  return key;
}

bool CellsEqual(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  if (IsNumeric(a) && IsNumeric(b)) {
    if (a.kind() == TypeKind::kInt64 && b.kind() == TypeKind::kInt64) {
      return a.int_val() == b.int_val();
    }
    const double x = a.AsDouble();
    const double y = b.AsDouble();
    return std::fabs(x - y) <= 1e-9 * std::max(1.0, std::max(std::fabs(x),
                                                              std::fabs(y)));
  }
  return Value::NotDistinct(a, b);
}

std::string RenderRow(const std::vector<Value>& row) {
  std::string s = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) s += ", ";
    s += row[i].ToString();
  }
  return s + ")";
}

}  // namespace

CanonicalResult Canonicalize(const msql::ResultSet& rs) {
  CanonicalResult out;
  out.rows.reserve(rs.num_rows());
  for (const msql::Row& row : rs.rows()) {
    out.rows.emplace_back(row.begin(), row.end());
  }
  std::vector<std::pair<std::string, size_t>> order;
  order.reserve(out.rows.size());
  for (size_t i = 0; i < out.rows.size(); ++i) {
    order.emplace_back(ExactKey(out.rows[i]), i);
  }
  std::sort(order.begin(), order.end());
  std::vector<std::vector<Value>> sorted;
  sorted.reserve(order.size());
  for (const auto& [key, i] : order) sorted.push_back(std::move(out.rows[i]));
  out.rows = std::move(sorted);
  return out;
}

std::string Compare(const CanonicalResult& got, const CanonicalResult& want) {
  if (got.rows.size() != want.rows.size()) {
    return "row count " + std::to_string(got.rows.size()) + " != expected " +
           std::to_string(want.rows.size());
  }
  for (size_t r = 0; r < got.rows.size(); ++r) {
    const auto& g = got.rows[r];
    const auto& w = want.rows[r];
    bool same = g.size() == w.size();
    for (size_t c = 0; same && c < g.size(); ++c) same = CellsEqual(g[c], w[c]);
    if (!same) {
      return "row " + std::to_string(r) + " " + RenderRow(g) +
             " != expected " + RenderRow(w);
    }
  }
  return "";
}

}  // namespace msqlbench
