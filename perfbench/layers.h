#ifndef MSQLBENCH_LAYERS_H_
#define MSQLBENCH_LAYERS_H_

// Per-layer measurement shared by the workloads: the layer probe that
// times one SELECT through each module's public entry point, the spans
// laid out from the phases the engine reports for a traced statement, and
// the assembly of every per-layer metric from spans and counters.

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "engine/engine.h"

namespace msqlbench {

// Per-query counters read from ResultSet::stats().
struct Counters {
  uint64_t queries = 0;
  uint64_t grouped_builds = 0;
  uint64_t grouped_probes = 0;
  uint64_t source_scans = 0;
  uint64_t inline_evals = 0;
  uint64_t vectorized_batches = 0;
  uint64_t row_fallbacks = 0;

  void Add(const msql::QueryStats& s);
};

// Runs one SELECT as Parser::Parse, then Engine::PrepareSelect, then
// Engine::QueryPlanned, each under its own span ("parser.parse",
// "engine.prepare", "engine.execute") below a "probe" root. `ctx` should
// bypass the plan cache so the prepare cost is the real one.
struct ProbeResult {
  msql::Result<msql::ResultSet> result{msql::ResultSet()};
  double execute_us = 0;
};
ProbeResult ProbeLayers(msql::Engine* db, const msql::QueryContext& ctx,
                        const std::string& sql,
                        const std::vector<msql::TypeKind>& types,
                        const msql::Row& params, SpanRecorder* spans,
                        uint64_t request);

// Records the phases a traced statement reported (QueryStats parse_us ..
// render_us, queue and admission waits) as spans laid end to end from
// `start_ns` under `parent`. Measure expansion nests inside bind, where
// the engine measures it. Returns the end of the last phase.
int64_t AddPhaseSpans(SpanRecorder* spans, const msql::QueryStats& stats,
                      int64_t start_ns, int64_t parent, uint64_t request);

// Everything a workload measured for the per-layer report that is not in
// the spans. Fields a workload leaves at zero are layers it bypasses.
struct LayerInputs {
  Counters probe_counters;       // from the layer probes
  double bare_over_plain = 0;    // execute time ratio, from the probes
  double join_execute_us = 0;    // execute time of the join template
  double cold_scan_ms = 0;
  double read_after_insert_us = 0;
  uint64_t plan_cache_hits = 0, plan_cache_lookups = 0;
  uint64_t shared_cache_hits = 0, shared_cache_lookups = 0;
  uint64_t traced_statements = 0;  // denominator of the engine.phase.* means
  double tracing_overhead = 0;
  double drift = 0;
  std::vector<double> insert_ms;
};

// Emits every per-layer metric into `report` (the same names for every
// workload; see README.md for what each one means).
void EmitLayerMetrics(const SpanRecorder& spans, const LayerInputs& in,
                      Report* report);

// One timed operation of a workload loop.
struct Sample {
  int key = 0;          // the statement (text and parameters), or INSERT
  double ms = 0;
  bool read = true;     // reads feed the latency percentiles
  bool traced = false;
};

// For each statement, the median traced latency over the median
// untraced one; the median of those ratios, minus 1.
double TracingOverhead(const std::vector<Sample>& samples);

// Throughput of the last quarter of `samples` (in issue order) over that
// of the first quarter.
double Drift(const std::vector<Sample>& samples);

// Emits qps (as measured by the workload), query_p50_ms and query_p95_ms
// (over the reads), each with its sample count; notes p99 where it has ten
// samples beyond it.
void EmitEndToEnd(const std::vector<Sample>& samples, double qps,
                  Report* report);

// Checks one timed result against its reference; notes the statement on a
// wrong result (the first few of them). Returns true when it matches.
bool CheckResult(const msql::Result<msql::ResultSet>& r,
                 const CanonicalResult& ref, const std::string& sql,
                 Report* report);

// Plan-cache and shared-cache counters over a stretch of a run;
// CacheDelta adds the stretch since `before` to `layers`.
struct CacheSnapshot {
  msql::PlanCache::Stats plan;
  msql::SharedMeasureCache::Stats shared;
};
CacheSnapshot SnapshotCaches(msql::Engine* db);
void CacheDelta(msql::Engine* db, const CacheSnapshot& before,
                LayerInputs* layers);

// Notes the measured traffic shares.
void NoteShares(const LayerInputs& layers, double unique_share,
                double insert_share, Report* report);

// Writes the spans out at the end of a traced run (no-op without a path).
void WriteSpans(const std::string& path, const SpanRecorder& spans,
                Report* report);

}  // namespace msqlbench

#endif  // MSQLBENCH_LAYERS_H_
