#include "layers.h"

#include "parser/parser.h"

namespace msqlbench {

using msql::QueryStats;

void Counters::Add(const QueryStats& s) {
  ++queries;
  grouped_builds += s.measure_grouped_builds;
  grouped_probes += s.measure_grouped_probes;
  source_scans += s.measure_source_scans;
  inline_evals += s.measure_inline_evals;
  vectorized_batches += s.exec_vectorized_batches;
  row_fallbacks += s.exec_row_fallbacks;
}

ProbeResult ProbeLayers(msql::Engine* db, const msql::QueryContext& ctx,
                        const std::string& sql,
                        const std::vector<msql::TypeKind>& types,
                        const msql::Row& params, SpanRecorder* spans,
                        uint64_t request) {
  ProbeResult out;
  const int64_t root = spans->Open("probe", NowNs(), -1, request);
  int64_t t0 = NowNs();
  auto parsed = msql::Parser::Parse(sql);
  int64_t t1 = NowNs();
  spans->Add("parser.parse", t0, t1, root, request);
  if (!parsed.ok()) {
    out.result = parsed.status();
  } else {
    t0 = NowNs();
    auto prepared = db->PrepareSelect(sql, types, ctx);
    t1 = NowNs();
    spans->Add("engine.prepare", t0, t1, root, request);
    if (!prepared.ok()) {
      out.result = prepared.status();
    } else {
      t0 = NowNs();
      out.result = db->QueryPlanned(prepared.value(), params, ctx);
      t1 = NowNs();
      spans->Add("engine.execute", t0, t1, root, request);
      out.execute_us = static_cast<double>(t1 - t0) / 1000.0;
    }
  }
  spans->Close(root, NowNs());
  return out;
}

int64_t AddPhaseSpans(SpanRecorder* spans, const QueryStats& s,
                      int64_t start_ns, int64_t parent, uint64_t request) {
  int64_t at = start_ns;
  auto phase = [&](const char* name, int64_t us) {
    if (us <= 0) return int64_t{-1};
    const int64_t index = spans->Add(name, at, at + us * 1000, parent, request);
    at += us * 1000;
    return index;
  };
  phase("phase.admission_wait", s.admission_wait_us);
  phase("phase.queue_wait", s.queue_wait_us);
  phase("phase.parse", s.parse_us);
  const int64_t bind_start = at;
  const int64_t bind = phase("phase.bind", s.bind_us);
  if (bind >= 0 && s.measure_expand_us > 0) {
    spans->Add("phase.measure_expand", bind_start,
               bind_start + s.measure_expand_us * 1000, bind, request);
  }
  phase("phase.plan", s.plan_us);
  phase("phase.execute", s.execute_us);
  phase("phase.render", s.render_us);
  return at;
}

double TracingOverhead(const std::vector<Sample>& samples) {
  std::map<int, std::vector<double>> untraced, traced;
  for (const Sample& s : samples) {
    (s.traced ? traced : untraced)[s.key].push_back(s.ms);
  }
  std::vector<double> ratios;
  for (const auto& [key, ms] : traced) {
    auto it = untraced.find(key);
    if (it == untraced.end()) continue;
    const double base = Median(it->second);
    if (base > 0) ratios.push_back(Median(ms) / base);
  }
  return ratios.empty() ? 0 : Median(ratios) - 1;
}

double Drift(const std::vector<Sample>& samples) {
  const size_t q = samples.size() / 4;
  if (q == 0) return 0;
  double first = 0, last = 0;
  for (size_t i = 0; i < q; ++i) {
    first += samples[i].ms;
    last += samples[samples.size() - q + i].ms;
  }
  return last > 0 ? first / last : 0;
}

void EmitEndToEnd(const std::vector<Sample>& samples, double qps,
                  Report* report) {
  std::vector<double> reads;
  for (const Sample& s : samples) {
    if (s.read) reads.push_back(s.ms);
  }
  const auto n = static_cast<int64_t>(reads.size());
  report->Set("qps", qps, "1/s", static_cast<int64_t>(samples.size()));
  report->Set("query_p50_ms", Percentile(reads, 0.50), "ms", n);
  report->Set("query_p95_ms", Percentile(reads, 0.95), "ms", n);
  if (SamplesBeyond(reads.size(), 0.95) < 10) {
    report->Note("warning: query_p95_ms has fewer than ten samples beyond "
                 "it (n=" + std::to_string(n) + ")");
  }
  if (SamplesBeyond(reads.size(), 0.99) >= 10) {
    report->Note("query_p99_ms = " + std::to_string(Percentile(reads, 0.99)) +
                 " ms (n=" + std::to_string(n) + ")");
  }
}

namespace {

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0 : static_cast<double>(num) / static_cast<double>(den);
}

double PerQuery(uint64_t count, const Counters& c) {
  return Ratio(count, c.queries);
}

}  // namespace

void EmitLayerMetrics(const SpanRecorder& spans, const LayerInputs& in,
                      Report* r) {
  const auto layers = spans.Summarize();
  auto mean_total = [&](const char* name) {
    auto it = layers.find(name);
    return it == layers.end() || it->second.count == 0
               ? 0.0
               : it->second.total_us / static_cast<double>(it->second.count);
  };
  auto count = [&](const char* name) -> int64_t {
    auto it = layers.find(name);
    return it == layers.end() ? 0 : static_cast<int64_t>(it->second.count);
  };
  // Phase means are per traced statement: a phase a statement skipped (a
  // plan-cache hit skips parse and bind) counts as zero for it.
  auto per_statement = [&](const char* name) {
    auto it = layers.find(name);
    return it == layers.end() || in.traced_statements == 0
               ? 0.0
               : it->second.total_us /
                     static_cast<double>(in.traced_statements);
  };

  r->Set("parser.parse_us", mean_total("parser.parse"), "us",
         count("parser.parse"));
  r->Set("engine.prepare_us", mean_total("engine.prepare"), "us",
         count("engine.prepare"));
  r->Set("engine.execute_us", mean_total("engine.execute"), "us",
         count("engine.execute"));
  r->Set("exec.join_us", in.join_execute_us, "us");

  const Counters& c = in.probe_counters;
  r->Set("measure.bare_over_plain", in.bare_over_plain, "ratio");
  r->Set("measure.grouped_builds", PerQuery(c.grouped_builds, c), "count");
  r->Set("measure.grouped_probes", PerQuery(c.grouped_probes, c), "count");
  r->Set("measure.source_scans", PerQuery(c.source_scans, c), "count");
  r->Set("measure.inline_evals", PerQuery(c.inline_evals, c), "count");
  r->Set("exec.vectorized_batches", PerQuery(c.vectorized_batches, c),
         "count");
  r->Set("exec.row_fallbacks", PerQuery(c.row_fallbacks, c), "count");

  r->Set("catalog.cold_scan_ms", in.cold_scan_ms, "ms");
  r->Set("catalog.read_after_insert_us", in.read_after_insert_us, "us");

  // The hit ratios carry their lookups as the sample count; the raw hits
  // and lookups grow with throughput, so they are notes (NoteShares), not
  // metrics with a direction.
  r->Set("runtime.plan_cache.hit_ratio",
         Ratio(in.plan_cache_hits, in.plan_cache_lookups), "ratio",
         static_cast<int64_t>(in.plan_cache_lookups));
  r->Set("runtime.shared_cache.hit_ratio",
         Ratio(in.shared_cache_hits, in.shared_cache_lookups), "ratio",
         static_cast<int64_t>(in.shared_cache_lookups));
  r->Set("runtime.queue_wait_us", per_statement("phase.queue_wait"), "us");
  r->Set("runtime.admission_wait_us", per_statement("phase.admission_wait"),
         "us");

  // Over the wire a request span holds the server span; its self time is
  // what the client saw beyond the server's own time.
  double overhead_us = 0;
  if (count("net.server") > 0) {
    auto it = layers.find("request");
    overhead_us = it->second.self_us / static_cast<double>(it->second.count);
  }
  r->Set("net.server_us", mean_total("net.server"), "us",
         count("net.server"));
  r->Set("net.overhead_us", overhead_us, "us", count("net.server"));

  r->Set("engine.phase.parse_us", per_statement("phase.parse"), "us");
  r->Set("engine.phase.bind_us", per_statement("phase.bind"), "us");
  r->Set("engine.phase.measure_expand_us",
         per_statement("phase.measure_expand"), "us");
  r->Set("engine.phase.plan_us", per_statement("phase.plan"), "us");
  r->Set("engine.phase.execute_us", per_statement("phase.execute"), "us");
  r->Set("engine.phase.render_us", per_statement("phase.render"), "us");

  r->Set("obs.tracing_overhead", in.tracing_overhead, "ratio");
  r->Set("bench.drift", in.drift, "ratio");

  const auto inserts = static_cast<int64_t>(in.insert_ms.size());
  r->Set("insert_p50_ms", Percentile(in.insert_ms, 0.50), "ms", inserts);
  r->Set("insert_p90_ms", Percentile(in.insert_ms, 0.90), "ms", inserts);
  if (inserts > 0 && SamplesBeyond(in.insert_ms.size(), 0.90) < 10) {
    r->Note("warning: insert_p90_ms has fewer than ten samples beyond it "
            "(n=" + std::to_string(inserts) + ")");
  }
}

bool CheckResult(const msql::Result<msql::ResultSet>& r,
                 const CanonicalResult& ref, const std::string& sql,
                 Report* report) {
  std::string problem;
  if (!r.ok()) {
    problem = "error " + r.status().ToString();
  } else {
    problem = Compare(Canonicalize(r.value()), ref);
  }
  if (problem.empty()) return true;
  if (report->failed < 10) {
    report->Note("WRONG RESULT (" + problem + "): " + sql);
  }
  return false;
}

CacheSnapshot SnapshotCaches(msql::Engine* db) {
  return {db->plan_cache().stats(), db->shared_cache().stats()};
}

void CacheDelta(msql::Engine* db, const CacheSnapshot& before,
                LayerInputs* layers) {
  const CacheSnapshot after = SnapshotCaches(db);
  layers->plan_cache_hits += after.plan.hits - before.plan.hits;
  layers->plan_cache_lookups += (after.plan.hits + after.plan.misses) -
                                (before.plan.hits + before.plan.misses);
  layers->shared_cache_hits += after.shared.hits - before.shared.hits;
  layers->shared_cache_lookups += (after.shared.hits + after.shared.misses) -
                                  (before.shared.hits + before.shared.misses);
}

void NoteShares(const LayerInputs& layers, double unique_share,
                double insert_share, Report* report) {
  char line[256];
  std::snprintf(line, sizeof(line),
                "traffic shares: plan-cache hit %.4f (%llu/%llu), unique text "
                "%.4f, insert %.4f, shared-cache hit %.4f (%llu/%llu)",
                Ratio(layers.plan_cache_hits, layers.plan_cache_lookups),
                static_cast<unsigned long long>(layers.plan_cache_hits),
                static_cast<unsigned long long>(layers.plan_cache_lookups),
                unique_share, insert_share,
                Ratio(layers.shared_cache_hits, layers.shared_cache_lookups),
                static_cast<unsigned long long>(layers.shared_cache_hits),
                static_cast<unsigned long long>(layers.shared_cache_lookups));
  report->Note(line);
}

void WriteSpans(const std::string& path, const SpanRecorder& spans,
                Report* report) {
  if (path.empty()) return;
  if (spans.WriteTo(path)) {
    report->Note("spans: " + std::to_string(spans.size()) + " written to " +
                 path);
  } else {
    report->Note("spans: could not write " + path);
  }
}

}  // namespace msqlbench
