// The embedded workloads: `analyst` (read-only measure queries on one
// session) and `ingest` (the same data, with every fifth statement a SQL
// INSERT). Both run the engine with EngineOptions defaults.

#include <array>
#include <memory>

#include "generator.h"
#include "layers.h"
#include "runtime/session.h"
#include "workloads.h"

namespace msqlbench {
namespace {

using msql::Engine;
using msql::ResultSet;
using msql::SessionPtr;

constexpr int kSetups = 11;         // set-ups before the loop
constexpr size_t kProbeOps = 40;    // layer-probe statements (two blocks)

uint64_t SequenceSeed(uint64_t seed) { return seed ^ 0x5EED5EED5EEDull; }

// The statement a read sends, as a Sample key.
int StatementKind(const Op& op) { return op.tmpl * 1000 + op.stmt; }

// One session: its statements over the time it spent in them, without the
// result checks.
double BusyQps(const std::vector<Sample>& samples) {
  double ms = 0;
  for (const Sample& s : samples) ms += s.ms;
  return ms > 0 ? static_cast<double>(samples.size()) * 1000.0 / ms : 0;
}

double MsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e6;
}

// Loads the analyst data into a fresh engine (EngineOptions defaults).
std::unique_ptr<Engine> LoadAnalystData(const Sizes& sizes, uint64_t seed) {
  auto db = std::make_unique<Engine>();
  Rng rng(seed);
  auto orders = GenOrders(&rng, sizes.orders, sizes.products, sizes.customers,
                          sizes.years);
  auto customers = GenCustomers(&rng, sizes.customers);
  msql::Status st =
      LoadSchema(db.get(), std::move(orders), std::move(customers), 0);
  if (!st.ok()) {
    std::fprintf(stderr, "load failed: %s\n", st.ToString().c_str());
    return nullptr;
  }
  return db;
}

struct EmbeddedSetup {
  std::unique_ptr<Engine> db;
  SessionPtr session;  // declared after db: destroyed first
  void Reset() {
    session.reset();
    db.reset();
  }
};

// The set-ups of a run: setup_s and catalog.cold_scan_ms are the medians.
struct SetupTimes {
  std::vector<double> setup_s;
  std::vector<double> cold_scan_ms;

  void Emit(const Options& opts, Report* report, LayerInputs* layers) {
    if (!opts.trace) {
      report->Set("setup_s", Median(setup_s), "s",
                  static_cast<int64_t>(setup_s.size()));
    }
    layers->cold_scan_ms = Median(cold_scan_ms);
  }
};

// One set-up, replacing `out`: generate, load, create views, open the
// session and run each of the workload's templates once. Before the
// templates, the cold-scan probe runs twice; the difference is the first
// scan's cost.
bool SetupEmbedded(const Sizes& sizes, uint64_t seed,
                   const std::vector<Template>& tmpls,
                   const std::vector<int>& use, EmbeddedSetup* out,
                   SetupTimes* times) {
  out->Reset();
  const int64_t start = NowNs();
  out->db = LoadAnalystData(sizes, seed);
  if (out->db == nullptr) return false;
  int64_t t0 = NowNs();
  const bool cold_ok = out->db->Query(kColdScanSql).ok();
  const double cold = MsSince(t0);
  t0 = NowNs();
  const bool warm_ok = out->db->Query(kColdScanSql).ok();
  const double warm = MsSince(t0);
  if (!cold_ok || !warm_ok) {
    std::fprintf(stderr, "cold-scan query failed: %s\n", kColdScanSql);
    return false;
  }
  out->session = out->db->CreateSession();
  for (int t : use) {
    const Stmt& s = tmpls[static_cast<size_t>(t)].stmts[0];
    auto r = out->session->Query(s.sql);
    if (!r.ok()) {
      std::fprintf(stderr, "warm-up query failed: %s: %s\n", s.sql.c_str(),
                   r.status().ToString().c_str());
      return false;
    }
  }
  times->setup_s.push_back(MsSince(start) / 1000.0);
  times->cold_scan_ms.push_back(cold - warm);
  return true;
}

// Runs the set-up kSetups times and keeps the last one.
bool RepeatedSetup(const Options& opts, const Sizes& sizes,
                   const std::vector<Template>& tmpls,
                   const std::vector<int>& use, EmbeddedSetup* out,
                   SetupTimes* times) {
  for (int i = 0; i < kSetups; ++i) {
    if (!SetupEmbedded(sizes, opts.seed, tmpls, use, out, times)) {
      return false;
    }
  }
  return true;
}

// Reference results of every statement of `use`, from each statement's
// plain-SQL twin on a separate engine loaded with the same data.
bool AnalystReferences(Engine* ref, const std::vector<Template>& tmpls,
                       const std::vector<int>& use,
                       std::vector<std::vector<CanonicalResult>>* out) {
  out->assign(tmpls.size(), {});
  for (int t : use) {
    for (const Stmt& s : tmpls[static_cast<size_t>(t)].stmts) {
      auto r = ref->Query(s.reference);
      if (!r.ok()) {
        std::fprintf(stderr, "reference query failed: %s: %s\n",
                     s.reference.c_str(), r.status().ToString().c_str());
        return false;
      }
      (*out)[static_cast<size_t>(t)].push_back(Canonicalize(r.value()));
    }
  }
  return true;
}

// A context for the layer probes: the session's options, so the plan
// cache stays off as the embedded workloads ship.
msql::QueryContext ProbeContext(const EmbeddedSetup& st) {
  msql::QueryContext ctx;
  ctx.options = st.session->options();
  ctx.options.enable_tracing = false;
  ctx.options.enable_plan_cache = false;
  ctx.user = st.session->user();
  return ctx;
}

// Runs the layer probes over `ops` and fills the probe-derived inputs.
void RunProbes(const EmbeddedSetup& st, const std::vector<Template>& tmpls,
               const std::vector<Op>& ops,
               const std::vector<const CanonicalResult*>& refs,
               SpanRecorder* spans, uint64_t* request, Report* report,
               LayerInputs* layers) {
  const msql::QueryContext ctx = ProbeContext(st);
  std::vector<double> bare_us, plain_us, join_us;
  for (size_t i = 0; i < ops.size(); ++i) {
    const Stmt& s = tmpls[static_cast<size_t>(ops[i].tmpl)]
                        .stmts[static_cast<size_t>(ops[i].stmt)];
    ProbeResult p = ProbeLayers(st.db.get(), ctx, s.sql, {}, {}, spans,
                                ++*request);
    ++report->attempted;
    if (!CheckResult(p.result, *refs[i], s.sql, report)) {
      ++report->failed;
      continue;
    }
    if (p.result.value().stats() != nullptr) {
      layers->probe_counters.Add(*p.result.value().stats());
    }
    if (s.tmpl == kBare) bare_us.push_back(p.execute_us);
    if (s.tmpl == kPlain) plain_us.push_back(p.execute_us);
    if (s.tmpl == kJoin) join_us.push_back(p.execute_us);
  }
  if (!bare_us.empty() && !plain_us.empty()) {
    layers->bare_over_plain = Mean(bare_us) / Mean(plain_us);
  }
  layers->join_execute_us = Mean(join_us);
}

// One read through Session::Query. Traced reads record a "request" span,
// an "engine.query" span around the call and the phases it reported.
struct ReadOutcome {
  msql::Result<ResultSet> result{ResultSet()};
  double ms = 0;
};
ReadOutcome TimedRead(msql::Session* session, const std::string& sql,
                      bool traced, SpanRecorder* spans, uint64_t request) {
  ReadOutcome out;
  const int64_t root =
      traced ? spans->Open("request", NowNs(), -1, request) : -1;
  const int64_t t0 = NowNs();
  out.result = session->Query(sql);
  const int64_t t1 = NowNs();
  out.ms = static_cast<double>(t1 - t0) / 1e6;
  if (traced) {
    const int64_t q = spans->Add("engine.query", t0, t1, root, request);
    if (out.result.ok() && out.result.value().stats() != nullptr) {
      AddPhaseSpans(spans, *out.result.value().stats(), t0, q, request);
    }
    spans->Close(root, NowNs());
  }
  return out;
}

}  // namespace

bool RunAnalyst(const Options& opts, Report* report) {
  const Sizes sizes = opts.tiny ? TinySizes() : FullSizes();
  const std::vector<Template> tmpls = AnalystTemplates(sizes);
  std::vector<int> use;
  for (int t = 0; t < kNumAnalystTemplates; ++t) use.push_back(t);
  Rng seq_rng(SequenceSeed(opts.seed));
  // 200 blocks; a run that gets further wraps around.
  const std::vector<Op> seq = BlockSequence(&seq_rng, tmpls, use, 4000);

  std::vector<std::vector<CanonicalResult>> refs;
  {
    auto ref = LoadAnalystData(sizes, opts.seed);
    if (ref == nullptr || !AnalystReferences(ref.get(), tmpls, use, &refs)) {
      return false;
    }
  }

  report->Note("analyst: seed " + std::to_string(opts.seed) + ", " +
               std::to_string(sizes.orders) + " orders, " +
               std::to_string(sizes.products) + " products, " +
               std::to_string(sizes.customers) + " customers, " +
               std::to_string(sizes.years) + " years, 1 session");

  EmbeddedSetup st;
  LayerInputs layers;
  SetupTimes setups;
  if (!RepeatedSetup(opts, sizes, tmpls, use, &st, &setups)) return false;
  setups.Emit(opts, report, &layers);

  SpanRecorder spans;
  uint64_t request = 0;
  if (opts.trace) {
    std::vector<Op> probe_ops(seq.begin(), seq.begin() + kProbeOps);
    std::vector<const CanonicalResult*> probe_refs;
    for (const Op& op : probe_ops) {
      probe_refs.push_back(&refs[static_cast<size_t>(op.tmpl)]
                                [static_cast<size_t>(op.stmt)]);
    }
    RunProbes(st, tmpls, probe_ops, probe_refs, &spans, &request, report,
              &layers);
  }

  const CacheSnapshot caches = SnapshotCaches(st.db.get());
  ResetPeakRss();

  // Traced runs alternate untraced and traced blocks of the sequence.
  size_t block = 0;
  for (int t : use) block += static_cast<size_t>(tmpls[t].weight);
  std::vector<Sample> samples;  // every successful read, in issue order
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(opts.seconds * 1e9);
  for (size_t i = 0; NowNs() < deadline; ++i) {
    const Op& op = seq[i % seq.size()];
    const Stmt& s = tmpls[static_cast<size_t>(op.tmpl)]
                        .stmts[static_cast<size_t>(op.stmt)];
    const bool traced = opts.trace && (i / block) % 2 == 1;
    st.session->options().enable_tracing = traced;
    ReadOutcome r = TimedRead(st.session.get(), s.sql, traced, &spans,
                              ++request);
    ++report->attempted;
    if (!CheckResult(r.result, refs[static_cast<size_t>(op.tmpl)]
                                   [static_cast<size_t>(op.stmt)],
                     s.sql, report)) {
      ++report->failed;
      continue;
    }
    samples.push_back({StatementKind(op), r.ms, true, traced});
    if (traced) ++layers.traced_statements;
  }
  st.session->options().enable_tracing = false;
  CacheDelta(st.db.get(), caches, &layers);

  if (!opts.trace) {
    EmitEndToEnd(samples, BusyQps(samples), report);
    report->Set("peak_rss_mb", PeakRssMb(), "MB");
  } else {
    layers.tracing_overhead = TracingOverhead(samples);
    layers.drift = Drift(samples);
    EmitLayerMetrics(spans, layers, report);
    WriteSpans(opts.spans_out, spans, report);
  }
  NoteShares(layers, 0, 0, report);
  return true;
}

bool RunIngest(const Options& opts, Report* report) {
  const Sizes sizes = opts.tiny ? TinySizes() : FullSizes();
  const std::vector<Template> tmpls = AnalystTemplates(sizes);
  const std::vector<int> use = IngestReadTemplates();
  // One epoch: a fixed run of cycles from the loaded state. Epochs repeat,
  // each on a fresh load, until --seconds, so the table goes through the
  // same sizes whatever the engine's speed.
  const int cycles = sizes.ingest_epoch_cycles;
  Rng seq_rng(SequenceSeed(opts.seed));
  const std::vector<IngestCycle> seq =
      IngestSequence(&seq_rng, sizes, tmpls, cycles);
  // Layer probes read the loaded state before any INSERT.
  std::vector<Op> probe_ops;
  for (size_t c = 0; probe_ops.size() < kProbeOps / 2 && c < seq.size(); ++c) {
    for (int i = 0; i < 3; ++i) probe_ops.push_back(seq[c].reads[i]);
  }

  // References: the plain-SQL twin of every read on a separate engine that
  // receives the same rows (through InsertRows, not SQL) between cycles.
  std::vector<CanonicalResult> probe_refs;
  std::vector<std::array<CanonicalResult, 4>> refs(seq.size());
  {
    auto ref = LoadAnalystData(sizes, opts.seed);
    if (ref == nullptr) return false;
    auto twin = [&](const Op& op, CanonicalResult* out) {
      const Stmt& s = tmpls[static_cast<size_t>(op.tmpl)]
                          .stmts[static_cast<size_t>(op.stmt)];
      auto r = ref->Query(s.reference);
      if (!r.ok()) {
        std::fprintf(stderr, "reference query failed: %s: %s\n",
                     s.reference.c_str(), r.status().ToString().c_str());
        return false;
      }
      *out = Canonicalize(r.value());
      return true;
    };
    probe_refs.resize(probe_ops.size());
    for (size_t i = 0; i < probe_ops.size(); ++i) {
      if (!twin(probe_ops[i], &probe_refs[i])) return false;
    }
    for (size_t c = 0; c < seq.size(); ++c) {
      msql::Status st = ref->InsertRows("Orders", seq[c].rows);
      if (!st.ok()) {
        std::fprintf(stderr, "reference insert failed: %s\n",
                     st.ToString().c_str());
        return false;
      }
      for (int i = 0; i < 3; ++i) {
        if (!twin(seq[c].reads[i], &refs[c][static_cast<size_t>(i)])) {
          return false;
        }
      }
      refs[c][3] = refs[c][0];
    }
  }

  report->Note("ingest: seed " + std::to_string(opts.seed) + ", " +
               std::to_string(sizes.orders) + " orders growing by " +
               std::to_string(cycles) + " x " +
               std::to_string(sizes.ingest_batch_rows) +
               " rows per epoch, " + std::to_string(sizes.products) +
               " products, " + std::to_string(sizes.customers) +
               " customers, 1 session");

  EmbeddedSetup st;
  LayerInputs layers;
  SetupTimes setups;  // the set-ups before the loop and each epoch's load
  if (!RepeatedSetup(opts, sizes, tmpls, use, &st, &setups)) return false;

  SpanRecorder spans;
  uint64_t request = 0;
  if (opts.trace) {
    std::vector<const CanonicalResult*> refs_ptr;
    for (const CanonicalResult& r : probe_refs) refs_ptr.push_back(&r);
    RunProbes(st, tmpls, probe_ops, refs_ptr, &spans, &request, report,
              &layers);
  }

  // Sample keys: the INSERT, and each read statement at each of the four
  // read positions of a cycle (the first read after the INSERT, the two
  // that follow, and the repeat of the first, which finds its results
  // cached), so tracing overhead compares like with like.
  constexpr int kInsertKind = -1;
  auto read_kind = [](const Op& op, int position) {
    return StatementKind(op) * 4 + position;
  };
  std::vector<Sample> samples;  // successful operations, in issue order
  std::vector<double> first_read, repeat_read;
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(opts.seconds * 1e9);
  size_t run_cycles = 0;
  int epochs = 0;
  double peak_mb = 0;
  for (; NowNs() < deadline; ++epochs) {
    if (epochs > 0 &&
        !SetupEmbedded(sizes, opts.seed, tmpls, use, &st, &setups)) {
      return false;
    }
    const CacheSnapshot caches = SnapshotCaches(st.db.get());
    ResetPeakRss();
    for (size_t c = 0; c < seq.size() && NowNs() < deadline; ++c) {
      // Traced runs alternate untraced and traced groups of three cycles.
      const bool traced = opts.trace && (run_cycles / 3) % 2 == 1;
      ++run_cycles;
      st.session->options().enable_tracing = traced;
      {
        const uint64_t req = ++request;
        const int64_t root =
            traced ? spans.Open("request", NowNs(), -1, req) : -1;
        const int64_t t0 = NowNs();
        msql::Status ins = st.session->Execute(seq[c].insert_sql);
        const int64_t t1 = NowNs();
        if (traced) {
          spans.Add("engine.insert", t0, t1, root, req);
          spans.Close(root, NowNs());
        }
        ++report->attempted;
        const double ms = static_cast<double>(t1 - t0) / 1e6;
        if (!ins.ok()) {
          ++report->failed;
          if (report->failed <= 10) {
            report->Note("INSERT failed: " + ins.ToString());
          }
        } else {
          layers.insert_ms.push_back(ms);
          samples.push_back({kInsertKind, ms, false, traced});
        }
      }
      for (int i = 0; i < 4; ++i) {
        const Op& op = seq[c].reads[i];
        const Stmt& s = tmpls[static_cast<size_t>(op.tmpl)]
                            .stmts[static_cast<size_t>(op.stmt)];
        ReadOutcome r = TimedRead(st.session.get(), s.sql, traced, &spans,
                                  ++request);
        ++report->attempted;
        if (!CheckResult(r.result, refs[c][static_cast<size_t>(i)], s.sql,
                         report)) {
          ++report->failed;
          continue;
        }
        samples.push_back({read_kind(op, i), r.ms, true, traced});
        if (traced) ++layers.traced_statements;
        if (i == 0) first_read.push_back(r.ms);
        if (i == 3) repeat_read.push_back(r.ms);
      }
    }
    st.session->options().enable_tracing = false;
    CacheDelta(st.db.get(), caches, &layers);
    peak_mb = std::max(peak_mb, PeakRssMb());
  }
  report->Note("ingest: " + std::to_string(run_cycles) + " cycles in " +
               std::to_string(epochs) + " epochs");
  setups.Emit(opts, report, &layers);
  layers.read_after_insert_us =
      (Median(first_read) - Median(repeat_read)) * 1000.0;

  if (!opts.trace) {
    EmitEndToEnd(samples, BusyQps(samples), report);
    report->Set("peak_rss_mb", peak_mb, "MB");
    char line[200];
    std::snprintf(line, sizeof(line),
                  "insert_p50_ms = %.4f ms, insert_p90_ms = %.4f ms (n=%zu); "
                  "first read after insert - steady read = %.1f us",
                  Percentile(layers.insert_ms, 0.5),
                  Percentile(layers.insert_ms, 0.90), layers.insert_ms.size(),
                  layers.read_after_insert_us);
    report->Note(line);
  } else {
    layers.tracing_overhead = TracingOverhead(samples);
    layers.drift = Drift(samples);
    EmitLayerMetrics(spans, layers, report);
    WriteSpans(opts.spans_out, spans, report);
  }
  NoteShares(layers, 0, 1.0 / 5.0, report);
  return true;
}

}  // namespace msqlbench
