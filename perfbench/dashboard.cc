// The `dashboard_net` workload: an in-process msqld (the engine and server
// options tools/msqld.cc sets) serving four loopback connections that
// query a small table through a 12-level semantic-layer view stack. Each
// connection sends a seeded mix of hot repeated texts, unique texts and
// prepared statements with fresh parameters, closed loop.

#include <memory>
#include <thread>

#include "generator.h"
#include "layers.h"
#include "net/client.h"
#include "net/server.h"
#include "workloads.h"

namespace msqlbench {
namespace {

using msql::Engine;
using msql::ResultSet;

constexpr int kConnections = 4;
constexpr int kSetups = 11;         // set-ups per run; setup_s is their median
constexpr size_t kProbeOps = 30;    // layer-probe statements

msql::EngineOptions MsqldEngineOptions() {
  msql::EngineOptions o;
  o.enable_plan_cache = true;
  o.enable_system_tables = true;
  return o;
}

msql::net::ServerOptions MsqldServerOptions() {
  msql::net::ServerOptions o;
  o.num_handler_threads = 4;
  o.num_worker_threads = 8;
  return o;
}

std::unique_ptr<Engine> LoadDashboardData(const Sizes& sizes, uint64_t seed,
                                          const msql::EngineOptions& options) {
  auto db = std::make_unique<Engine>(options);
  Rng rng(seed);
  auto orders = GenOrders(&rng, sizes.dash_orders, sizes.dash_products,
                          sizes.dash_customers, sizes.years);
  auto customers = GenCustomers(&rng, sizes.dash_customers);
  msql::Status st = LoadSchema(db.get(), std::move(orders),
                               std::move(customers), sizes.view_levels);
  if (!st.ok()) {
    std::fprintf(stderr, "load failed: %s\n", st.ToString().c_str());
    return nullptr;
  }
  return db;
}

struct NetSetup {
  std::unique_ptr<Engine> db;
  std::unique_ptr<msql::net::MsqldServer> server;
  std::vector<std::unique_ptr<msql::net::Client>> clients;
  // Per connection, the handle of each prepared template.
  std::vector<std::vector<msql::net::ClientStatement>> stmts;

  NetSetup() = default;
  NetSetup(const NetSetup&) = delete;
  NetSetup& operator=(const NetSetup&) = delete;
  ~NetSetup() { Reset(); }

  void Reset() {
    for (auto& c : clients) c->Disconnect();
    clients.clear();
    stmts.clear();
    if (server != nullptr) server->Stop();
    server.reset();
    db.reset();
  }
};

// A context that bypasses the plan cache, for the cold-scan and layer
// probes on the served engine.
msql::QueryContext UncachedContext(Engine* db) {
  msql::QueryContext ctx;
  ctx.options = db->options();
  ctx.options.enable_plan_cache = false;
  ctx.options.enable_tracing = false;
  return ctx;
}

// Hot texts whose template differs: one per hot template kind.
std::vector<int> HotTemplateRepresentatives(const Sizes& sizes) {
  return {0, sizes.years, sizes.years + 1};
}

// An operation's Sample key: its hot text, the hot text a unique text
// extends, or its prepared statement and parameters.
int Kind(const DashOp& op) {
  return static_cast<int>(op.cls) * 100000 + op.index * 1000 + op.param;
}

std::string UniqueText(const Dashboard& d, int index, int conn,
                       uint64_t counter) {
  // A LIMIT far above any result size: a new text every time, the same
  // rows as the hot statement it extends.
  return d.hot[static_cast<size_t>(index)] + " LIMIT " +
         std::to_string(1000000000ull +
                        static_cast<uint64_t>(conn) * 100000000ull + counter);
}

// One set-up: generate, load, create the view stack, start the server,
// connect and prepare on every connection, and run each template once.
bool SetupDashboard(const Sizes& sizes, uint64_t seed, const Dashboard& d,
                    NetSetup* out, double* setup_s, double* cold_scan_ms) {
  const int64_t start = NowNs();
  out->db = LoadDashboardData(sizes, seed, MsqldEngineOptions());
  if (out->db == nullptr) return false;
  const msql::QueryContext ctx = UncachedContext(out->db.get());
  int64_t t0 = NowNs();
  const bool cold_ok = out->db->QueryWith(kColdScanSql, ctx).ok();
  const double cold = static_cast<double>(NowNs() - t0) / 1e6;
  t0 = NowNs();
  const bool warm_ok = out->db->QueryWith(kColdScanSql, ctx).ok();
  const double warm = static_cast<double>(NowNs() - t0) / 1e6;
  if (!cold_ok || !warm_ok) {
    std::fprintf(stderr, "cold-scan query failed\n");
    return false;
  }

  out->server = std::make_unique<msql::net::MsqldServer>(
      out->db.get(), MsqldServerOptions());
  msql::Status started = out->server->Start();
  if (!started.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 started.ToString().c_str());
    return false;
  }
  for (int c = 0; c < kConnections; ++c) {
    auto client = std::make_unique<msql::net::Client>();
    msql::net::ClientOptions copts;
    copts.user = "bench";
    msql::Status st =
        client->Connect("127.0.0.1", out->server->port(), copts);
    if (!st.ok()) {
      std::fprintf(stderr, "connect failed: %s\n", st.ToString().c_str());
      return false;
    }
    std::vector<msql::net::ClientStatement> handles;
    for (const PreparedTemplate& p : d.prepared) {
      auto h = client->Prepare(p.sql, p.types);
      if (!h.ok()) {
        std::fprintf(stderr, "prepare failed: %s\n",
                     h.status().ToString().c_str());
        return false;
      }
      handles.push_back(h.value());
    }
    // Each connection runs one hot statement; the first also runs every
    // other template once.
    std::vector<std::string> warm_texts = {d.hot[0]};
    if (c == 0) {
      for (int i : HotTemplateRepresentatives(sizes)) {
        warm_texts.push_back(d.hot[static_cast<size_t>(i)]);
      }
      warm_texts.push_back(d.hot[0] + " LIMIT 999999999");
    }
    for (const std::string& sql : warm_texts) {
      auto r = client->Query(sql);
      if (!r.ok()) {
        std::fprintf(stderr, "warm-up query failed: %s: %s\n", sql.c_str(),
                     r.status().ToString().c_str());
        return false;
      }
    }
    if (c == 0) {
      for (size_t p = 0; p < d.prepared.size(); ++p) {
        msql::Status b = client->Bind(handles[p], d.prepared[p].params[0]);
        auto r = b.ok() ? client->Execute(handles[p])
                        : msql::Result<ResultSet>(b);
        if (!r.ok()) {
          std::fprintf(stderr, "warm-up execute failed: %s\n",
                       r.status().ToString().c_str());
          return false;
        }
      }
    }
    out->clients.push_back(std::move(client));
    out->stmts.push_back(std::move(handles));
  }
  *setup_s = static_cast<double>(NowNs() - start) / 1e9;
  *cold_scan_ms = cold - warm;
  return true;
}

// References from the paper's section 4.2 expansion (Engine::ExpandSql)
// of each statement, run on a separate engine with the same data.
bool DashboardReferences(const Sizes& sizes, uint64_t seed, const Dashboard& d,
                         std::vector<CanonicalResult>* hot,
                         std::vector<std::vector<CanonicalResult>>* prepared) {
  auto ref = LoadDashboardData(sizes, seed, msql::EngineOptions());
  if (ref == nullptr) return false;
  auto expand = [&](const std::string& sql, CanonicalResult* out) {
    auto expanded = ref->ExpandSql(sql);
    auto r = expanded.ok() ? ref->Query(expanded.value())
                           : msql::Result<ResultSet>(expanded.status());
    if (!r.ok()) {
      std::fprintf(stderr, "reference query failed: %s: %s\n", sql.c_str(),
                   r.status().ToString().c_str());
      return false;
    }
    *out = Canonicalize(r.value());
    return true;
  };
  hot->resize(d.hot.size());
  for (size_t i = 0; i < d.hot.size(); ++i) {
    if (!expand(d.hot[i], &(*hot)[i])) return false;
  }
  prepared->assign(d.prepared.size(), {});
  for (size_t p = 0; p < d.prepared.size(); ++p) {
    for (const msql::Row& params : d.prepared[p].params) {
      (*prepared)[p].emplace_back();
      if (!expand(SubstituteParams(d.prepared[p].sql, params),
                  &(*prepared)[p].back())) {
        return false;
      }
    }
  }
  return true;
}

// What one connection's client thread measured.
struct ConnOutcome {
  std::vector<Sample> samples;  // successful operations, in issue order
  double busy_s = 0;            // time spent waiting for replies
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t traced = 0;
  uint64_t by_class[3] = {0, 0, 0};
  Report notes;  // wrong results, merged after the join
};

}  // namespace

bool RunDashboard(const Options& opts, Report* report) {
  const Sizes sizes = opts.tiny ? TinySizes() : FullSizes();
  Rng seq_rng(opts.seed ^ 0xDA5B0A4Dull);
  // 8000 ops per connection; a run that gets further wraps around.
  const Dashboard d = DashboardTraffic(&seq_rng, sizes, kConnections, 8000);

  std::vector<CanonicalResult> hot_refs;
  std::vector<std::vector<CanonicalResult>> prepared_refs;
  if (!DashboardReferences(sizes, opts.seed, d, &hot_refs, &prepared_refs)) {
    return false;
  }

  report->Note("dashboard_net: seed " + std::to_string(opts.seed) + ", " +
               std::to_string(sizes.dash_orders) + " orders, " +
               std::to_string(sizes.dash_products) + " products, " +
               std::to_string(sizes.dash_customers) + " customers, " +
               std::to_string(sizes.view_levels) + " view levels, " +
               std::to_string(d.hot.size()) + " hot texts, " +
               std::to_string(kConnections) + " connections");

  NetSetup st;
  LayerInputs layers;
  {
    std::vector<double> setup_s, cold_ms;
    for (int i = 0; i < kSetups; ++i) {
      st.Reset();
      double s = 0, c = 0;
      if (!SetupDashboard(sizes, opts.seed, d, &st, &s, &c)) return false;
      setup_s.push_back(s);
      cold_ms.push_back(c);
    }
    if (!opts.trace) {
      report->Set("setup_s", Median(std::move(setup_s)), "s", kSetups);
    }
    layers.cold_scan_ms = Median(std::move(cold_ms));
  }

  SpanRecorder spans;
  if (opts.trace) {
    // Layer probes on the served engine, before traffic starts.
    const msql::QueryContext ctx = UncachedContext(st.db.get());
    const std::vector<DashOp>& seq = d.sequences[0];
    uint64_t counter = 0;
    for (size_t i = 0; i < kProbeOps; ++i) {
      const DashOp& op = seq[i];
      ProbeResult p;
      const CanonicalResult* ref = nullptr;
      std::string sql;
      const uint64_t request = (uint64_t{1} << 60) + i;
      if (op.cls == TrafficClass::kPrepared) {
        const PreparedTemplate& t = d.prepared[static_cast<size_t>(op.index)];
        sql = t.sql;
        p = ProbeLayers(st.db.get(), ctx, t.sql, t.types,
                        t.params[static_cast<size_t>(op.param)], &spans,
                        request);
        ref = &prepared_refs[static_cast<size_t>(op.index)]
                            [static_cast<size_t>(op.param)];
      } else {
        sql = op.cls == TrafficClass::kHot
                  ? d.hot[static_cast<size_t>(op.index)]
                  : UniqueText(d, op.index, kConnections, counter++);
        p = ProbeLayers(st.db.get(), ctx, sql, {}, {}, &spans, request);
        ref = &hot_refs[static_cast<size_t>(op.index)];
      }
      ++report->attempted;
      if (!CheckResult(p.result, *ref, sql, report)) {
        ++report->failed;
        continue;
      }
      if (p.result.value().stats() != nullptr) {
        layers.probe_counters.Add(*p.result.value().stats());
      }
    }
  }

  const CacheSnapshot caches = SnapshotCaches(st.db.get());
  ResetPeakRss();
  std::vector<ConnOutcome> outcomes(kConnections);
  const int64_t deadline = NowNs() + static_cast<int64_t>(opts.seconds * 1e9);
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      ConnOutcome& out = outcomes[static_cast<size_t>(c)];
      msql::net::Client& client = *st.clients[static_cast<size_t>(c)];
      const std::vector<DashOp>& seq = d.sequences[static_cast<size_t>(c)];
      uint64_t counter = 0;
      for (size_t i = 0; NowNs() < deadline; ++i) {
        const DashOp& op = seq[i % seq.size()];
        const bool traced = opts.trace && i % 2 == 1;
        client.SetTrace(traced);
        const CanonicalResult* ref = nullptr;
        std::string sql;
        msql::Result<ResultSet> r{ResultSet()};
        const int64_t t0 = NowNs();
        if (op.cls == TrafficClass::kPrepared) {
          const auto& handle =
              st.stmts[static_cast<size_t>(c)][static_cast<size_t>(op.index)];
          const msql::Row& params =
              d.prepared[static_cast<size_t>(op.index)]
                  .params[static_cast<size_t>(op.param)];
          msql::Status b = client.Bind(handle, params);
          r = b.ok() ? client.Execute(handle) : msql::Result<ResultSet>(b);
          ref = &prepared_refs[static_cast<size_t>(op.index)]
                              [static_cast<size_t>(op.param)];
        } else {
          sql = op.cls == TrafficClass::kHot
                    ? d.hot[static_cast<size_t>(op.index)]
                    : UniqueText(d, op.index, c, counter++);
          r = client.Query(sql);
          ref = &hot_refs[static_cast<size_t>(op.index)];
        }
        const int64_t t1 = NowNs();
        out.busy_s += static_cast<double>(t1 - t0) / 1e9;
        ++out.attempted;
        ++out.by_class[static_cast<int>(op.cls)];
        if (!CheckResult(r, *ref,
                         sql.empty() ? d.prepared[static_cast<size_t>(
                                                      op.index)].sql
                                     : sql,
                         &out.notes)) {
          ++out.failed;
          ++out.notes.failed;
          continue;
        }
        const double ms = static_cast<double>(t1 - t0) / 1e6;
        out.samples.push_back({Kind(op), ms, true, traced});
        if (traced && r.value().stats() != nullptr) {
          ++out.traced;
          const msql::QueryStats& s = *r.value().stats();
          const uint64_t request = (static_cast<uint64_t>(c) << 48) + i;
          const int64_t root = spans.Add("request", t0, t1, -1, request);
          const int64_t server_ns =
              (s.admission_wait_us + s.queue_wait_us + s.parse_us +
               s.total_us) *
              1000;
          const int64_t at =
              t0 + std::max<int64_t>(0, (t1 - t0 - server_ns) / 2);
          const int64_t server =
              spans.Add("net.server", at, at + server_ns, root, request);
          AddPhaseSpans(&spans, s, at, server, request);
        }
      }
      client.SetTrace(false);
    });
  }
  for (auto& t : threads) t.join();
  const double peak_mb = PeakRssMb();
  CacheDelta(st.db.get(), caches, &layers);

  std::vector<Sample> samples;
  std::vector<double> drifts;
  // Each connection's statements over the time it waited for replies, so
  // the result checks between statements do not count.
  double qps = 0;
  uint64_t by_class[3] = {0, 0, 0};
  for (ConnOutcome& o : outcomes) {
    report->attempted += o.attempted;
    report->failed += o.failed;
    for (const std::string& n : o.notes.notes) report->Note(n);
    samples.insert(samples.end(), o.samples.begin(), o.samples.end());
    layers.traced_statements += o.traced;
    drifts.push_back(Drift(o.samples));
    if (o.busy_s > 0) qps += static_cast<double>(o.samples.size()) / o.busy_s;
    for (int k = 0; k < 3; ++k) by_class[k] += o.by_class[k];
  }
  const double ops = static_cast<double>(
      by_class[0] + by_class[1] + by_class[2]);

  if (!opts.trace) {
    EmitEndToEnd(samples, qps, report);
    report->Set("peak_rss_mb", peak_mb, "MB");
  } else {
    // Traced and untraced operations alternate on every connection.
    layers.tracing_overhead = TracingOverhead(samples);
    layers.drift = Mean(drifts);
    EmitLayerMetrics(spans, layers, report);
    WriteSpans(opts.spans_out, spans, report);
  }
  char line[160];
  std::snprintf(line, sizeof(line),
                "traffic classes: hot %.4f, unique %.4f, prepared %.4f of %.0f "
                "operations",
                by_class[0] / ops, by_class[1] / ops, by_class[2] / ops, ops);
  report->Note(line);
  NoteShares(layers, by_class[1] / ops, 0, report);
  st.Reset();
  return true;
}

}  // namespace msqlbench
