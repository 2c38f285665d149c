#ifndef MSQLBENCH_GENERATOR_H_
#define MSQLBENCH_GENERATOR_H_

// The seeded generator: from one --seed it builds every table the
// workloads load and every operation sequence they send. The program under
// test only ever sees the generated rows and statement texts.

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "common/status.h"
#include "common/types.h"
#include "common/value.h"
#include "engine/engine.h"

namespace msqlbench {

// Data sizes. `full` is what the benchmark measures; `tiny` is for the
// self-test (same shapes, a fraction of the rows).
struct Sizes {
  int orders = 100000;
  int products = 100;
  int customers = 1000;
  int years = 3;  // 2022 .. 2022 + years - 1
  int dash_orders = 5000;
  int dash_products = 20;
  int dash_customers = 100;
  int view_levels = 12;
  int ingest_batch_rows = 50;
  // ingest runs epochs of this many 5-operation cycles, each from a fresh
  // load, so the table follows the same sizes whatever the engine's speed.
  int ingest_epoch_cycles = 30;
};
Sizes FullSizes();
Sizes TinySizes();

constexpr int kFirstYear = 2022;

// The catalog cold-scan probe: a plain aggregate over Orders, run first
// after a load and then repeated. Plain SQL, so the repeat cannot reuse a
// measure value from the shared cache; the difference is the first scan's
// own cost.
constexpr const char* kColdScanSql =
    "SELECT prodName, SUM(revenue) AS rev FROM Orders GROUP BY prodName";

// Orders(prodName, custName, orderDate, revenue, cost) rows.
std::vector<msql::Row> GenOrders(Rng* rng, int n, int products, int customers,
                                 int years);
// Customers(custName, custAge, segment) rows, one per customer.
std::vector<msql::Row> GenCustomers(Rng* rng, int customers);

// Creates Orders + Customers, loads `orders`/`customers`, and defines the
// measure views EO (sumRevenue, margin, orderCount, orderYear) and EC
// (avgAge, custCount). `view_levels` > 0 also stacks semantic-layer views
// L1 .. Ln over EO, each re-exporting the one below.
msql::Status LoadSchema(msql::Engine* db, std::vector<msql::Row> orders,
                        std::vector<msql::Row> customers, int view_levels);

// An INSERT ... VALUES statement for `rows` into Orders.
std::string InsertSql(const std::vector<msql::Row>& rows);

// One statement of a template: the text the workload sends and the text
// whose result is the reference (a plain-SQL twin, or the same text for
// the reference engine to expand).
struct Stmt {
  int tmpl = 0;
  std::string sql;
  std::string reference;
};

struct Template {
  int weight = 1;  // occurrences per block of the operation sequence
  std::vector<Stmt> stmts;
};

// --- analyst / ingest ----------------------------------------------------

// Template indexes in AnalystTemplates().
enum AnalystTemplate {
  kBare = 0,      // bare measure under GROUP BY
  kShare,         // AGGREGATE with an AT (ALL) share
  kYoy,           // AT (SET orderYear = CURRENT orderYear - 1)
  kVisible,       // AT (VISIBLE) under WHERE
  kRollup,        // custName x orderYear rollup (~3000 groups at full size)
  kJoin,          // customer-grain measure through a join with Customers
  kPlain,         // the hand-written plain-SQL twin of kBare
  kNumAnalystTemplates
};
std::vector<Template> AnalystTemplates(const Sizes& sizes);

// A seeded operation sequence: blocks holding each template `weight` times
// in shuffled order, each op naming (template, statement index).
struct Op {
  int tmpl = 0;
  int stmt = 0;
};
std::vector<Op> BlockSequence(Rng* rng, const std::vector<Template>& tmpls,
                              const std::vector<int>& use, size_t min_ops);

// Ingest: an epoch of cycles, each an INSERT of `ingest_batch_rows`
// generated rows followed by four reads: A, B, C, then A again (the steady
// read that the first read after the INSERT is compared with).
struct IngestCycle {
  std::vector<msql::Row> rows;
  std::string insert_sql;
  Op reads[4];
};
// Read templates ingest draws from (a subset of the analyst ones).
std::vector<int> IngestReadTemplates();
std::vector<IngestCycle> IngestSequence(Rng* rng, const Sizes& sizes,
                                        const std::vector<Template>& tmpls,
                                        int cycles);

// --- dashboard_net ----------------------------------------------------------

enum class TrafficClass { kHot = 0, kUnique = 1, kPrepared = 2 };

struct PreparedTemplate {
  std::string sql;  // with ? placeholders
  std::vector<msql::TypeKind> types;
  std::vector<msql::Row> params;  // the parameter grid ops draw from
};

struct DashOp {
  TrafficClass cls = TrafficClass::kHot;
  int index = 0;  // hot statement, or prepared template
  int param = 0;  // prepared: index into the template's parameter grid
};

struct Dashboard {
  std::vector<std::string> hot;            // the hot text set
  std::vector<PreparedTemplate> prepared;  // prepared once per connection
  // Per connection: a seeded op sequence in blocks of 10 (6 hot, 2 unique,
  // 2 prepared), shuffled.
  std::vector<std::vector<DashOp>> sequences;
};
Dashboard DashboardTraffic(Rng* rng, const Sizes& sizes, int connections,
                           size_t ops_per_connection);

// A prepared statement's text with its parameters substituted as literals
// (the reference path expands this text).
std::string SubstituteParams(const std::string& sql, const msql::Row& params);

}  // namespace msqlbench

#endif  // MSQLBENCH_GENERATOR_H_
