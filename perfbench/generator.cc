#include "generator.h"

#include "common/date.h"
#include "common/string_util.h"

namespace msqlbench {

using msql::Row;
using msql::Status;
using msql::StrCat;
using msql::TypeKind;
using msql::Value;

namespace {

// Draws 0 .. n-1 so that each value comes up once every n draws, in a
// seeded order: the statement mix then does not vary with the seed, only
// its order and the data do.
class Deck {
 public:
  Deck(Rng* rng, size_t n) : rng_(rng), n_(static_cast<int>(n)) {}
  int Next() {
    if (cards_.empty()) {
      for (int i = 0; i < n_; ++i) cards_.push_back(i);
      rng_->Shuffle(&cards_);
    }
    const int card = cards_.back();
    cards_.pop_back();
    return card;
  }

 private:
  Rng* rng_;
  int n_;
  std::vector<int> cards_;
};

}  // namespace

Sizes FullSizes() { return Sizes{}; }

Sizes TinySizes() {
  Sizes s;
  s.orders = 3000;
  s.products = 10;
  s.customers = 60;
  s.dash_orders = 600;
  s.dash_products = 6;
  s.dash_customers = 20;
  s.view_levels = 12;
  s.ingest_batch_rows = 10;
  s.ingest_epoch_cycles = 9;
  return s;
}

std::vector<Row> GenOrders(Rng* rng, int n, int products, int customers,
                           int years) {
  const int64_t first = msql::DaysFromCivil(kFirstYear, 1, 1);
  const int64_t last = msql::DaysFromCivil(kFirstYear + years - 1, 12, 31);
  std::vector<Row> rows;
  rows.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const int64_t revenue = rng->Between(2, 500);
    rows.push_back({Value::String(StrCat("P", rng->Below(products))),
                    Value::String(StrCat("C", rng->Below(customers))),
                    Value::Date(rng->Between(first, last)),
                    Value::Int(revenue),
                    Value::Int(revenue / 2 + rng->Below(revenue / 2 + 1))});
  }
  return rows;
}

std::vector<Row> GenCustomers(Rng* rng, int customers) {
  static const char* const kSegments[] = {"retail", "pro", "enterprise"};
  std::vector<Row> rows;
  rows.reserve(static_cast<size_t>(customers));
  for (int i = 0; i < customers; ++i) {
    rows.push_back({Value::String(StrCat("C", i)),
                    Value::Int(rng->Between(16, 80)),
                    Value::String(kSegments[rng->Below(3)])});
  }
  return rows;
}

Status LoadSchema(msql::Engine* db, std::vector<Row> orders,
                  std::vector<Row> customers, int view_levels) {
  MSQL_RETURN_IF_ERROR(db->Execute(
      "CREATE TABLE Orders (prodName VARCHAR, custName VARCHAR, "
      "orderDate DATE, revenue INTEGER, cost INTEGER);"
      "CREATE TABLE Customers (custName VARCHAR, custAge INTEGER, "
      "segment VARCHAR)"));
  MSQL_RETURN_IF_ERROR(db->InsertRows("Orders", std::move(orders)));
  MSQL_RETURN_IF_ERROR(db->InsertRows("Customers", std::move(customers)));
  MSQL_RETURN_IF_ERROR(db->Execute(
      "CREATE VIEW EO AS SELECT *, SUM(revenue) AS MEASURE sumRevenue, "
      "(SUM(revenue) - SUM(cost)) * 1.0 / SUM(revenue) AS MEASURE margin, "
      "COUNT(*) AS MEASURE orderCount, YEAR(orderDate) AS orderYear "
      "FROM Orders;"
      "CREATE VIEW EC AS SELECT *, AVG(custAge) AS MEASURE avgAge, "
      "COUNT(*) AS MEASURE custCount FROM Customers"));
  for (int level = 1; level <= view_levels; ++level) {
    MSQL_RETURN_IF_ERROR(db->Execute(
        StrCat("CREATE VIEW L", level, " AS SELECT * FROM ",
               level == 1 ? std::string("EO") : StrCat("L", level - 1))));
  }
  return Status::Ok();
}

std::string InsertSql(const std::vector<Row>& rows) {
  std::string sql = "INSERT INTO Orders VALUES ";
  for (size_t i = 0; i < rows.size(); ++i) {
    if (i > 0) sql += ", ";
    sql += "(";
    for (size_t c = 0; c < rows[i].size(); ++c) {
      if (c > 0) sql += ", ";
      sql += rows[i][c].ToSqlLiteral();
    }
    sql += ")";
  }
  return sql;
}

std::vector<Template> AnalystTemplates(const Sizes& sizes) {
  std::vector<Template> t(kNumAnalystTemplates);
  // Weights per 20-op block. Ordered by cost (yoy < plain < visible <
  // share < bare < rollup < join), the median falls in the middle of the
  // visible cluster and p95 in the middle of the join cluster, not on the
  // edge between two templates.
  t[kYoy].weight = 4;
  t[kPlain].weight = 3;
  t[kVisible].weight = 6;
  t[kShare].weight = 2;
  t[kBare].weight = 2;
  t[kRollup].weight = 1;
  t[kJoin].weight = 2;

  const int excluded = std::min(sizes.products, 10);
  for (int k = 0; k < excluded; ++k) {
    const std::string where = StrCat(" WHERE prodName <> 'P", k, "'");
    const std::string bare =
        StrCat("SELECT prodName, sumRevenue AS rev FROM EO", where,
               " GROUP BY prodName");
    const std::string plain =
        StrCat("SELECT prodName, SUM(revenue) AS rev FROM Orders", where,
               " GROUP BY prodName");
    // The bare measure and its twin are each other's reference.
    t[kBare].stmts.push_back({kBare, bare, plain});
    t[kPlain].stmts.push_back({kPlain, plain, bare});
  }
  for (int y = 0; y < sizes.years; ++y) {
    for (int r : {0, 100, 200, 300}) {
      const int year = kFirstYear + y;
      t[kShare].stmts.push_back(
          {kShare,
           StrCat("SELECT prodName, AGGREGATE(sumRevenue) AS rev, "
                  "AGGREGATE(sumRevenue) * 1.0 / sumRevenue AT (ALL) AS share "
                  "FROM EO WHERE orderYear = ",
                  year, " AND revenue >= ", r, " GROUP BY prodName"),
           StrCat("SELECT prodName, SUM(revenue) AS rev, "
                  "SUM(revenue) * 1.0 / (SELECT SUM(revenue) FROM Orders) "
                  "AS share FROM Orders WHERE YEAR(orderDate) = ",
                  year, " AND revenue >= ", r, " GROUP BY prodName")});
    }
  }
  for (int k = 0; k < std::min(sizes.products, 25); ++k) {
    const std::string prod = StrCat("'P", k, "'");
    const std::string by_year =
        StrCat("(SELECT prodName, YEAR(orderDate) AS y, SUM(revenue) AS rev "
               "FROM Orders WHERE prodName = ",
               prod, " GROUP BY prodName, YEAR(orderDate))");
    t[kYoy].stmts.push_back(
        {kYoy,
         StrCat("SELECT prodName, orderYear, sumRevenue AS rev, "
                "sumRevenue AT (SET orderYear = CURRENT orderYear - 1) AS prev "
                "FROM EO WHERE prodName = ",
                prod, " GROUP BY prodName, orderYear"),
         StrCat("SELECT c.prodName, c.y, c.rev, p.rev AS prev FROM ", by_year,
                " AS c LEFT JOIN ", by_year,
                " AS p ON p.prodName = c.prodName AND p.y = c.y - 1")});
  }
  for (int r = 50; r <= 450; r += 50) {
    t[kVisible].stmts.push_back(
        {kVisible,
         StrCat("SELECT orderYear, sumRevenue AT (VISIBLE) AS vis, "
                "sumRevenue AS total, AGGREGATE(margin) AS m FROM EO "
                "WHERE revenue > ",
                r, " GROUP BY orderYear"),
         StrCat("SELECT v.y, v.vis, t.total, v.m FROM "
                "(SELECT YEAR(orderDate) AS y, SUM(revenue) AS vis, "
                "(SUM(revenue) - SUM(cost)) * 1.0 / SUM(revenue) AS m "
                "FROM Orders WHERE revenue > ",
                r,
                " GROUP BY YEAR(orderDate)) AS v JOIN "
                "(SELECT YEAR(orderDate) AS y, SUM(revenue) AS total "
                "FROM Orders GROUP BY YEAR(orderDate)) AS t ON v.y = t.y")});
  }
  for (int r : {0, 50, 100, 150, 200}) {
    t[kRollup].stmts.push_back(
        {kRollup,
         StrCat("SELECT custName, orderYear, AGGREGATE(sumRevenue) AS rev, "
                "AGGREGATE(orderCount) AS n FROM EO WHERE revenue > ",
                r, " GROUP BY custName, orderYear"),
         StrCat("SELECT custName, YEAR(orderDate) AS y, SUM(revenue) AS rev, "
                "COUNT(*) AS n FROM Orders WHERE revenue > ",
                r, " GROUP BY custName, YEAR(orderDate)")});
  }
  for (int r : {250, 300, 350, 400}) {
    t[kJoin].stmts.push_back(
        {kJoin,
         StrCat("SELECT o.prodName, AGGREGATE(c.avgAge) AS avg_age, "
                "AGGREGATE(c.custCount) AS customers FROM Orders AS o "
                "JOIN EC AS c USING (custName) WHERE o.revenue > ",
                r, " GROUP BY o.prodName"),
         StrCat("SELECT d.prodName, AVG(c.custAge) AS avg_age, "
                "COUNT(*) AS customers FROM (SELECT DISTINCT prodName, "
                "custName FROM Orders WHERE revenue > ",
                r,
                ") AS d JOIN Customers AS c ON d.custName = c.custName "
                "GROUP BY d.prodName")});
  }
  return t;
}

std::vector<Op> BlockSequence(Rng* rng, const std::vector<Template>& tmpls,
                              const std::vector<int>& use, size_t min_ops) {
  std::vector<Deck> decks;
  for (const Template& t : tmpls) decks.emplace_back(rng, t.stmts.size());
  std::vector<Op> seq;
  while (seq.size() < min_ops) {
    std::vector<Op> block;
    for (int ti : use) {
      const Template& t = tmpls[static_cast<size_t>(ti)];
      for (int w = 0; w < t.weight; ++w) {
        block.push_back({ti, decks[static_cast<size_t>(ti)].Next()});
      }
    }
    rng->Shuffle(&block);
    seq.insert(seq.end(), block.begin(), block.end());
  }
  return seq;
}

std::vector<int> IngestReadTemplates() { return {kShare, kYoy, kVisible}; }

std::vector<IngestCycle> IngestSequence(Rng* rng, const Sizes& sizes,
                                        const std::vector<Template>& tmpls,
                                        int cycles) {
  const std::vector<int> reads = IngestReadTemplates();
  std::vector<Deck> decks;
  for (const Template& t : tmpls) decks.emplace_back(rng, t.stmts.size());
  std::vector<IngestCycle> out(static_cast<size_t>(cycles));
  std::vector<int> firsts;  // each read template is A once per 3 cycles
  for (IngestCycle& c : out) {
    c.rows = GenOrders(rng, sizes.ingest_batch_rows, sizes.products,
                       sizes.customers, sizes.years);
    c.insert_sql = InsertSql(c.rows);
    if (firsts.empty()) {
      firsts = reads;
      rng->Shuffle(&firsts);
    }
    std::vector<int> order = {firsts.back()};
    firsts.pop_back();
    std::vector<int> rest;
    for (int t : reads) {
      if (t != order[0]) rest.push_back(t);
    }
    rng->Shuffle(&rest);
    order.insert(order.end(), rest.begin(), rest.end());
    for (int i = 0; i < 3; ++i) {
      const int t = order[static_cast<size_t>(i)];
      c.reads[i] = {t, decks[static_cast<size_t>(t)].Next()};
    }
    c.reads[3] = c.reads[0];
  }
  return out;
}

Dashboard DashboardTraffic(Rng* rng, const Sizes& sizes, int connections,
                           size_t ops_per_connection) {
  Dashboard d;
  const std::string top = StrCat("L", sizes.view_levels);
  // Hot set: 3 + 2 x products texts (46 at full size), each cached under
  // its raw text and its canonical unparse, well inside 256 entries.
  for (int y = 0; y < sizes.years; ++y) {
    d.hot.push_back(StrCat(
        "SELECT prodName, AGGREGATE(sumRevenue) AS rev, "
        "AGGREGATE(sumRevenue) / (sumRevenue AT (ALL)) AS frac, "
        "AGGREGATE(margin) AS m, AGGREGATE(orderCount) AS n, "
        "AGGREGATE(orderCount) / (orderCount AT (ALL)) AS nshare, "
        "AGGREGATE(sumRevenue) / AGGREGATE(orderCount) AS avg_rev FROM ",
        top, " WHERE orderYear = ", kFirstYear + y, " GROUP BY prodName"));
  }
  for (int k = 0; k < sizes.dash_products; ++k) {
    d.hot.push_back(StrCat(
        "SELECT orderYear, AGGREGATE(sumRevenue) AS rev, "
        "sumRevenue AT (SET orderYear = CURRENT orderYear - 1) AS prev, "
        "AGGREGATE(margin) AS m FROM ",
        top, " WHERE prodName = 'P", k, "' GROUP BY orderYear"));
    d.hot.push_back(StrCat(
        "SELECT custName, AGGREGATE(orderCount) AS n, "
        "AGGREGATE(sumRevenue) AS rev, "
        "sumRevenue AT (ALL custName) AS prod_rev FROM ",
        top, " WHERE prodName = 'P", k, "' GROUP BY custName"));
  }

  PreparedTemplate by_year;
  by_year.sql = StrCat(
      "SELECT prodName, AGGREGATE(sumRevenue) AS rev, "
      "AGGREGATE(orderCount) AS n FROM ",
      top, " WHERE orderYear = ? AND revenue > ? GROUP BY prodName");
  by_year.types = {TypeKind::kInt64, TypeKind::kInt64};
  for (int y = 0; y < sizes.years; ++y) {
    for (int r = 0; r < 500; r += 50) {
      by_year.params.push_back({Value::Int(kFirstYear + y), Value::Int(r)});
    }
  }
  PreparedTemplate by_product;
  by_product.sql = StrCat(
      "SELECT orderYear, AGGREGATE(margin) AS m, sumRevenue AT (ALL) AS total "
      "FROM ",
      top, " WHERE prodName = ? GROUP BY orderYear");
  by_product.types = {TypeKind::kString};
  for (int k = 0; k < sizes.dash_products; ++k) {
    by_product.params.push_back({Value::String(StrCat("P", k))});
  }
  d.prepared = {by_year, by_product};

  // Prepared executions: every (statement, parameters) pair equally often.
  std::vector<std::pair<int, int>> bindings;
  for (size_t p = 0; p < d.prepared.size(); ++p) {
    for (size_t k = 0; k < d.prepared[p].params.size(); ++k) {
      bindings.emplace_back(static_cast<int>(p), static_cast<int>(k));
    }
  }
  for (int c = 0; c < connections; ++c) {
    Deck hot(rng, d.hot.size()), unique(rng, d.hot.size());
    Deck prepared(rng, bindings.size());
    std::vector<DashOp> seq;
    while (seq.size() < ops_per_connection) {
      std::vector<DashOp> block;
      for (int i = 0; i < 6; ++i) {
        block.push_back({TrafficClass::kHot, hot.Next(), 0});
      }
      for (int i = 0; i < 2; ++i) {
        block.push_back({TrafficClass::kUnique, unique.Next(), 0});
      }
      for (int i = 0; i < 2; ++i) {
        const auto& [p, k] = bindings[static_cast<size_t>(prepared.Next())];
        block.push_back({TrafficClass::kPrepared, p, k});
      }
      rng->Shuffle(&block);
      seq.insert(seq.end(), block.begin(), block.end());
    }
    d.sequences.push_back(std::move(seq));
  }
  return d;
}

std::string SubstituteParams(const std::string& sql, const Row& params) {
  std::string out;
  size_t next = 0;
  for (char ch : sql) {
    if (ch == '?' && next < params.size()) {
      out += params[next++].ToSqlLiteral();
    } else {
      out += ch;
    }
  }
  return out;
}

}  // namespace msqlbench
