#include "exec/column_vector.h"

#include <algorithm>
#include <cstring>

namespace msql {

std::vector<RowBatch> MakeBatches(int64_t rows) {
  std::vector<RowBatch> batches;
  batches.reserve(static_cast<size_t>(NumBatches(rows)));
  for (int64_t off = 0; off < rows; off += kRowsPerBatch) {
    batches.push_back(RowBatch{off, std::min(kRowsPerBatch, rows - off)});
  }
  return batches;
}

Value ColumnVector::At(int64_t i) const {
  if (!IsValid(i)) return Value::Null();
  switch (kind) {
    case TypeKind::kBool:
      return Value::Bool(ints[i] != 0);
    case TypeKind::kInt64:
      return Value::Int(ints[i]);
    case TypeKind::kDate:
      return Value::Date(ints[i]);
    case TypeKind::kDouble:
      return Value::Double(doubles[i]);
    case TypeKind::kString:
      return Value::String((*dict)[static_cast<size_t>(ints[i])]);
    case TypeKind::kNull:
      return Value::Null();
  }
  return Value::Null();
}

ColumnBuilder::ColumnBuilder(std::shared_ptr<Arena> arena, int64_t capacity)
    : arena_(std::move(arena)), capacity_(capacity) {}

bool ColumnBuilder::EnsurePayload(TypeKind kind) {
  kind_ = kind;
  const size_t n = static_cast<size_t>(capacity_);
  if (kind == TypeKind::kDouble) {
    doubles_ = arena_->AllocateArray<double>(n);
    if (doubles_ == nullptr) return false;
    std::memset(doubles_, 0, n * sizeof(double));
  } else {
    ints_ = arena_->AllocateArray<int64_t>(n);
    if (ints_ == nullptr) return false;
    std::memset(ints_, 0, n * sizeof(int64_t));
  }
  if (kind == TypeKind::kString) {
    dict_ = std::make_shared<std::vector<std::string>>();
  }
  return true;
}

bool ColumnBuilder::Append(const Value& v) {
  const int64_t i = length_;
  if (v.is_null()) {
    if (valid_ == nullptr) {
      const size_t words = static_cast<size_t>((capacity_ + 63) / 64);
      valid_ = arena_->AllocateArray<uint64_t>(words);
      if (valid_ == nullptr) return false;
      // All rows appended so far were non-NULL.
      std::memset(valid_, 0xff, words * sizeof(uint64_t));
      for (int64_t j = i; j < capacity_; ++j) {
        valid_[j >> 6] &= ~(uint64_t{1} << (j & 63));
      }
    }
    has_null_ = true;
    ++length_;
    return true;
  }
  if (kind_ == TypeKind::kNull) {
    if (!EnsurePayload(v.kind())) return false;
  } else if (v.kind() != kind_) {
    return false;  // mixed-kind column: stays row-major
  }
  if (valid_ != nullptr) valid_[i >> 6] |= uint64_t{1} << (i & 63);
  switch (kind_) {
    case TypeKind::kBool:
      ints_[i] = v.bool_val() ? 1 : 0;
      break;
    case TypeKind::kInt64:
      ints_[i] = v.int_val();
      break;
    case TypeKind::kDate:
      ints_[i] = v.date_days();
      break;
    case TypeKind::kDouble:
      doubles_[i] = v.double_val();
      break;
    case TypeKind::kString: {
      if (dict_unique_) {
        if (dict_->size() < kMaxDictCodes) {
          auto [it, inserted] = dict_codes_.emplace(
              v.str(), static_cast<int64_t>(dict_->size()));
          if (inserted) dict_->push_back(v.str());
          ints_[i] = it->second;
          break;
        }
        // High-cardinality column: degrade to inline entries (codes are no
        // longer pairwise comparable).
        dict_unique_ = false;
        dict_codes_.clear();
      }
      ints_[i] = static_cast<int64_t>(dict_->size());
      dict_->push_back(v.str());
      break;
    }
    default:
      return false;
  }
  ++length_;
  return true;
}

ColumnPtr ColumnBuilder::Finish() {
  if (!arena_->status().ok()) return nullptr;
  auto col = std::make_shared<ColumnVector>();
  col->kind = kind_;
  col->length = length_;
  col->ints = ints_;
  col->doubles = doubles_;
  col->dict_unique = dict_unique_;
  if (dict_ != nullptr) col->dict = dict_;
  col->arena = arena_;
  if (has_null_) col->valid = valid_;
  if (kind_ == TypeKind::kNull && length_ > 0) {
    // All-NULL column: represent with an all-zero bitmap so IsValid stays
    // uniform for kernels that only look at validity.
    const size_t words = static_cast<size_t>((length_ + 63) / 64);
    uint64_t* zeros = arena_->AllocateArray<uint64_t>(words);
    if (zeros == nullptr) return nullptr;
    std::memset(zeros, 0, words * sizeof(uint64_t));
    col->valid = zeros;
  }
  return col;
}

Result<std::shared_ptr<const ColumnarRelation>> ColumnarizeRows(
    size_t width, const std::vector<Row>& rows,
    const std::shared_ptr<Arena>& arena) {
  auto out = std::make_shared<ColumnarRelation>();
  out->num_rows = static_cast<int64_t>(rows.size());
  out->cols.resize(width);
  for (size_t c = 0; c < width; ++c) {
    ColumnBuilder builder(arena, out->num_rows);
    bool ok = true;
    for (const Row& row : rows) {
      if (c >= row.size() || !builder.Append(row[c])) {
        ok = false;
        break;
      }
    }
    if (!arena->status().ok()) return arena->status();
    if (!ok) continue;  // mixed-kind column: left row-major
    ColumnPtr col = builder.Finish();
    if (col == nullptr) return arena->status();
    out->cols[c] = std::move(col);
  }
  out->batches = MakeBatches(out->num_rows);
  return std::shared_ptr<const ColumnarRelation>(std::move(out));
}

Result<ColumnPtr> GatherColumn(const ColumnVector& c,
                               const std::vector<int64_t>& sel,
                               const std::shared_ptr<Arena>& arena) {
  auto col = std::make_shared<ColumnVector>();
  const int64_t n = static_cast<int64_t>(sel.size());
  col->kind = c.kind;
  col->length = n;
  col->dict = c.dict;
  col->dict_unique = c.dict_unique;
  col->arena = arena;
  const size_t words = static_cast<size_t>((n + 63) / 64);
  if (c.kind == TypeKind::kNull) {
    uint64_t* zeros = arena->AllocateArray<uint64_t>(words == 0 ? 1 : words);
    if (zeros == nullptr) return arena->status();
    std::memset(zeros, 0, (words == 0 ? 1 : words) * sizeof(uint64_t));
    col->valid = zeros;
    return ColumnPtr(col);
  }
  const bool pads = std::any_of(sel.begin(), sel.end(),
                                [](int64_t s) { return s < 0; });
  uint64_t* valid = nullptr;
  if (c.valid != nullptr || pads) {
    valid = arena->AllocateArray<uint64_t>(words == 0 ? 1 : words);
    if (valid == nullptr) return arena->status();
    std::memset(valid, 0, (words == 0 ? 1 : words) * sizeof(uint64_t));
  }
  // Padded slots get a zero payload, like every NULL slot.
  if (c.kind == TypeKind::kDouble) {
    double* out = arena->AllocateArray<double>(static_cast<size_t>(n));
    if (out == nullptr && n > 0) return arena->status();
    for (int64_t i = 0; i < n; ++i) out[i] = sel[i] < 0 ? 0 : c.doubles[sel[i]];
    col->doubles = out;
  } else {
    int64_t* out = arena->AllocateArray<int64_t>(static_cast<size_t>(n));
    if (out == nullptr && n > 0) return arena->status();
    for (int64_t i = 0; i < n; ++i) out[i] = sel[i] < 0 ? 0 : c.ints[sel[i]];
    col->ints = out;
  }
  if (valid != nullptr) {
    for (int64_t i = 0; i < n; ++i) {
      if (sel[i] >= 0 && c.IsValid(sel[i])) {
        valid[i >> 6] |= uint64_t{1} << (i & 63);
      }
    }
    col->valid = valid;
  }
  return ColumnPtr(col);
}

Row RowAt(const ColumnarRelation& c, int64_t i) {
  Row row;
  row.reserve(c.cols.size());
  for (const ColumnPtr& col : c.cols) row.push_back(col->At(i));
  return row;
}

std::vector<Row> MaterializeRowsDense(const ColumnarRelation& c) {
  std::vector<Row> rows;
  rows.reserve(static_cast<size_t>(c.num_rows));
  for (int64_t i = 0; i < c.num_rows; ++i) rows.push_back(RowAt(c, i));
  return rows;
}

}  // namespace msql
