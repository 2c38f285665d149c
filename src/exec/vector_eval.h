#ifndef MSQL_EXEC_VECTOR_EVAL_H_
#define MSQL_EXEC_VECTOR_EVAL_H_

#include <memory>
#include <vector>

#include "binder/bound_expr.h"
#include "common/arena.h"
#include "common/status.h"
#include "exec/column_vector.h"
#include "exec/relation.h"

namespace msql {

struct ExecState;

// Whether a vectorized code path may run right now. kRowMode: the engine is
// configured for row-at-a-time execution (not a fallback, not counted).
// kFaulted: the `exec.vectorized_kernel` fault point fired — a *degradable*
// checkpoint, mirroring measure.grouped_index_build: the op silently takes
// the row path (exec_row_fallbacks is incremented here) and must produce
// identical results. kOk: go vectorized.
enum class VectorGate { kRowMode, kFaulted, kOk };

VectorGate VectorizedGate(ExecState* state);

// Evaluates `e` over every row of `rel`, producing one typed column with
// payload storage in `arena`. Returns a null ColumnPtr (with an OK status)
// when no kernel covers the expression — the caller falls back to the row
// path; a non-OK status is a real evaluation error (division by zero,
// guard trip), exactly the error the row path would have produced.
//
// Kernels mirror Evaluator/EvalScalarFunction bit for bit: Kleene
// three-valued AND/OR/NOT over validity+truth bitmaps, IS [NOT] DISTINCT
// FROM and `=` via Value::NotDistinct, ordering via Value::Compare, arith-
// metic with the same INT64/DOUBLE/DATE promotion rules. Column references
// are zero-copy when `rel` carries a columnar sidecar.
Result<ColumnPtr> EvalVector(const BoundExpr& e, const Relation& rel,
                             const std::shared_ptr<Arena>& arena,
                             ExecState* state);

// Hash-join key support. Key k of a join compares one side's column
// keys[k] with the other side's peers[k] under Value::NotDistinct (the row
// join's GroupMap equality). JoinKeyHashes gives each of the `rows` rows of
// `keys` a hash of its key tuple, computed so that tuples NotDistinct from
// a tuple of the other side (hashed with the roles swapped) hash alike:
// INT 2 meets DOUBLE 2.0. Rows with a NULL component are flagged in
// `has_null`: `=` never matches them.
void JoinKeyHashes(const std::vector<ColumnPtr>& keys,
                   const std::vector<ColumnPtr>& peers, int64_t rows,
                   std::vector<uint64_t>* hashes,
                   std::vector<uint8_t>* has_null);

// Value::NotDistinct(a.At(i), b.At(j)) for two non-NULL cells, without
// building either Value.
bool CellsNotDistinct(const ColumnVector& a, int64_t i, const ColumnVector& b,
                      int64_t j);

}  // namespace msql

#endif  // MSQL_EXEC_VECTOR_EVAL_H_
