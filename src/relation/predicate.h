#ifndef MRTHETA_RELATION_PREDICATE_H_
#define MRTHETA_RELATION_PREDICATE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/relation/value.h"

namespace mrtheta {

/// The theta comparison functions the paper supports:
/// θ ∈ {<, <=, =, >=, >, <>}  (Section 2.2).
enum class ThetaOp {
  kLt,
  kLe,
  kEq,
  kGe,
  kGt,
  kNe,
};

const char* ThetaOpName(ThetaOp op);

/// Returns the operator with sides swapped: a θ b  ⇔  b θ' a.
ThetaOp FlipOp(ThetaOp op);

/// True for every operator except equality — the paper's "inequality
/// functions" column of Tables 2 and 3.
bool IsInequality(ThetaOp op);

/// The int64 form of a join offset: set when `offset` is integral (and in
/// int64 range), so int64 operands compare exactly in int64. The one
/// comparison-domain rule EvalTheta and CompiledPredicate share.
std::optional<int64_t> IntegralOffset(double offset);

/// Evaluates (lhs + offset) op rhs: in int64 for int64 operands with an
/// integral offset, in double for any other numeric pairing. For string
/// operands offset must be 0.
bool EvalTheta(const Value& lhs, ThetaOp op, const Value& rhs,
               double offset = 0.0);

/// Typed fast path used by the join inner loops (int64 columns).
inline bool EvalThetaInt(int64_t lhs, ThetaOp op, int64_t rhs,
                         int64_t offset) {
  const int64_t l = lhs + offset;
  switch (op) {
    case ThetaOp::kLt:
      return l < rhs;
    case ThetaOp::kLe:
      return l <= rhs;
    case ThetaOp::kEq:
      return l == rhs;
    case ThetaOp::kGe:
      return l >= rhs;
    case ThetaOp::kGt:
      return l > rhs;
    case ThetaOp::kNe:
      return l != rhs;
  }
  return false;
}

/// Typed fast path for double operands: (lhs + offset) op rhs. The one
/// place the double operator semantics live — EvalTheta and the compiled
/// map-side filters both evaluate through it.
inline bool EvalThetaDouble(double lhs, ThetaOp op, double rhs,
                            double offset) {
  const double l = lhs + offset;
  switch (op) {
    case ThetaOp::kLt:
      return l < rhs;
    case ThetaOp::kLe:
      return l <= rhs;
    case ThetaOp::kEq:
      return l == rhs;
    case ThetaOp::kGe:
      return l >= rhs;
    case ThetaOp::kGt:
      return l > rhs;
    case ThetaOp::kNe:
      return l != rhs;
  }
  return false;
}

/// Reference to "column `column` of the `relation`-th relation of the query".
struct ColumnRef {
  int relation = 0;
  int column = 0;

  bool operator==(const ColumnRef&) const = default;
};

/// \brief A single-relation selection σ: (col + offset) op literal.
///
/// Selections are pushed below the first shuffle: executors evaluate them
/// map-side on base-relation rows, so filtered tuples are never shipped to
/// a reducer (docs/EXECUTOR.md "Selection pushdown"). String columns
/// support only offset-free = / <> against a string literal.
struct SelectionFilter {
  ColumnRef col;
  ThetaOp op = ThetaOp::kEq;
  Value literal;
  double offset = 0.0;

  /// Evaluates the predicate on one cell value of the column.
  bool Eval(const Value& v) const { return EvalTheta(v, op, literal, offset); }

  std::string ToString() const;
};

/// \brief One join condition θ_k: (lhs.col + offset) op rhs.col, connecting
/// two distinct relations of a query.
///
/// `offset` supports the paper's band predicates, e.g. the flight scenario's
/// `FI1.at + L.l1 < FI2.dt` and the mobile benchmark's `t1.d + 3 > t3.d`.
struct JoinCondition {
  ColumnRef lhs;
  ThetaOp op = ThetaOp::kEq;
  ColumnRef rhs;
  double offset = 0.0;

  /// Identifier θ_k within the owning query; assigned by Query::AddCondition.
  int id = -1;

  /// The same condition expressed with `relation` as the left side.
  /// Requires relation ∈ {lhs.relation, rhs.relation}.
  JoinCondition OrientedFor(int relation) const;

  std::string ToString() const;
};

}  // namespace mrtheta

#endif  // MRTHETA_RELATION_PREDICATE_H_
