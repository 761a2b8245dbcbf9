#ifndef MRTHETA_RELATION_COLUMN_VIEW_H_
#define MRTHETA_RELATION_COLUMN_VIEW_H_

#include <cstdint>

#include "src/common/status.h"
#include <string>

#include "src/relation/predicate.h"
#include "src/relation/relation.h"

namespace mrtheta {

/// \brief Non-owning typed view of one relation column.
///
/// The view borrows the column's backing array; the relation must outlive
/// it and must not be appended to while the view is alive. Join kernels use
/// views to read cells without the per-access std::variant dispatch of
/// Relation::Get.
template <typename T>
class ColumnView {
 public:
  ColumnView() = default;
  ColumnView(const T* data, int64_t size) : data_(data), size_(size) {}

  /// View of column `col` of `rel`; the column's storage type must be T
  /// (asserted — callers dispatch on the schema type first).
  static ColumnView<T> Of(const Relation& rel, int col) {
    const std::vector<T>* v = rel.TryColumn<T>(col);
    MRTHETA_DCHECK(v != nullptr && "column storage type mismatch");
    return ColumnView<T>(v->data(), static_cast<int64_t>(v->size()));
  }

  bool valid() const { return data_ != nullptr; }
  int64_t size() const { return size_; }
  const T* data() const { return data_; }
  const T& operator[](int64_t i) const { return data_[i]; }

 private:
  const T* data_ = nullptr;
  int64_t size_ = 0;
};

/// Evaluates l op r for a totally ordered operand type.
template <typename T>
inline bool EvalThetaTyped(const T& l, ThetaOp op, const T& r) {
  switch (op) {
    case ThetaOp::kLt:
      return l < r;
    case ThetaOp::kLe:
      return l <= r;
    case ThetaOp::kEq:
      return l == r;
    case ThetaOp::kGe:
      return l >= r;
    case ThetaOp::kGt:
      return l > r;
    case ThetaOp::kNe:
      return l != r;
  }
  return false;
}

/// \brief One join condition with all type dispatch resolved up front.
///
/// Compile() inspects the operand column types once and pins the comparison
/// domain (int64 / double / string) plus raw column pointers; Eval() then
/// reads both cells and compares with no Value boxing, no variant access
/// and no schema lookups. This is the per-tuple-pair fast path every join
/// kernel runs on.
///
/// CompiledPredicate is the one owner of the comparison-domain rule: every
/// join kernel (generic loop, sort-theta scan, Hilbert sorted candidates)
/// keys and compares through it. The rule is EvalTheta's, so the boxed
/// reference path agrees with every kernel on every value:
///  - int64 vs int64 with an integral offset  -> int64 comparison
///    (IntegralOffset);
///  - any other numeric pairing               -> double comparison;
///  - string vs string (offset must be 0)     -> lexicographic comparison.
/// String-vs-numeric conditions are a programming error (the query
/// validator rejects them; asserted here).
class CompiledPredicate {
 public:
  enum class Domain { kInt64, kDouble, kString };

  /// Compiles `cond` against the relations holding its lhs / rhs columns.
  /// Both relations must outlive the predicate.
  static CompiledPredicate Compile(const JoinCondition& cond,
                                   const Relation& lhs_rel,
                                   const Relation& rhs_rel);

  Domain domain() const { return domain_; }
  ThetaOp op() const { return op_; }

  /// Evaluates (lhs[lhs_row] + offset) op rhs[rhs_row].
  bool Eval(int64_t lhs_row, int64_t rhs_row) const {
    switch (domain_) {
      case Domain::kInt64:
        return EvalThetaTyped(lhs_i64_[lhs_row] + offset_i64_, op_,
                              rhs_i64_[rhs_row]);
      case Domain::kDouble:
        return EvalThetaTyped(LhsDouble(lhs_row) + offset_, op_,
                              RhsDouble(rhs_row));
      case Domain::kString:
        return EvalThetaTyped(lhs_str_[lhs_row], op_, rhs_str_[rhs_row]);
    }
    return false;
  }

  /// Typed key accessors for the sort kernels. The left key folds the
  /// condition offset in, so key comparison alone decides the predicate:
  /// (lhs + offset) op rhs  ==  LhsKey op RhsKey.
  int64_t LhsKeyInt(int64_t row) const {
    return lhs_i64_[row] + offset_i64_;
  }
  int64_t RhsKeyInt(int64_t row) const { return rhs_i64_[row]; }
  double LhsKeyDouble(int64_t row) const { return LhsDouble(row) + offset_; }
  double RhsKeyDouble(int64_t row) const { return RhsDouble(row); }
  const std::string& LhsKeyString(int64_t row) const {
    return lhs_str_[row];
  }
  const std::string& RhsKeyString(int64_t row) const {
    return rhs_str_[row];
  }

 private:
  double LhsDouble(int64_t row) const {
    return lhs_i64_ != nullptr ? static_cast<double>(lhs_i64_[row])
                               : lhs_f64_[row];
  }
  double RhsDouble(int64_t row) const {
    return rhs_i64_ != nullptr ? static_cast<double>(rhs_i64_[row])
                               : rhs_f64_[row];
  }

  Domain domain_ = Domain::kInt64;
  ThetaOp op_ = ThetaOp::kEq;
  double offset_ = 0.0;
  int64_t offset_i64_ = 0;
  const int64_t* lhs_i64_ = nullptr;
  const int64_t* rhs_i64_ = nullptr;
  const double* lhs_f64_ = nullptr;
  const double* rhs_f64_ = nullptr;
  const std::string* lhs_str_ = nullptr;
  const std::string* rhs_str_ = nullptr;
};

}  // namespace mrtheta

#endif  // MRTHETA_RELATION_COLUMN_VIEW_H_
