#include "src/relation/predicate.h"

#include "src/common/status.h"

#include <cstdio>

namespace mrtheta {

const char* ThetaOpName(ThetaOp op) {
  switch (op) {
    case ThetaOp::kLt:
      return "<";
    case ThetaOp::kLe:
      return "<=";
    case ThetaOp::kEq:
      return "=";
    case ThetaOp::kGe:
      return ">=";
    case ThetaOp::kGt:
      return ">";
    case ThetaOp::kNe:
      return "<>";
  }
  return "?";
}

ThetaOp FlipOp(ThetaOp op) {
  switch (op) {
    case ThetaOp::kLt:
      return ThetaOp::kGt;
    case ThetaOp::kLe:
      return ThetaOp::kGe;
    case ThetaOp::kEq:
      return ThetaOp::kEq;
    case ThetaOp::kGe:
      return ThetaOp::kLe;
    case ThetaOp::kGt:
      return ThetaOp::kLt;
    case ThetaOp::kNe:
      return ThetaOp::kNe;
  }
  return op;
}

bool IsInequality(ThetaOp op) { return op != ThetaOp::kEq; }

std::optional<int64_t> IntegralOffset(double offset) {
  // [-2^63, 2^63): the doubles whose int64 conversion is defined.
  if (!(offset >= -0x1p63 && offset < 0x1p63)) return std::nullopt;
  const int64_t int_offset = static_cast<int64_t>(offset);
  if (static_cast<double>(int_offset) != offset) return std::nullopt;
  return int_offset;
}

bool EvalTheta(const Value& lhs, ThetaOp op, const Value& rhs, double offset) {
  if (lhs.is_numeric()) {
    if (lhs.type() == ValueType::kInt64 && rhs.type() == ValueType::kInt64) {
      if (const std::optional<int64_t> off = IntegralOffset(offset)) {
        return EvalThetaInt(lhs.AsInt(), op, rhs.AsInt(), *off);
      }
    }
    return EvalThetaDouble(lhs.AsDouble(), op, rhs.AsDouble(), offset);
  }
  MRTHETA_DCHECK(offset == 0.0 && "offset on string comparison");
  const int cmp = lhs.Compare(rhs);
  switch (op) {
    case ThetaOp::kLt:
      return cmp < 0;
    case ThetaOp::kLe:
      return cmp <= 0;
    case ThetaOp::kEq:
      return cmp == 0;
    case ThetaOp::kGe:
      return cmp >= 0;
    case ThetaOp::kGt:
      return cmp > 0;
    case ThetaOp::kNe:
      return cmp != 0;
  }
  return false;
}

std::string SelectionFilter::ToString() const {
  char buf[160];
  if (offset == 0.0) {
    std::snprintf(buf, sizeof(buf), "R%d.c%d %s %s", col.relation, col.column,
                  ThetaOpName(op), literal.ToString().c_str());
  } else {
    std::snprintf(buf, sizeof(buf), "R%d.c%d%+g %s %s", col.relation,
                  col.column, offset, ThetaOpName(op),
                  literal.ToString().c_str());
  }
  return buf;
}

JoinCondition JoinCondition::OrientedFor(int relation) const {
  MRTHETA_CHECK(relation == lhs.relation || relation == rhs.relation);
  if (relation == lhs.relation) return *this;
  // (lhs + offset) op rhs   ⇔   rhs flip(op) (lhs + offset)
  //                         ⇔   (rhs + (-offset)) flip(op) lhs
  JoinCondition out;
  out.lhs = rhs;
  out.rhs = lhs;
  out.op = FlipOp(op);
  out.offset = -offset;
  out.id = id;
  return out;
}

std::string JoinCondition::ToString() const {
  char buf[128];
  if (offset == 0.0) {
    std::snprintf(buf, sizeof(buf), "R%d.c%d %s R%d.c%d", lhs.relation,
                  lhs.column, ThetaOpName(op), rhs.relation, rhs.column);
  } else {
    std::snprintf(buf, sizeof(buf), "R%d.c%d%+g %s R%d.c%d", lhs.relation,
                  lhs.column, offset, ThetaOpName(op), rhs.relation,
                  rhs.column);
  }
  return buf;
}

}  // namespace mrtheta
