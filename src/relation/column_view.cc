#include "src/relation/column_view.h"

#include "src/common/status.h"

namespace mrtheta {

namespace {

// Binds one side's raw column pointer into the predicate fields.
struct BoundColumn {
  ValueType type;
  const int64_t* i64 = nullptr;
  const double* f64 = nullptr;
  const std::string* str = nullptr;
};

BoundColumn Bind(const Relation& rel, int col) {
  BoundColumn out{rel.schema().column(col).type};
  switch (out.type) {
    case ValueType::kInt64:
      out.i64 = ColumnView<int64_t>::Of(rel, col).data();
      break;
    case ValueType::kDouble:
      out.f64 = ColumnView<double>::Of(rel, col).data();
      break;
    case ValueType::kString:
      out.str = ColumnView<std::string>::Of(rel, col).data();
      break;
  }
  return out;
}

}  // namespace

CompiledPredicate CompiledPredicate::Compile(const JoinCondition& cond,
                                             const Relation& lhs_rel,
                                             const Relation& rhs_rel) {
  CompiledPredicate p;
  p.op_ = cond.op;
  p.offset_ = cond.offset;

  const BoundColumn l = Bind(lhs_rel, cond.lhs.column);
  const BoundColumn r = Bind(rhs_rel, cond.rhs.column);
  p.lhs_i64_ = l.i64;
  p.lhs_f64_ = l.f64;
  p.lhs_str_ = l.str;
  p.rhs_i64_ = r.i64;
  p.rhs_f64_ = r.f64;
  p.rhs_str_ = r.str;

  const bool l_string = l.type == ValueType::kString;
  const bool r_string = r.type == ValueType::kString;
  MRTHETA_CHECK(l_string == r_string && "string vs numeric join condition");
  if (l_string || r_string) {
    MRTHETA_CHECK(cond.offset == 0.0 && "offset on string comparison");
    p.domain_ = Domain::kString;
    return p;
  }
  const std::optional<int64_t> int_offset = IntegralOffset(cond.offset);
  if (l.type == ValueType::kInt64 && r.type == ValueType::kInt64 &&
      int_offset.has_value()) {
    p.domain_ = Domain::kInt64;
    p.offset_i64_ = *int_offset;
  } else {
    p.domain_ = Domain::kDouble;
  }
  return p;
}

}  // namespace mrtheta
