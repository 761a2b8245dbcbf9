#include "src/exec/join_side.h"

#include "src/common/status.h"

#include <algorithm>
#include <cmath>

namespace mrtheta {

std::shared_ptr<const CompiledRowFilter> CompiledRowFilter::CompileFor(
    int base, const std::vector<SelectionFilter>& filters,
    const RelationPtr& rel) {
  auto compiled = std::make_shared<CompiledRowFilter>();
  for (const SelectionFilter& f : filters) {
    if (f.col.relation != base) continue;
    const ColumnDef& def = rel->schema().column(f.col.column);
    // Typed fast paths: the variant dispatch happens once per filter, not
    // once per row. Integral-valued double literals (the QueryBuilder DSL
    // wraps every numeric literal as a double) fold onto the int64 path.
    const bool integral_literal =
        f.literal.type() == ValueType::kInt64 ||
        (f.literal.type() == ValueType::kDouble &&
         std::abs(f.literal.AsDouble()) < 9.0e15 &&  // exact int64 range
         static_cast<double>(static_cast<int64_t>(f.literal.AsDouble())) ==
             f.literal.AsDouble());
    if (def.type == ValueType::kInt64 && integral_literal &&
        std::abs(f.offset) < 9.0e15 &&
        f.offset == static_cast<int64_t>(f.offset)) {
      const int64_t* data = rel->TryColumn<int64_t>(f.col.column)->data();
      const int64_t lit = f.literal.type() == ValueType::kInt64
                              ? f.literal.AsInt()
                              : static_cast<int64_t>(f.literal.AsDouble());
      const int64_t off = static_cast<int64_t>(f.offset);
      const ThetaOp op = f.op;
      compiled->preds_.push_back([data, lit, off, op](int64_t row) {
        return EvalThetaInt(data[row], op, lit, off);
      });
    } else if (def.type != ValueType::kString) {
      const Relation* r = rel.get();
      const int col = f.col.column;
      const double lit = f.literal.AsDouble();
      const double off = f.offset;
      const ThetaOp op = f.op;
      compiled->preds_.push_back([r, col, lit, off, op](int64_t row) {
        return EvalThetaDouble(r->GetDouble(row, col), op, lit, off);
      });
    } else {
      const Relation* r = rel.get();
      const SelectionFilter filter = f;
      compiled->preds_.push_back([r, filter](int64_t row) {
        return filter.Eval(r->Get(row, filter.col.column));
      });
    }
  }
  if (compiled->preds_.empty()) return nullptr;
  compiled->pinned_ = rel;
  return compiled;
}

JoinSide JoinSide::ForBase(RelationPtr rel, int base_index) {
  JoinSide side;
  side.scale = rel->num_rows() > 0
                   ? static_cast<double>(rel->logical_rows()) /
                         static_cast<double>(rel->num_rows())
                   : 1.0;
  side.data = std::move(rel);
  side.bases = {base_index};
  side.is_base = true;
  return side;
}

JoinSide JoinSide::ForIntermediate(RelationPtr rel, std::vector<int> bases) {
  JoinSide side;
  side.scale = rel->num_rows() > 0
                   ? static_cast<double>(rel->logical_rows()) /
                         static_cast<double>(rel->num_rows())
                   : 1.0;
  side.data = std::move(rel);
  side.bases = std::move(bases);
  side.is_base = false;
  return side;
}

int64_t JoinSide::BaseRow(int64_t row, int base) const {
  if (is_base) {
    MRTHETA_DCHECK(base == bases[0]);
    return row;
  }
  const auto it = std::find(bases.begin(), bases.end(), base);
  MRTHETA_DCHECK(it != bases.end());
  const int col = static_cast<int>(it - bases.begin());
  return data->GetInt(row, col);
}

bool JoinSide::Covers(int base) const {
  return std::find(bases.begin(), bases.end(), base) != bases.end();
}

Schema MakeIntermediateSchema(
    const std::vector<int>& bases,
    const std::vector<RelationPtr>& base_relations,
    const std::vector<RequiredColumns>& required) {
  std::vector<ColumnDef> cols;
  cols.reserve(bases.size());
  for (int b : bases) {
    const Schema& schema = base_relations[b]->schema();
    const RequiredColumns* rc = FindRequired(required, b);
    const int width = static_cast<int>(
        rc != nullptr ? PrunedRowBytes(schema, rc->columns)
                      : schema.avg_row_bytes());
    cols.emplace_back("rid_" + std::to_string(b), ValueType::kInt64, width);
  }
  return Schema(std::move(cols));
}

int64_t SideShuffleBytes(const JoinSide& side,
                         const std::vector<JoinCondition>& conditions,
                         const std::vector<RequiredColumns>& required,
                         const std::vector<RelationPtr>& base_relations) {
  if (!side.is_base || required.empty()) {
    return side.data->schema().avg_row_bytes();
  }
  const int base = side.bases[0];
  // Downstream requirement ∪ this job's own condition columns on the base.
  std::vector<int> cols;
  if (const RequiredColumns* rc = FindRequired(required, base)) {
    cols = rc->columns;
  }
  for (const JoinCondition& cond : conditions) {
    for (const ColumnRef& ref : {cond.lhs, cond.rhs}) {
      if (ref.relation == base) cols.push_back(ref.column);
    }
  }
  std::sort(cols.begin(), cols.end());
  cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
  return PrunedRowBytes(base_relations[base]->schema(), cols);
}

const int64_t* RidColumnFor(const JoinSide& side, int base) {
  if (side.is_base) {
    MRTHETA_CHECK(base == side.bases[0]);
    return nullptr;
  }
  const auto it = std::find(side.bases.begin(), side.bases.end(), base);
  MRTHETA_CHECK(it != side.bases.end());
  return side.data
      ->TryColumn<int64_t>(static_cast<int>(it - side.bases.begin()))
      ->data();
}

BoundCondition BoundCondition::Bind(
    const JoinCondition& cond, const std::vector<JoinSide>& inputs,
    const std::vector<RelationPtr>& base_relations) {
  auto covering = [&](int base) {
    for (int i = 0; i < static_cast<int>(inputs.size()); ++i) {
      if (inputs[i].Covers(base)) return i;
    }
    MRTHETA_CHECK(false && "condition references an uncovered base");
    return 0;
  };
  BoundCondition bc;
  bc.cond = cond;
  bc.pred = CompiledPredicate::Compile(cond,
                                       *base_relations[cond.lhs.relation],
                                       *base_relations[cond.rhs.relation]);
  bc.lhs_input = covering(cond.lhs.relation);
  bc.rhs_input = covering(cond.rhs.relation);
  bc.lhs_rid = RidColumnFor(inputs[bc.lhs_input], cond.lhs.relation);
  bc.rhs_rid = RidColumnFor(inputs[bc.rhs_input], cond.rhs.relation);
  return bc;
}

OutputRowLayout::OutputRowLayout(const std::vector<JoinSide>& inputs) {
  for (const JoinSide& side : inputs) {
    bases_.insert(bases_.end(), side.bases.begin(), side.bases.end());
  }
  std::sort(bases_.begin(), bases_.end());
  bases_.erase(std::unique(bases_.begin(), bases_.end()), bases_.end());
  for (int base : bases_) {
    int input = 0;
    while (!inputs[input].Covers(base)) ++input;
    slots_.push_back({input, RidColumnFor(inputs[input], base)});
  }
}

StatusOr<Relation> ProjectResult(
    const Relation& intermediate, const std::vector<int>& covered_bases,
    const std::vector<RelationPtr>& base_relations,
    const std::vector<OutputColumn>& outputs) {
  std::vector<ColumnDef> cols;
  for (const OutputColumn& out : outputs) {
    if (std::find(covered_bases.begin(), covered_bases.end(), out.base) ==
        covered_bases.end()) {
      return Status::InvalidArgument(
          "projection references base not covered by result");
    }
    const ColumnDef& src =
        base_relations[out.base]->schema().column(out.column);
    cols.emplace_back("R" + std::to_string(out.base) + "." + src.name,
                      src.type, src.avg_width);
  }
  Relation result("projection", Schema(std::move(cols)));
  for (int64_t r = 0; r < intermediate.num_rows(); ++r) {
    std::vector<Value> row;
    row.reserve(outputs.size());
    for (const OutputColumn& out : outputs) {
      const auto it = std::find(covered_bases.begin(), covered_bases.end(),
                                out.base);
      const int col = static_cast<int>(it - covered_bases.begin());
      const int64_t base_row = intermediate.GetInt(r, col);
      row.push_back(base_relations[out.base]->Get(base_row, out.column));
    }
    MRTHETA_RETURN_IF_ERROR(result.AppendRow(row));
  }
  return result;
}

ColumnDistinct EstimateDistinct(const Relation& rel, int column,
                                int64_t max_rows) {
  ColumnDistinct out;
  const int64_t n = std::min<int64_t>(rel.num_rows(), max_rows);
  if (n == 0) return out;
  std::vector<uint64_t> hashes;
  hashes.reserve(static_cast<size_t>(n));
  for (int64_t r = 0; r < n; ++r) {
    hashes.push_back(HashValue(rel.Get(r, column)));
  }
  std::sort(hashes.begin(), hashes.end());
  const int64_t d =
      std::unique(hashes.begin(), hashes.end()) - hashes.begin();
  out.physical = static_cast<double>(d);
  // Extrapolate physical distinct to full physical cardinality (linear in
  // the key-like regime, saturating otherwise).
  if (rel.num_rows() > n && d > static_cast<int64_t>(0.9 * n)) {
    out.physical *= static_cast<double>(rel.num_rows()) / n;
  }
  const bool key_like = d > static_cast<int64_t>(0.9 * n);
  out.logical = key_like ? out.physical *
                               static_cast<double>(rel.logical_rows()) /
                               static_cast<double>(rel.num_rows())
                         : out.physical;
  return out;
}

uint64_t MixHash(uint64_t a, uint64_t b) {
  uint64_t x = a * 0x9e3779b97f4a7c15ULL + b + 0x7f4a7c15ULL;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

uint64_t HashValue(const Value& v) {
  switch (v.type()) {
    case ValueType::kInt64:
      return MixHash(0x1234, static_cast<uint64_t>(v.AsInt()));
    case ValueType::kDouble: {
      // Hash integral doubles like their int64 counterparts so that
      // cross-type equi joins partition consistently.
      const double d = v.AsDouble();
      const int64_t as_int = static_cast<int64_t>(d);
      if (static_cast<double>(as_int) == d) {
        return MixHash(0x1234, static_cast<uint64_t>(as_int));
      }
      uint64_t bits;
      __builtin_memcpy(&bits, &d, sizeof(bits));
      return MixHash(0x5678, bits);
    }
    case ValueType::kString: {
      uint64_t h = 1469598103934665603ULL;
      for (unsigned char c : v.AsString()) {
        h ^= c;
        h *= 1099511628211ULL;
      }
      return MixHash(0x9abc, h);
    }
  }
  return 0;
}

}  // namespace mrtheta
