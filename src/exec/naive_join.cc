#include "src/exec/naive_join.h"

#include <algorithm>
#include <numeric>

#include "src/exec/join_side.h"
#include "src/relation/column_view.h"

namespace mrtheta {

StatusOr<Relation> NaiveMultiwayJoin(
    const std::vector<RelationPtr>& base_relations,
    const std::vector<int>& base_indices,
    const std::vector<JoinCondition>& conditions,
    const std::vector<SelectionFilter>& filters) {
  if (base_indices.size() < 2) {
    return Status::InvalidArgument("need at least two relations to join");
  }
  std::vector<int> sorted_bases = base_indices;
  std::sort(sorted_bases.begin(), sorted_bases.end());

  // Conditions checkable once the first (j+1) relations are bound, with
  // type dispatch resolved once per condition instead of once per pair.
  const int m = static_cast<int>(sorted_bases.size());
  // Each condition's input positions are the depths binding its lhs / rhs
  // endpoints; base relations need no rid resolution.
  std::vector<std::vector<BoundCondition>> at_depth(m);
  auto pos_of = [&](int base) {
    for (int i = 0; i < m; ++i) {
      if (sorted_bases[i] == base) return i;
    }
    return -1;
  };
  for (const JoinCondition& cond : conditions) {
    const int pl = pos_of(cond.lhs.relation);
    const int pr = pos_of(cond.rhs.relation);
    if (pl < 0 || pr < 0) {
      return Status::InvalidArgument("condition " + cond.ToString() +
                                     " references a relation not joined");
    }
    at_depth[std::max(pl, pr)].push_back(BoundCondition{
        .cond = cond,
        .pred = CompiledPredicate::Compile(
            cond, *base_relations[cond.lhs.relation],
            *base_relations[cond.rhs.relation]),
        .lhs_input = pl,
        .rhs_input = pr});
  }

  Relation result("naive.out",
                  MakeIntermediateSchema(sorted_bases, base_relations));

  // Selection pushdown oracle: per depth, the compiled conjunction of the
  // filters on that base (nullptr = none).
  std::vector<std::shared_ptr<const CompiledRowFilter>> depth_filters(m);
  for (int i = 0; i < m; ++i) {
    depth_filters[i] = CompiledRowFilter::CompileFor(
        sorted_bases[i], filters, base_relations[sorted_bases[i]]);
  }

  // Depth-first nested loops with early pruning.
  std::vector<int64_t> assignment(m);
  auto check = [&](int depth) {
    if (depth_filters[depth] != nullptr &&
        !depth_filters[depth]->Passes(assignment[depth])) {
      return false;
    }
    for (const BoundCondition& bc : at_depth[depth]) {
      if (!bc.Eval(assignment[bc.lhs_input], assignment[bc.rhs_input])) {
        return false;
      }
    }
    return true;
  };
  // Iterative backtracking.
  int depth = 0;
  std::vector<int64_t> cursor(m, 0);
  while (depth >= 0) {
    const Relation& rel = *base_relations[sorted_bases[depth]];
    if (cursor[depth] >= rel.num_rows()) {
      cursor[depth] = 0;
      --depth;
      if (depth >= 0) ++cursor[depth];
      continue;
    }
    assignment[depth] = cursor[depth];
    if (!check(depth)) {
      ++cursor[depth];
      continue;
    }
    if (depth + 1 == m) {
      std::vector<Value> row;
      row.reserve(m);
      for (int i = 0; i < m; ++i) row.push_back(Value(assignment[i]));
      MRTHETA_RETURN_IF_ERROR(result.AppendRow(row));
      ++cursor[depth];
    } else {
      ++depth;
    }
  }
  return SortedByRows(result);
}

Relation SortedByRows(const Relation& rel) {
  std::vector<int64_t> order(rel.num_rows());
  std::iota(order.begin(), order.end(), 0);
  const int cols = rel.schema().num_columns();
  std::vector<ColumnView<int64_t>> views;
  views.reserve(cols);
  for (int c = 0; c < cols; ++c) {
    views.push_back(ColumnView<int64_t>::Of(rel, c));
  }
  std::sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
    for (int c = 0; c < cols; ++c) {
      const int64_t va = views[c][a];
      const int64_t vb = views[c][b];
      if (va != vb) return va < vb;
    }
    return false;
  });
  return rel.Slice(order);
}

}  // namespace mrtheta
