#ifndef MRTHETA_EXEC_JOIN_SIDE_H_
#define MRTHETA_EXEC_JOIN_SIDE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "src/common/status.h"
#include "src/mapreduce/job.h"
#include "src/relation/column_view.h"
#include "src/relation/predicate.h"
#include "src/relation/relation.h"

namespace mrtheta {

// RequiredColumns / PrunedRowBytes / FindRequired — the column-pruning
// payload descriptors the builders consume — live in relation/schema.h so
// the plan layer can name them without depending on the exec layer.

/// \brief Map-side selection filter bound to one input side: the compiled
/// conjunction of a query's single-relation predicates on that side's base
/// relation, evaluated per base row before any shuffle emit (selection
/// pushdown). Builders drop rows failing Passes() in their map functions.
class CompiledRowFilter {
 public:
  /// Compiles the subset of `filters` on relation `base` against `rel`
  /// (which must outlive the filter). Returns nullptr when none apply.
  static std::shared_ptr<const CompiledRowFilter> CompileFor(
      int base, const std::vector<SelectionFilter>& filters,
      const RelationPtr& rel);

  bool Passes(int64_t row) const {
    for (const auto& pred : preds_) {
      if (!pred(row)) return false;
    }
    return true;
  }

  int num_predicates() const { return static_cast<int>(preds_.size()); }

 private:
  std::vector<std::function<bool(int64_t)>> preds_;
  RelationPtr pinned_;  ///< keeps the filtered relation alive
};

/// \brief One input of a join job: either a base relation of the query or
/// an intermediate result (a relation of "rid_<base>" columns produced by a
/// previous job).
///
/// Intermediate rows reference base tuples by *physical row index*, so any
/// downstream operator can resolve actual column values through the query's
/// base-relation list. Width accounting of intermediates uses materialized
/// widths (the bytes a real MapReduce job would spill), see DESIGN.md.
struct JoinSide {
  RelationPtr data;
  /// Query-level indices of the base relations this side covers, in the
  /// column order of `data` when `is_base` is false.
  std::vector<int> bases;
  bool is_base = true;
  /// logical rows / physical rows for this side.
  double scale = 1.0;
  /// Map-side selection (base sides only): rows failing the filter are
  /// dropped before any shuffle emit. Null = no selection.
  std::shared_ptr<const CompiledRowFilter> filter;

  /// True when `row` passes this side's selection (always true without one).
  bool PassesFilter(int64_t row) const {
    return filter == nullptr || filter->Passes(row);
  }

  /// Makes a side for a base relation with query index `base_index`.
  static JoinSide ForBase(RelationPtr rel, int base_index);
  /// Makes a side for an intermediate result covering `bases`.
  static JoinSide ForIntermediate(RelationPtr rel, std::vector<int> bases);

  /// Physical row of base relation `base` referenced by this side's `row`.
  int64_t BaseRow(int64_t row, int base) const;

  /// True when this side covers query base `base`.
  bool Covers(int base) const;
};

/// Builds the schema of an intermediate result covering `bases` (ascending
/// query order): one int64 "rid_<b>" column per base, with avg_width set to
/// the bytes the intermediate materializes for that base — the full base
/// row width by default, or the pruned payload (PrunedRowBytes of the
/// base's RequiredColumns entry) when `required` is non-empty.
Schema MakeIntermediateSchema(const std::vector<int>& bases,
                              const std::vector<RelationPtr>& base_relations,
                              const std::vector<RequiredColumns>& required =
                                  {});

/// Shuffle payload bytes of one record of `side` in a job evaluating
/// `conditions`: intermediate sides ship their (already pruned) schema row;
/// base sides ship the pruned base row covering this job's own condition
/// columns plus everything `required` says must survive downstream — or the
/// full base row when `required` is empty (pruning off).
int64_t SideShuffleBytes(const JoinSide& side,
                         const std::vector<JoinCondition>& conditions,
                         const std::vector<RequiredColumns>& required,
                         const std::vector<RelationPtr>& base_relations);

/// Raw pointer into `side`'s rid column for base `base` (nullptr when the
/// side is that base relation itself: rid == row). The side must cover
/// `base`. Join kernels use this to resolve side rows to base rows without
/// the per-call search of JoinSide::BaseRow; `side.data` must outlive the
/// pointer.
const int64_t* RidColumnFor(const JoinSide& side, int base);

/// \brief One join condition bound to a job's inputs: the compiled
/// predicate plus, per endpoint, the input covering the endpoint's base and
/// that input's rid column — all resolved once per job.
struct BoundCondition {
  JoinCondition cond;
  CompiledPredicate pred;
  int lhs_input = 0;  ///< input position covering the lhs / rhs endpoint
  int rhs_input = 0;
  const int64_t* lhs_rid = nullptr;  ///< input row -> base row (null = same)
  const int64_t* rhs_rid = nullptr;

  /// Binds each endpoint of `cond` to the first of `inputs` covering its
  /// base (one must).
  static BoundCondition Bind(const JoinCondition& cond,
                             const std::vector<JoinSide>& inputs,
                             const std::vector<RelationPtr>& base_relations);

  int64_t LhsBaseRow(int64_t row) const {
    return lhs_rid != nullptr ? lhs_rid[row] : row;
  }
  int64_t RhsBaseRow(int64_t row) const {
    return rhs_rid != nullptr ? rhs_rid[row] : row;
  }
  /// `lrow` / `rrow` are rows of the inputs covering the lhs / rhs.
  bool Eval(int64_t lrow, int64_t rrow) const {
    return pred.Eval(LhsBaseRow(lrow), RhsBaseRow(rrow));
  }
};

/// \brief The rid row a join job emits per result: one rid per base its
/// inputs cover, in ascending base order. The input covering each base
/// (the first one, when several do) and its rid column are resolved once
/// per job, so emitting a row is one array read per column.
class OutputRowLayout {
 public:
  explicit OutputRowLayout(const std::vector<JoinSide>& inputs);

  /// The covered bases, ascending: the job's intermediate-schema order.
  const std::vector<int>& bases() const { return bases_; }

  /// Emits the result combining row `input_rows[i]` of each input i,
  /// assembled in `row` — a buffer the caller reuses across a reduce call.
  void Emit(std::span<const int64_t> input_rows, std::vector<int64_t>& row,
            ReduceCollector& out) const {
    row.resize(slots_.size());
    for (size_t k = 0; k < slots_.size(); ++k) {
      const int64_t r = input_rows[slots_[k].input];
      row[k] = slots_[k].rid != nullptr ? slots_[k].rid[r] : r;
    }
    out.Emit(row);
  }

 private:
  struct Slot {
    int input = 0;
    const int64_t* rid = nullptr;  ///< null = the input is the base itself
  };
  std::vector<int> bases_;
  std::vector<Slot> slots_;
};

/// Projects an intermediate result to output columns: for each
/// (base, column) pair, emits the referenced base value. The intermediate
/// must cover every requested base.
struct OutputColumn {
  int base = 0;
  int column = 0;
};
StatusOr<Relation> ProjectResult(
    const Relation& intermediate, const std::vector<int>& covered_bases,
    const std::vector<RelationPtr>& base_relations,
    const std::vector<OutputColumn>& outputs);

/// Physical and extrapolated-logical distinct counts of a column: a column
/// whose sample is nearly all-distinct is key-like, so its logical distinct
/// count tracks the relation's logical cardinality.
struct ColumnDistinct {
  double physical = 1.0;
  double logical = 1.0;
};

/// Estimates ColumnDistinct by exact counting over (up to `max_rows`)
/// physical rows; a column whose sample is >90% distinct is treated as
/// key-like and extrapolated to the relation's logical cardinality.
ColumnDistinct EstimateDistinct(const Relation& rel, int column,
                                int64_t max_rows = 65536);

/// Deterministic 64-bit mix used for global-ID assignment and hash keys.
uint64_t MixHash(uint64_t a, uint64_t b);

/// Hash of a Value, for equi-join partition keys.
uint64_t HashValue(const Value& v);

}  // namespace mrtheta

#endif  // MRTHETA_EXEC_JOIN_SIDE_H_
