#include "src/exec/pairwise_join.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <memory>

namespace mrtheta {

namespace {

// State shared by both pairwise variants.
struct PairwiseState {
  JoinSide left;
  JoinSide right;
  std::vector<RelationPtr> base_relations;
  /// Conditions bound to inputs {left, right}, each oriented so its lhs
  /// endpoint is covered by the left side.
  std::vector<BoundCondition> bound = {};
  /// Index into `bound` of the sort-kernel driver, -1 => generic loop.
  int sort_driver = -1;
  int64_t sort_kernel_min_pairs = kSortKernelMinPairs;
  OutputRowLayout output;
  int64_t left_bytes = 0;
  int64_t right_bytes = 0;

  bool Matches(int64_t lrow, int64_t rrow) const {
    for (const BoundCondition& bc : bound) {
      if (!bc.Eval(lrow, rrow)) return false;
    }
    return true;
  }

  // All conditions except the sort driver (already enforced by the kernel's
  // key ranges).
  bool MatchesResidual(int64_t lrow, int64_t rrow) const {
    for (int i = 0; i < static_cast<int>(bound.size()); ++i) {
      if (i == sort_driver) continue;
      if (!bound[i].Eval(lrow, rrow)) return false;
    }
    return true;
  }

  // Joins one reduce group, dispatching between the sort-based kernel and
  // the generic nested loop. AddComparisons charging is kernel-independent:
  // the simulated cluster's CPU model prices the |L|x|R| work a real
  // reducer would do, not this process's wall clock.
  void JoinGroup(const std::vector<const MapOutputRecord*>& lrecs,
                 const std::vector<const MapOutputRecord*>& rrecs,
                 ReduceCollector& out) const {
    const int64_t pairs = static_cast<int64_t>(lrecs.size()) *
                          static_cast<int64_t>(rrecs.size());
    std::vector<int64_t> row;
    auto emit = [&](int64_t lrow, int64_t rrow) {
      output.Emit(std::array{lrow, rrow}, row, out);
    };
    if (sort_driver >= 0 && pairs >= sort_kernel_min_pairs) {
      const BoundCondition& drv = bound[sort_driver];
      std::vector<int64_t> lrows, rrows;
      lrows.reserve(lrecs.size());
      rrows.reserve(rrecs.size());
      for (const MapOutputRecord* l : lrecs) {
        lrows.push_back(drv.LhsBaseRow(l->row));
      }
      for (const MapOutputRecord* r : rrecs) {
        rrows.push_back(drv.RhsBaseRow(r->row));
      }
      SortJoinRowSets(drv.pred, lrows, rrows, [&](int32_t lpos, int32_t rpos) {
        const int64_t lrow = lrecs[lpos]->row;
        const int64_t rrow = rrecs[rpos]->row;
        if (MatchesResidual(lrow, rrow)) emit(lrow, rrow);
      });
      return;
    }
    for (const MapOutputRecord* l : lrecs) {
      for (const MapOutputRecord* r : rrecs) {
        if (Matches(l->row, r->row)) emit(l->row, r->row);
      }
    }
  }
};

StatusOr<std::shared_ptr<PairwiseState>> MakeState(
    const PairwiseJoinJobSpec& spec) {
  for (const JoinCondition& cond : spec.conditions) {
    const bool l_on_left = spec.left.Covers(cond.lhs.relation);
    const bool l_on_right = spec.right.Covers(cond.lhs.relation);
    const bool r_on_left = spec.left.Covers(cond.rhs.relation);
    const bool r_on_right = spec.right.Covers(cond.rhs.relation);
    if (!((l_on_left && r_on_right) || (l_on_right && r_on_left))) {
      return Status::InvalidArgument("condition " + cond.ToString() +
                                     " does not connect the two sides");
    }
  }
  const std::vector<JoinSide> sides = {spec.left, spec.right};
  auto state = std::make_shared<PairwiseState>(PairwiseState{
      .left = spec.left,
      .right = spec.right,
      .base_relations = spec.base_relations,
      .sort_kernel_min_pairs = spec.sort_kernel_min_pairs,
      .output = OutputRowLayout(sides)});
  std::vector<JoinCondition> oriented;
  oriented.reserve(spec.conditions.size());
  for (const JoinCondition& cond : spec.conditions) {
    const JoinCondition oc =
        spec.left.Covers(cond.lhs.relation) ? cond
                                            : cond.OrientedFor(
                                                  cond.rhs.relation);
    state->bound.push_back(
        BoundCondition::Bind(oc, sides, spec.base_relations));
    oriented.push_back(oc);
  }
  if (spec.kernel_policy == KernelPolicy::kAuto) {
    state->sort_driver = ChooseSortDriver(oriented);
  }
  state->left_bytes = SideShuffleBytes(spec.left, spec.conditions,
                                       spec.output_columns,
                                       spec.base_relations);
  state->right_bytes = SideShuffleBytes(spec.right, spec.conditions,
                                        spec.output_columns,
                                        spec.base_relations);
  return state;
}

MapReduceJobSpec MakeJobShell(const PairwiseJoinJobSpec& spec,
                              const PairwiseState& state) {
  MapReduceJobSpec job;
  job.name = spec.name;
  job.inputs.push_back({spec.left.data, spec.left.scale});
  job.inputs.push_back({spec.right.data, spec.right.scale});
  job.num_reduce_tasks = spec.num_reduce_tasks;
  job.output_schema = MakeIntermediateSchema(
      state.output.bases(), spec.base_relations, spec.output_columns);
  job.output_name = spec.name + ".out";
  // β-extrapolation (the paper's Eq. 5 output model): results scale
  // *linearly* with the represented data volume; the physical sample fixes
  // the output/input ratio β. See DESIGN.md §1.
  job.output_row_scale = std::max(spec.left.scale, spec.right.scale);
  job.kernel = JoinKernelName(state.sort_driver >= 0
                                  ? JoinKernel::kSortTheta
                                  : JoinKernel::kGeneric);
  // Emitter capacity hint: one record per row unless the variant overrides
  // it with its replication factors (1-Bucket-Theta's bands).
  job.map_emits_per_row = {1.0, 1.0};
  return job;
}

}  // namespace

StatusOr<MapReduceJobSpec> BuildEquiJoinJob(const PairwiseJoinJobSpec& spec) {
  if (spec.num_reduce_tasks < 1) {
    return Status::InvalidArgument("num_reduce_tasks must be >= 1");
  }
  StatusOr<std::shared_ptr<PairwiseState>> state_or = MakeState(spec);
  if (!state_or.ok()) return state_or.status();
  std::shared_ptr<PairwiseState> state = *state_or;

  // Find the shuffle-key condition: an equality with zero offset.
  int key_cond = -1;
  for (int i = 0; i < static_cast<int>(spec.conditions.size()); ++i) {
    if (spec.conditions[i].op == ThetaOp::kEq &&
        spec.conditions[i].offset == 0.0) {
      key_cond = i;
      break;
    }
  }
  if (key_cond < 0) {
    return Status::FailedPrecondition(
        "equi-join job requires at least one offset-free '=' condition");
  }
  const JoinCondition key = spec.conditions[key_cond];

  MapReduceJobSpec job = MakeJobShell(spec, *state);
  job.map = [state, key](int tag, const Relation& rel, int64_t row,
                         MapEmitter& out) {
    (void)rel;
    const JoinSide& side = tag == 0 ? state->left : state->right;
    // Selection pushdown: filtered rows never reach any reducer.
    if (!side.PassesFilter(row)) return;
    const ColumnRef ref =
        side.Covers(key.lhs.relation) ? key.lhs : key.rhs;
    const int64_t base_row = side.BaseRow(row, ref.relation);
    const Value v =
        state->base_relations[ref.relation]->Get(base_row, ref.column);
    out.Emit(static_cast<int64_t>(HashValue(v)), tag, row, /*rec_id=*/row,
             tag == 0 ? state->left_bytes : state->right_bytes);
  };
  job.reduce = [state](const ReduceContext& ctx, ReduceCollector& out) {
    const auto& lrecs = ctx.records(0);
    const auto& rrecs = ctx.records(1);
    out.AddComparisons(static_cast<double>(lrecs.size()) *
                       static_cast<double>(rrecs.size()) *
                       std::max(state->left.scale, state->right.scale));
    // Conditions re-checked in full: hash groups may contain collisions.
    state->JoinGroup(lrecs, rrecs, out);
  };
  return job;
}

BucketGrid ChooseBucketGrid(double left_rows, double right_rows,
                            int num_reduce_tasks) {
  BucketGrid best;
  best.replicas = std::numeric_limits<double>::infinity();
  for (int rows = 1; rows <= num_reduce_tasks; ++rows) {
    const int cols = num_reduce_tasks / rows;
    if (rows * cols > num_reduce_tasks || cols < 1) continue;
    const double replicas = left_rows * cols + right_rows * rows;
    // Tie-break toward more buckets (parallelism), then squarer shapes.
    const bool better =
        replicas < best.replicas ||
        (replicas == best.replicas &&
         (rows * cols > best.rows * best.cols ||
          (rows * cols == best.rows * best.cols &&
           std::abs(rows - cols) < std::abs(best.rows - best.cols))));
    if (better) {
      best.replicas = replicas;
      best.rows = rows;
      best.cols = cols;
    }
  }
  return best;
}

StatusOr<MapReduceJobSpec> BuildOneBucketThetaJob(
    const PairwiseJoinJobSpec& spec) {
  if (spec.num_reduce_tasks < 1) {
    return Status::InvalidArgument("num_reduce_tasks must be >= 1");
  }
  StatusOr<std::shared_ptr<PairwiseState>> state_or = MakeState(spec);
  if (!state_or.ok()) return state_or.status();
  std::shared_ptr<PairwiseState> state = *state_or;

  const double l_rows =
      static_cast<double>(std::max<int64_t>(1, spec.left.data->logical_rows()));
  const double r_rows = static_cast<double>(
      std::max<int64_t>(1, spec.right.data->logical_rows()));
  const BucketGrid grid =
      ChooseBucketGrid(l_rows, r_rows, spec.num_reduce_tasks);
  const uint64_t seed = spec.seed;

  MapReduceJobSpec job = MakeJobShell(spec, *state);
  job.num_reduce_tasks = grid.rows * grid.cols;
  // Left rows replicate across a row band (cols emits), right rows down a
  // column band (rows emits).
  job.map_emits_per_row = {static_cast<double>(grid.cols),
                           static_cast<double>(grid.rows)};
  job.partition = [](int64_t key, int n) {
    return static_cast<int>(key % n);
  };
  const int grid_rows = grid.rows;
  const int grid_cols = grid.cols;
  job.map = [state, grid_rows, grid_cols, seed](int tag, const Relation& rel,
                                                int64_t row, MapEmitter& out) {
    (void)rel;
    // Selection pushdown: filtered rows never reach any reducer.
    if (!(tag == 0 ? state->left : state->right).PassesFilter(row)) return;
    if (tag == 0) {
      const int band = static_cast<int>(
          MixHash(seed, static_cast<uint64_t>(row)) %
          static_cast<uint64_t>(grid_rows));
      for (int c = 0; c < grid_cols; ++c) {
        out.Emit(static_cast<int64_t>(band) * grid_cols + c, tag, row, row,
                 state->left_bytes);
      }
    } else {
      const int band = static_cast<int>(
          MixHash(seed + 1, static_cast<uint64_t>(row)) %
          static_cast<uint64_t>(grid_cols));
      for (int r = 0; r < grid_rows; ++r) {
        out.Emit(static_cast<int64_t>(r) * grid_cols + band, tag, row, row,
                 state->right_bytes);
      }
    }
  };
  job.reduce = [state](const ReduceContext& ctx, ReduceCollector& out) {
    const auto& lrecs = ctx.records(0);
    const auto& rrecs = ctx.records(1);
    out.AddComparisons(static_cast<double>(lrecs.size()) *
                       static_cast<double>(rrecs.size()) *
                       std::max(state->left.scale, state->right.scale));
    state->JoinGroup(lrecs, rrecs, out);
  };
  return job;
}

}  // namespace mrtheta
