#include "src/exec/merge_join.h"

#include <algorithm>
#include <array>
#include <memory>

#include "src/exec/theta_kernels.h"

namespace mrtheta {

std::vector<int> SharedBases(const JoinSide& a, const JoinSide& b) {
  std::vector<int> shared;
  for (int base : a.bases) {
    if (b.Covers(base)) shared.push_back(base);
  }
  std::sort(shared.begin(), shared.end());
  return shared;
}

namespace {

struct MergeState {
  JoinSide left;
  JoinSide right;
  std::vector<int> shared;
  // Columnar rid views of the shared bases, one per side (aligned with
  // `shared`); resolved once per job instead of once per record.
  std::vector<const int64_t*> left_rids = {};
  std::vector<const int64_t*> right_rids = {};
  OutputRowLayout output;
  int64_t left_bytes = 0;
  int64_t right_bytes = 0;
  KernelPolicy kernel_policy = KernelPolicy::kAuto;
  int64_t sort_kernel_min_pairs = kSortKernelMinPairs;

  int64_t LeftRid(size_t k, int64_t row) const {
    return left_rids[k] != nullptr ? left_rids[k][row] : row;
  }
  int64_t RightRid(size_t k, int64_t row) const {
    return right_rids[k] != nullptr ? right_rids[k][row] : row;
  }

  uint64_t KeyOf(int tag, int64_t row) const {
    uint64_t h = 0x517cc1b727220a95ULL;
    for (size_t k = 0; k < shared.size(); ++k) {
      h = MixHash(h, static_cast<uint64_t>(tag == 0 ? LeftRid(k, row)
                                                    : RightRid(k, row)));
    }
    return h;
  }

  bool RidsMatch(int64_t lrow, int64_t rrow) const {
    for (size_t k = 0; k < shared.size(); ++k) {
      if (LeftRid(k, lrow) != RightRid(k, rrow)) return false;
    }
    return true;
  }

  // Remaining shared rids after the sort-merge key (index 0).
  bool TailRidsMatch(int64_t lrow, int64_t rrow) const {
    for (size_t k = 1; k < shared.size(); ++k) {
      if (LeftRid(k, lrow) != RightRid(k, rrow)) return false;
    }
    return true;
  }

  void JoinGroup(const std::vector<const MapOutputRecord*>& lrecs,
                 const std::vector<const MapOutputRecord*>& rrecs,
                 ReduceCollector& out) const {
    const int64_t pairs = static_cast<int64_t>(lrecs.size()) *
                          static_cast<int64_t>(rrecs.size());
    std::vector<int64_t> row;
    auto emit = [&](int64_t lrow, int64_t rrow) {
      output.Emit(std::array{lrow, rrow}, row, out);
    };
    if (kernel_policy == KernelPolicy::kAuto && pairs >= sort_kernel_min_pairs) {
      // Hash-key collisions made this group large: sort-merge on the first
      // shared rid, verify the rest per candidate.
      std::vector<std::pair<int64_t, int32_t>> l, r;
      l.reserve(lrecs.size());
      r.reserve(rrecs.size());
      for (size_t i = 0; i < lrecs.size(); ++i) {
        l.emplace_back(LeftRid(0, lrecs[i]->row), static_cast<int32_t>(i));
      }
      for (size_t i = 0; i < rrecs.size(); ++i) {
        r.emplace_back(RightRid(0, rrecs[i]->row), static_cast<int32_t>(i));
      }
      SortedThetaScan(l, ThetaOp::kEq, r,
                      [&](int32_t lpos, int32_t rpos) {
                        const int64_t lrow = lrecs[lpos]->row;
                        const int64_t rrow = rrecs[rpos]->row;
                        if (TailRidsMatch(lrow, rrow)) emit(lrow, rrow);
                      });
      return;
    }
    for (const MapOutputRecord* lrec : lrecs) {
      for (const MapOutputRecord* rrec : rrecs) {
        if (RidsMatch(lrec->row, rrec->row)) emit(lrec->row, rrec->row);
      }
    }
  }
};

}  // namespace

StatusOr<MapReduceJobSpec> BuildMergeJob(const MergeJobSpec& spec) {
  if (spec.num_reduce_tasks < 1) {
    return Status::InvalidArgument("num_reduce_tasks must be >= 1");
  }
  auto state = std::make_shared<MergeState>(MergeState{
      .left = spec.left,
      .right = spec.right,
      .shared = SharedBases(spec.left, spec.right),
      .output = OutputRowLayout({spec.left, spec.right}),
      .kernel_policy = spec.kernel_policy,
      .sort_kernel_min_pairs = spec.sort_kernel_min_pairs});
  if (state->shared.empty()) {
    return Status::FailedPrecondition(
        "merge requires the sides to share at least one relation");
  }
  for (int base : state->shared) {
    state->left_rids.push_back(RidColumnFor(spec.left, base));
    state->right_rids.push_back(RidColumnFor(spec.right, base));
  }
  // Merge inputs ship only record IDs: 8 bytes per covered relation.
  state->left_bytes = 8 * static_cast<int64_t>(spec.left.bases.size());
  state->right_bytes = 8 * static_cast<int64_t>(spec.right.bases.size());

  MapReduceJobSpec job;
  job.name = spec.name;
  job.inputs.push_back({spec.left.data, spec.left.scale});
  job.inputs.push_back({spec.right.data, spec.right.scale});
  job.num_reduce_tasks = spec.num_reduce_tasks;
  job.output_schema = MakeIntermediateSchema(
      state->output.bases(), spec.base_relations, spec.output_columns);
  job.output_name = spec.name + ".out";
  // A merged row pairs one left row with one right row agreeing on the
  // shared rids; in expectation the logical count scales like an equi-join
  // on a key: left.scale * right.scale overcounts matches lost to sampling
  // both sides, so use the max (the dominating side's scale).
  job.output_row_scale = std::max(spec.left.scale, spec.right.scale);

  job.kernel = JoinKernelName(spec.kernel_policy == KernelPolicy::kAuto
                                  ? JoinKernel::kSortTheta
                                  : JoinKernel::kGeneric);
  job.map_emits_per_row = {1.0, 1.0};  // merge maps emit exactly once

  job.map = [state](int tag, const Relation& rel, int64_t row,
                    MapEmitter& out) {
    (void)rel;
    // Merge inputs are normally intermediates (already filtered by their
    // producers); the check is a no-op then but keeps base sides correct.
    if (!(tag == 0 ? state->left : state->right).PassesFilter(row)) return;
    out.Emit(static_cast<int64_t>(state->KeyOf(tag, row)), tag, row, row,
             tag == 0 ? state->left_bytes : state->right_bytes);
  };
  job.reduce = [state](const ReduceContext& ctx, ReduceCollector& out) {
    const auto& lrecs = ctx.records(0);
    const auto& rrecs = ctx.records(1);
    out.AddComparisons(static_cast<double>(lrecs.size()) *
                       static_cast<double>(rrecs.size()));
    state->JoinGroup(lrecs, rrecs, out);
  };
  return job;
}

}  // namespace mrtheta
