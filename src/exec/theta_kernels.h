#ifndef MRTHETA_EXEC_THETA_KERNELS_H_
#define MRTHETA_EXEC_THETA_KERNELS_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "src/relation/column_view.h"
#include "src/relation/predicate.h"
#include "src/relation/relation.h"

namespace mrtheta {

/// Which inner-loop implementation a join job's reduce side runs on.
enum class JoinKernel {
  kGeneric,    ///< per-pair nested loop over compiled predicates
  kSortTheta,  ///< sort both sides on the driving column, range-scan
};

const char* JoinKernelName(JoinKernel kernel);

/// Per-job kernel selection directive, threaded from the executor into the
/// job builders. kAuto picks kSortTheta whenever a condition qualifies.
enum class KernelPolicy {
  kAuto,
  kGenericOnly,
};

/// Index into `conditions` of the condition that should drive the
/// sort-based kernel, or -1 when none qualifies. Every condition except `<>`
/// qualifies (a `<>` candidate set is nearly the full cross product, so
/// sorting buys nothing); the key domain is CompiledPredicate's, which
/// covers every condition a validated query holds. Inequalities are
/// preferred over equalities: range pruning is where the sort path beats
/// hashing.
int ChooseSortDriver(const std::vector<JoinCondition>& conditions);

/// Default for the per-job sort-kernel gate: below this many candidate
/// pairs the generic nested loop is used even when a sort driver exists
/// (sorting tiny reduce groups costs more than it saves). The effective
/// value is per-job — `sort_kernel_min_pairs` on the pairwise/merge job
/// specs, fed from ExecutorOptions so benches can sweep it.
inline constexpr int64_t kSortKernelMinPairs = 256;

/// \brief Emits every (left pos, right pos) pair whose keys satisfy `op`,
/// by sorting both sides and scanning qualifying key ranges.
///
/// `left` / `right` are (key, caller position) pairs; both vectors are
/// sorted in place. For single-condition joins this replaces the O(n·m)
/// nested loop with O(n log n + m log m + output). Emission order is
/// deterministic: ascending left key (ties by position), then ascending
/// right key within the qualifying range.
template <typename K, typename Emit>
void SortedThetaScan(std::vector<std::pair<K, int32_t>>& left, ThetaOp op,
                     std::vector<std::pair<K, int32_t>>& right, Emit&& emit) {
  auto by_key = [](const std::pair<K, int32_t>& a,
                   const std::pair<K, int32_t>& b) {
    return a.first < b.first || (a.first == b.first && a.second < b.second);
  };
  std::sort(left.begin(), left.end(), by_key);
  std::sort(right.begin(), right.end(), by_key);
  const size_t n = left.size();
  const size_t m = right.size();

  switch (op) {
    case ThetaOp::kLt:
    case ThetaOp::kLe: {
      // Matching rights form a suffix whose start is monotone in the left
      // key: two-pointer, no per-left binary search.
      size_t start = 0;
      for (size_t i = 0; i < n; ++i) {
        const K& lk = left[i].first;
        while (start < m && (op == ThetaOp::kLt ? !(lk < right[start].first)
                                                : right[start].first < lk)) {
          ++start;
        }
        for (size_t j = start; j < m; ++j) {
          emit(left[i].second, right[j].second);
        }
      }
      break;
    }
    case ThetaOp::kGt:
    case ThetaOp::kGe: {
      // Matching rights form a prefix whose end is monotone in the left key.
      size_t end = 0;
      for (size_t i = 0; i < n; ++i) {
        const K& lk = left[i].first;
        while (end < m && (op == ThetaOp::kGt ? right[end].first < lk
                                              : !(lk < right[end].first))) {
          ++end;
        }
        for (size_t j = 0; j < end; ++j) {
          emit(left[i].second, right[j].second);
        }
      }
      break;
    }
    case ThetaOp::kEq: {
      // Sort-merge over runs of equal keys.
      size_t i = 0, j = 0;
      while (i < n && j < m) {
        if (left[i].first < right[j].first) {
          ++i;
        } else if (right[j].first < left[i].first) {
          ++j;
        } else {
          size_t ie = i, je = j;
          while (ie < n && !(left[i].first < left[ie].first)) ++ie;
          while (je < m && !(right[j].first < right[je].first)) ++je;
          for (size_t a = i; a < ie; ++a) {
            for (size_t b = j; b < je; ++b) {
              emit(left[a].second, right[b].second);
            }
          }
          i = ie;
          j = je;
        }
      }
      break;
    }
    case ThetaOp::kNe: {
      // Complement of the equal run: [0, lo) and [hi, m) per left run.
      size_t i = 0;
      size_t lo = 0, hi = 0;
      while (i < n) {
        size_t ie = i;
        while (ie < n && !(left[i].first < left[ie].first)) ++ie;
        while (lo < m && right[lo].first < left[i].first) ++lo;
        hi = std::max(hi, lo);
        while (hi < m && !(left[i].first < right[hi].first)) ++hi;
        for (size_t a = i; a < ie; ++a) {
          for (size_t b = 0; b < lo; ++b) {
            emit(left[a].second, right[b].second);
          }
          for (size_t b = hi; b < m; ++b) {
            emit(left[a].second, right[b].second);
          }
        }
        i = ie;
      }
      break;
    }
  }
}

/// \brief Joins two row sets under one compiled condition via the
/// sort-based kernel, keyed in the predicate's own comparison domain.
///
/// `lrows` / `rrows` are row indices into the relations holding the
/// condition's lhs / rhs columns; `emit(lpos, rpos)` receives positions
/// into those spans for every satisfying pair.
template <typename Emit>
void SortJoinRowSets(const CompiledPredicate& pred,
                     std::span<const int64_t> lrows,
                     std::span<const int64_t> rrows, Emit&& emit) {
  auto run = [&](auto lhs_key, auto rhs_key) {
    using K = decltype(lhs_key(int64_t{0}));
    std::vector<std::pair<K, int32_t>> left, right;
    left.reserve(lrows.size());
    right.reserve(rrows.size());
    for (size_t i = 0; i < lrows.size(); ++i) {
      left.emplace_back(lhs_key(lrows[i]), static_cast<int32_t>(i));
    }
    for (size_t i = 0; i < rrows.size(); ++i) {
      right.emplace_back(rhs_key(rrows[i]), static_cast<int32_t>(i));
    }
    SortedThetaScan(left, pred.op(), right, emit);
  };

  switch (pred.domain()) {
    case CompiledPredicate::Domain::kInt64:
      run([&](int64_t r) { return pred.LhsKeyInt(r); },
          [&](int64_t r) { return pred.RhsKeyInt(r); });
      break;
    case CompiledPredicate::Domain::kDouble:
      run([&](int64_t r) { return pred.LhsKeyDouble(r); },
          [&](int64_t r) { return pred.RhsKeyDouble(r); });
      break;
    case CompiledPredicate::Domain::kString:
      run([&](int64_t r) { return std::string_view(pred.LhsKeyString(r)); },
          [&](int64_t r) { return std::string_view(pred.RhsKeyString(r)); });
      break;
  }
}

}  // namespace mrtheta

#endif  // MRTHETA_EXEC_THETA_KERNELS_H_
