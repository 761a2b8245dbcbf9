// Micro-benchmark of the reduce-side join kernels: generic nested loop
// (compiled predicates, no sort) vs the sort-based range-scan kernel, on a
// single-inequality join. Writes BENCH_kernels.json (pass a path to
// override) so the kernel perf trajectory is tracked across PRs.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/exec/theta_kernels.h"
#include "src/relation/column_view.h"

namespace mrtheta::bench {
namespace {

RelationPtr MakeKeyRel(const char* name, int64_t rows, int64_t lo, int64_t hi,
                       uint64_t seed) {
  auto rel =
      std::make_shared<Relation>(name, Schema({{"k", ValueType::kInt64}}));
  Rng rng(seed);
  for (int64_t i = 0; i < rows; ++i) {
    rel->AppendIntRow({rng.UniformInt(lo, hi)});
  }
  return rel;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Measured {
  int64_t wall_ns = 0;
  int64_t pairs = 0;
};

// The generic kernel's inner loop: every pair through the compiled
// predicate (this is what the reducers run when no sort driver applies).
Measured RunGeneric(const JoinCondition& cond, const Relation& lrel,
                    const Relation& rrel) {
  const CompiledPredicate pred =
      CompiledPredicate::Compile(cond, lrel, rrel);
  Measured m;
  const int64_t t0 = NowNs();
  for (int64_t l = 0; l < lrel.num_rows(); ++l) {
    for (int64_t r = 0; r < rrel.num_rows(); ++r) {
      if (pred.Eval(l, r)) ++m.pairs;
    }
  }
  m.wall_ns = NowNs() - t0;
  return m;
}

Measured RunSorted(const JoinCondition& cond, const Relation& lrel,
                   const Relation& rrel) {
  std::vector<int64_t> lrows(lrel.num_rows()), rrows(rrel.num_rows());
  std::iota(lrows.begin(), lrows.end(), 0);
  std::iota(rrows.begin(), rrows.end(), 0);
  Measured m;
  const int64_t t0 = NowNs();
  SortJoinRowSets(CompiledPredicate::Compile(cond, lrel, rrel), lrows, rrows,
                  [&](int32_t, int32_t) { ++m.pairs; });
  m.wall_ns = NowNs() - t0;
  return m;
}

KernelBenchRecord Record(const std::string& label, JoinKernel kernel,
                         int64_t lrows, int64_t rrows, const Measured& m) {
  KernelBenchRecord rec;
  rec.label = label;
  rec.kernel = JoinKernelName(kernel);
  rec.left_rows = lrows;
  rec.right_rows = rrows;
  rec.wall_ns = m.wall_ns;
  rec.tuples_per_sec = m.wall_ns > 0
                           ? static_cast<double>(lrows + rrows) * 1e9 /
                                 static_cast<double>(m.wall_ns)
                           : 0.0;
  rec.output_pairs = m.pairs;
  return rec;
}

}  // namespace
}  // namespace mrtheta::bench

int main(int argc, char** argv) {
  using namespace mrtheta;
  using namespace mrtheta::bench;

  const char* path = argc > 1 ? argv[1] : "BENCH_kernels.json";
  std::vector<KernelBenchRecord> records;
  std::printf("%-18s %10s %10s %14s %14s %10s\n", "case", "rows", "pairs",
              "generic_ns", "sort_ns", "speedup");

  bool ok = true;
  for (int64_t n : {2000, 20000}) {
    // Band-style workload: keys mostly disjoint with a narrow overlap
    // window, so the single `<` condition is selective — the regime where
    // the paper's theta joins live and where range pruning pays.
    RelationPtr left = MakeKeyRel("L", n, 0, 1000000, 11);
    RelationPtr right = MakeKeyRel("R", n, -1000000, 10000, 12);
    const JoinCondition cond{{0, 0}, ThetaOp::kLt, {1, 0}, 0.0, 0};

    const Measured gen = RunGeneric(cond, *left, *right);
    const Measured srt = RunSorted(cond, *left, *right);
    if (gen.pairs != srt.pairs) {
      std::fprintf(stderr, "FATAL: kernels disagree (%lld vs %lld pairs)\n",
                   static_cast<long long>(gen.pairs),
                   static_cast<long long>(srt.pairs));
      return 1;
    }
    const double speedup = srt.wall_ns > 0 ? static_cast<double>(gen.wall_ns) /
                                                 static_cast<double>(srt.wall_ns)
                                           : 0.0;
    const std::string label =
        "lt_" + std::to_string(n) + "x" + std::to_string(n);
    records.push_back(Record(label, JoinKernel::kGeneric, n, n, gen));
    records.push_back(Record(label, JoinKernel::kSortTheta, n, n, srt));
    std::printf("%-18s %10lld %10lld %14lld %14lld %9.1fx\n", label.c_str(),
                static_cast<long long>(n), static_cast<long long>(gen.pairs),
                static_cast<long long>(gen.wall_ns),
                static_cast<long long>(srt.wall_ns), speedup);
    // Acceptance bar: >= 5x at 20k x 20k for a single-inequality join.
    if (n == 20000 && speedup < 5.0) ok = false;
  }

  const Status s = WriteBenchJson(path, records);
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s\n", path);
  if (!ok) {
    std::fprintf(stderr, "FAIL: sort kernel below 5x at 20k x 20k\n");
    return 1;
  }
  return 0;
}
