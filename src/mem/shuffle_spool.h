#ifndef MRTHETA_MEM_SHUFFLE_SPOOL_H_
#define MRTHETA_MEM_SHUFFLE_SPOOL_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/common/status.h"
#include "src/common/thread_annotations.h"
#include "src/mapreduce/job.h"
#include "src/mem/memory_budget.h"
#include "src/mem/spill.h"

namespace mrtheta {

/// \brief Budget-aware shuffle partitions: per-reduce-task record buckets
/// that spill sorted runs to one shared file when the memory budget is
/// exceeded, merged back per task with a k-way external merge
/// (docs/MEMORY.md).
///
/// Usage mirrors the shuffle of the parallel runner:
///  1. Append(task, rec) from the *sequential* merge walk — appends are
///     single-threaded, in emit order, and may spill the largest bucket;
///  2. FinishWrites() once, before the reduce phase;
///  3. MaterializeTask(t) from concurrent reduce workers — thread-safe for
///     distinct tasks, each merge reading the shared file through its own
///     handles; a retried attempt re-materializes the same records;
///  4. ReleaseTask(t) from the task's commit, freeing the bucket.
///
/// Spilled runs are sorted by (key, tag, row) — RunReduceTask's exact
/// comparator — so a merged task is already sorted and the reduce-side
/// sort is skipped. Determinism: records tying on the full comparator are
/// identical by the emit contract, so run/merge boundaries cannot perturb
/// the reduced sequence; outputs are byte-identical with or without
/// spilling.
///
/// Bucket memory is tracked against MemoryBudget::Global() (vector
/// capacities, not pages: shuffle partitions are many and small, and page
/// rounding would defeat tight budgets). Buckets grow by doubling, or are
/// reserved exactly up front by ReserveExact when spilling is disarmed.
/// The spool's spill file is removed by its destructor; the per-execution
/// SpillDirectory sweeps whatever an abandoned process state leaves
/// behind.
class ShuffleSpool {
 public:
  /// `dir` is not owned and may be null (spilling disarmed);
  /// `spill_limit_bytes` <= 0 also disarms spilling.
  ShuffleSpool(int num_tasks, int64_t spill_limit_bytes, SpillDirectory* dir);
  ShuffleSpool(const ShuffleSpool&) = delete;
  ShuffleSpool& operator=(const ShuffleSpool&) = delete;
  ~ShuffleSpool();

  /// For a spool with spilling disarmed: reserves every task's bucket at
  /// its final record count, so buckets never reallocate or keep growth
  /// slack. An exact bucket is written front to back and charged as it
  /// fills, not up front while the map pages it copies are still charged.
  /// A failed reservation latches into status().
  void ReserveExact(const std::vector<int64_t>& task_records);

  /// Appends one record to `task`'s bucket; may spill. Errors latch into
  /// status() and turn later Appends into no-ops.
  void Append(int task, const MapOutputRecord& rec);

  /// Flushes the spill file before concurrent reads. Call once, after the
  /// last Append and before the first MaterializeTask.
  Status FinishWrites();

  /// First latched error, or OK.
  Status status() const {
    MutexLock lock(&partition_mu_);
    return status_;
  }

  struct MaterializedTask {
    /// Task `t`'s complete record set: its own bucket, or `*merged`.
    std::vector<MapOutputRecord>* records = nullptr;
    /// True when the records come (partly) from sorted runs and are
    /// already in (key, tag, row) order; false = append order.
    bool sorted = false;
  };

  /// Returns task `t`'s records for one reduce attempt. A never-spilled
  /// task gets its bucket itself, in append order, for the reducer to
  /// sort and reduce in place — no copy. That is safe because after
  /// FinishWrites a bucket is touched only by its own task, whose attempts
  /// never overlap, and sorting is idempotent: a retried attempt re-sorts
  /// the bucket into the same order. A spilled task gets the k-way merge
  /// of its runs and its (sorted in place) resident tail, written to
  /// `*merged` — the caller owns that vector and should charge it to the
  /// budget for accounting.
  StatusOr<MaterializedTask> MaterializeTask(
      int task, std::vector<MapOutputRecord>* merged);

  /// Frees task `t`'s in-memory bucket (commit-time; runs stay on disk
  /// until the spool dies but are never re-read after release).
  void ReleaseTask(int task);

  /// Bytes written to the spill file (0 = never spilled).
  int64_t spill_bytes() const {
    MutexLock lock(&partition_mu_);
    return spill_bytes_;
  }
  /// Spill files created (0 or 1 — runs share one file).
  int64_t spill_files() const { return spill_file_.has_value() ? 1 : 0; }

 private:
  /// One sorted run of a bucket inside the shared spill file.
  struct Run {
    int64_t offset_bytes = 0;
    int64_t count = 0;
  };
  struct Bucket {
    std::vector<MapOutputRecord> records;  ///< charged by ChargedPush
    size_t charged_records = 0;
    bool exact = false;  ///< reserved by ReserveExact; charged as filled
    std::vector<Run> runs;
  };

  void ChargedPush(Bucket& bucket, const MapOutputRecord& rec)
      MRTHETA_REQUIRES(partition_mu_);
  void UnchargeBucket(Bucket& bucket) MRTHETA_REQUIRES(partition_mu_);
  /// Spills the largest buckets until under budget (or all are tiny).
  void MaybeSpill() MRTHETA_REQUIRES(partition_mu_);
  Status SpillBucket(Bucket& bucket) MRTHETA_REQUIRES(partition_mu_);

  /// Registered under kSpoolPartitionLockName so MemoryBudget's page pool
  /// can CHECK the cross-subsystem lock-ordering contract (never acquire
  /// pool pages while a partition lock is held) at runtime; the bucket
  /// path only uses the budget's lock-free Charge/Uncharge, so the
  /// contract holds by construction here.
  mutable Mutex partition_mu_{kSpoolPartitionLockName};
  std::vector<Bucket> buckets_ MRTHETA_GUARDED_BY(partition_mu_);
  const int64_t spill_limit_bytes_ = 0;
  SpillDirectory* const spill_dir_ = nullptr;
  /// Single-writer during the sequential Append phase, frozen after
  /// FinishWrites; concurrent MaterializeTask merges read it through their
  /// own Reader handles, so it is deliberately NOT guarded.
  std::optional<SpillFile> spill_file_;
  int64_t spill_bytes_ MRTHETA_GUARDED_BY(partition_mu_) = 0;
  Status status_ MRTHETA_GUARDED_BY(partition_mu_);
};

}  // namespace mrtheta

#endif  // MRTHETA_MEM_SHUFFLE_SPOOL_H_
